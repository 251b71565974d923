#!/usr/bin/env python3
"""Run the full desk-scale certification sweep and print one row per check.

Usage:
    python scripts/run_certification.py [--jobs N] [--json-dir DIR]

Covers every edge-indexed theorem for every m up to its class's edge budget
(certify.edge_budget: nosal and lnw up to certify.EDGE_BUDGET, the
non-bipartite theorems further) and the vertex-indexed Mantel and Erdos
checks for every n up to certify.VERTEX_BUDGET.  Exit status is nonzero if
any verdict is VIOLATED.
"""

import argparse
import pathlib
import sys
import time

from specbound import certify


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--json-dir", type=pathlib.Path, default=None)
    args = ap.parse_args()

    def top_m(**flags) -> int:
        return certify.edge_budget(certify.ClassFilter(**flags)) + 1

    top_n = certify.VERTEX_BUDGET + 1
    runs = []
    for m in range(3, top_m(triangle_free=True)):
        runs.append(("nosal", m, lambda m=m: certify.certify_nosal(m, args.jobs)))
        runs.append(("lnw", m, lambda m=m: certify.certify_lnw_sum(m, args.jobs)))
    for m in range(5, top_m(triangle_free=True, non_bipartite=True)):
        runs.append(("thm15", m, lambda m=m: certify.certify_thm15(m, args.jobs)))
        runs.append(("zhai-shu", m, lambda m=m: certify.certify_zhai_shu(m, args.jobs)))
    for m in range(7, top_m(triangle_free=True, c5_free=True,
                            non_bipartite=True)):
        runs.append(("main", m, lambda m=m: certify.certify_main(m, args.jobs)))
    for n in range(4, top_n):
        runs.append(("mantel", n, lambda n=n: certify.certify_mantel(n)))
    for n in range(5, top_n):
        runs.append(("erdos", n, lambda n=n: certify.certify_erdos(n)))
    for m in range(9, top_m(odd_girth_min=9, non_bipartite=True), 2):
        runs.append(("conj51-k3", m,
                     lambda m=m: certify.certify_conj51(m, 3, args.jobs)))

    print(f"{'theorem':<10} {'param':>5} {'classes':>8} {'max':>13} "
          f"{'bound':>13} {'verdict':<22} {'secs':>6}")
    bad = 0
    t0 = time.perf_counter()
    for name, param, fn in runs:
        r = fn()
        print(f"{name:<10} {param:>5} {r.graphs_examined:>8} "
              f"{r.max_lambda:>13.8f} {r.bound:>13.8f} {r.verdict:<22} "
              f"{r.wall_time:>6.2f}")
        if r.verdict == "VIOLATED":
            bad += 1
        if args.json_dir:
            args.json_dir.mkdir(parents=True, exist_ok=True)
            certify.report_to_json(r, args.json_dir / f"{name}-{param}.json")
    print(f"total wall time {time.perf_counter() - t0:.1f}s, "
          f"{bad} violation(s)")
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
