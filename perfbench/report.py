"""Run every workload, untraced and traced, and print one table.

Usage, from the root of a checkout:
    python3 perfbench/report.py [--seed 1] [--seconds 60] [--toy]

Rows are failed_frac, the end-to-end metrics and the per-layer metrics of
the traced run; columns are the workloads.  Each cell comes from one
`run.py` invocation, so the numbers are the ones the benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--toy"] if args.toy else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    rows: dict[str, dict[str, str]] = {"failed_frac": {}}
    units = {"failed_frac": "share"}
    for w in workloads:
        for trace in (0, 1):
            res = run(w, trace, args)
            if trace == 0:
                rows["failed_frac"][w] = f"{res['failed'] / res['attempted']:.3g}"
            for name, m in res["metrics"].items():
                value = m["value"]
                rows.setdefault(name, {})[w] = (
                    str(value) if isinstance(value, int) else f"{value:.4g}")
                units[name] = m["unit"]
    order = ["failed_frac"] + [m["name"] for m in spec["end_to_end"]
                               + spec["per_layer"]]
    print(f"{'metric':<38}" + "".join(f"{w:>13}" for w in workloads) + "  unit")
    for name in order:
        print(f"{name:<38}" + "".join(f"{rows[name].get(w, '-'):>13}"
                                      for w in workloads) + f"  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
