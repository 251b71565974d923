"""One cold run of one workload, in the fresh interpreter run.py starts.

Usage (run.py passes these; PYTHONPATH must name the checkout's src/):
    python3 perfbench/cold.py --workload sweep --seed 1 --spawned-at T \
        [--mode setup|timed|traced] [--spans FILE] [--toy] [--wrong-answer]

`--spawned-at` is the parent's time.monotonic() just before it started this
interpreter; the set-up time runs from there to the first timed call and so
covers interpreter start, `import specbound` (and numpy) and building the
inputs and expected answers.  Mode `setup` stops there.  The known-answer
checks run after the timed section.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _usage() -> tuple[float, float]:
    """CPU seconds of this process and of any worker processes it reaped,
    and the peak resident set in MB of the larger of this process and its
    largest worker."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


_RAISED = object()


def _run(items) -> list:
    outputs = []
    for item in items:
        try:
            outputs.append(item.call())
        except Exception:
            traceback.print_exc()
            outputs.append(_RAISED)
    return outputs


def _failures(items, outputs) -> int:
    failed = 0
    for item, out in zip(items, outputs):
        ok = False
        if out is not _RAISED:
            try:
                ok = item.check(out)
            except Exception:
                traceback.print_exc()
        if not ok:
            print(f"known-answer check failed: {item.label}", file=sys.stderr)
            failed += 1
    return failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"),
                    default="timed")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--wrong-answer", action="store_true")
    args = ap.parse_args()

    import specbound
    if Path(specbound.__file__).resolve().parent.parent != SRC:
        print(f"specbound was imported from {specbound.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from specbound import bounds, certify, graphs, spectra
    import tracer
    import workloads

    items = workloads.build(args.workload, args.seed, args.toy)
    if args.wrong_answer:
        right = items[0].check
        items[0].check = lambda out: not right(out)
    trace = None
    if args.mode == "traced":
        trace = tracer.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        trace.install({"certify": certify, "graphs": graphs,
                       "spectra": spectra, "bounds": bounds})
        caches_before = trace.cache_counts()
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu0, _ = _usage()
    t0 = time.perf_counter()
    if trace is None:
        outputs = _run(items)
    else:
        outputs = trace.span(tracer.ROOT, _run, items)
    wall_s = time.perf_counter() - t0
    cpu1, peak_mb = _usage()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_mb,
        "attempted": len(items),
    }
    if trace is not None:
        result["layers"] = tracer.layer_metrics(trace, caches_before,
                                                trace.cache_counts())
    result["failed"] = _failures(items, outputs)
    if trace is not None and args.spans:
        trace.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
