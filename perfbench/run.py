"""specbound benchmark: certifier sweeps and exact algebra, timed cold.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

Every timed run starts a fresh interpreter (perfbench/cold.py), because
specbound keeps enumeration levels and lru_caches for the life of a process
and a command-line user pays the cold cost on every call.  Within
`--seconds`, this runs a few set-up-only interpreters, then whole workload
runs until the next one would overrun, and reports medians.  With
`--trace 1` one extra run is traced and the per-layer metrics are reported
instead; its spans are written to perfbench/out/.

Metric names and units come from BENCHMARK.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  `--toy`
shrinks every workload for the self-test; `--wrong-answer` corrupts one
expected answer, which must then show up as a failed item.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7  # set-up-only interpreters per run, for the set-up median
DEADLINE_S = 170.0  # a run must end well within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(args, mode: str, started: float, spans: Path | None = None) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the next run")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "cold.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if args.toy:
        cmd.append("--toy")
    if args.wrong_answer:
        cmd.append("--wrong-answer")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} run of {args.workload} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {args.workload} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def _measure(args) -> tuple[list[float], list[dict], dict | None]:
    """Set-up samples, untraced runs and the traced run (or None)."""
    started = time.monotonic()
    setups = [_spawn(args, "setup", started)["setup_s"]
              for _ in range(SETUP_RUNS)]
    traced = None
    if args.trace:
        (HERE / "out").mkdir(exist_ok=True)
        traced = _spawn(args, "traced", started,
                        HERE / "out" / f"spans-{args.workload}.jsonl")
    runs: list[dict] = []
    while True:
        t = time.monotonic()
        runs.append(_spawn(args, "timed", started))
        setups.append(runs[-1]["setup_s"])
        now = time.monotonic()
        if now - started + (now - t) > args.seconds:
            return setups, runs, traced


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--wrong-answer", action="store_true")
    args = ap.parse_args()

    if not (SRC / "specbound" / "__init__.py").is_file():
        print(f"no specbound sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setups, runs, traced = _measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    done = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    samples = {k: [r[k] for r in runs] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    values = {k: statistics.median(v) for k, v in samples.items()}
    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} cold runs, "
          f"{len(setups)} set-ups")
    print(f"  failed_frac      {failed / attempted:.6g}  "
          f"({failed} of {attempted} items)")
    for m in spec["end_to_end"]:
        each = " ".join(f"{v:.4g}" for v in samples[m["name"]])
        print(f"  {m['name']:<16} {values[m['name']]:.6g} {m['unit']}"
              f"  (median of: {each})")
    listed = spec["end_to_end"]
    if traced:
        values = {**traced["layers"],
                  "trace.overhead_s": traced["wall_s"] - values["wall_s"]}
        listed = spec["per_layer"]
        print("  traced run, per layer:")
        for m in listed:
            print(f"  {m['name']:<38} {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
