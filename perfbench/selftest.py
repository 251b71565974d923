"""Self-test of the benchmark at toy size (m = 7, a 10-graph corpus).

Usage, from the root of a checkout:
    python3 perfbench/selftest.py

For every workload and both trace modes it checks that the last line of
run.py's output is the result object, that every metric BENCHMARK.json names
is printed with its unit, and that the traced self times add up to the
traced wall time.  It checks that a deliberately wrong expected answer is
counted as a failed item (not raised, not skipped), and that run.py fails
without printing a result when the specbound sources are missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print(f"FAIL {what}")


def run(*flags: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "1", "--toy", *flags],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def result(proc: subprocess.CompletedProcess, what: str) -> dict:
    expect(proc.returncode == 0,
           f"{what}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else {}
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(res)}")
    return res


def check_metrics(out: str, res: dict, listed: list[dict], what: str) -> None:
    expect(set(res["metrics"]) == {m["name"] for m in listed},
           f"{what}: metric names differ from BENCHMARK.json")
    for m in listed:
        got = res["metrics"].get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"]
               and isinstance(value, (int, float)) and math.isfinite(value),
               f"{what}: {m['name']} = {got}")
        expect(any(line.split()[0:1] == [m["name"]]
                   and line.split()[2:3] == [m["unit"]]
                   for line in out.splitlines()),
               f"{what}: {m['name']} not printed with its unit")


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        what = f"{w} --trace 0"
        proc = run("--workload", w, "--trace", "0")
        res = result(proc, what)
        expect(res["correct"] is True and res["failed"] == 0
               and res["attempted"] >= 1, f"{what}: {res}")
        check_metrics(proc.stdout, res, SPEC["end_to_end"], what)
        expect(all(m["value"] > 0 for m in res["metrics"].values()),
               f"{what}: an end-to-end metric is not positive")

        what = f"{w} --trace 1"
        proc = run("--workload", w, "--trace", "1")
        res = result(proc, what)
        expect(res["correct"] is True and res["failed"] == 0, f"{what}: {res}")
        check_metrics(proc.stdout, res, SPEC["per_layer"], what)
        vals = {k: v["value"] for k, v in res["metrics"].items()}
        parts = sum(vals[name] for name in tracer.SELF_TIME_METRICS.values())
        expect(abs(parts - vals["trace.wall_s"]) <= 1e-6 * vals["trace.wall_s"],
               f"{what}: self times add to {parts}, traced wall is "
               f"{vals['trace.wall_s']}")

        what = f"{w} --wrong-answer"
        proc = run("--workload", w, "--trace", "0", "--wrong-answer")
        res = result(proc, what)
        expect(res["correct"] is False and res["failed"] >= 1
               and res["failed"] < res["attempted"], f"{what}: {res}")
        frac = res["failed"] / res["attempted"]
        expect(f"failed_frac      {frac:.6g}" in proc.stdout,
               f"{what}: failed_frac {frac:.6g} not printed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "sweep", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
