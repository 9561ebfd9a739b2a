"""Harness self-check at a tiny size (about a minute):

    python3 bench/selfcheck.py

For every workload, a one-second run must print each end-to-end metric of
BENCHMARK.json by name with its unit and count no failure; the same run
with one expected value deliberately corrupted must count a failure; and a
one-second traced run must print each per-layer metric with its unit.
Exits non-zero on the first broken promise.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def run_once(argv, corrupt=False):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, corrupt=corrupt)
    lines = buf.getvalue().splitlines()
    if code != 0:
        raise SystemExit(f"run.py {' '.join(argv)} exited with {code}")
    return lines, json.loads(lines[-1])


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        raise SystemExit(1)


def check_metrics(lines, result, specs, what):
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        expect(got is not None and got["unit"] == unit, f"{what}: {name} reported in {unit}")
        expect(any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in lines),
               f"{what}: {name} printed with its unit")
    expect(set(result["metrics"]) == {s["name"] for s in specs}, f"{what}: no metric outside BENCHMARK.json")


def main():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for workload in workloads.WORKLOADS:
        argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
        lines, result = run_once(argv)
        check_metrics(lines, result, bench["end_to_end"], workload)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{workload}: fail_frac is 0 over {result['attempted']} calls")
        _, bad = run_once(argv, corrupt=True)
        expect(bad["failed"] >= 1 and not bad["correct"], f"{workload}: a corrupted expected value is a failure")
        lines, traced = run_once(argv[:-1] + ["1"])
        check_metrics(lines, traced, bench["per_layer"], f"{workload} traced")
        expect(traced["correct"], f"{workload} traced: every result checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
