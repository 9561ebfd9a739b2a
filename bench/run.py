"""trace-kit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload table-scan|single-large|oracle-verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  A
run is a closed loop with one caller: rounds of timed calls, each round a
fresh process (see workloads.py), until S seconds have passed.  The run
and every process it starts are pinned to one core.  Every result is
checked exactly (workloads.py, expected.json); a call that raises, exits
non-zero or returns a wrong value is counted in `failed`.

Times are reported at the reference speed: each call and each set-up is
bracketed by workloads.reference_s(), and its wall-clock time is scaled by
REFERENCE_NOMINAL_S over the reference time around it, which takes out the
drift of the machine's speed.  The wall-clock values are printed on '#'
lines.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates traced rounds with untraced replays of the same calls and
prints the per-layer metrics, computed from the spans the traced rounds
write to .bench_build/trace-kit/, plus the tracing overhead.

The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it, starting with '#', repeat every metric with its unit,
the sample counts, fail_frac and the machine notes.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_SPAWNS = 10
HARD_LIMIT_S = 170  # a run ends within this many seconds, whatever the program does
LAYERS = ("arith", "class_numbers", "local_counts", "dirichlet", "cusp_terms", "trace_formulas",
          "hecke_operator", "period_oracle", "cli")


class Round:
    """One child process: its set-up time, QQ backend and parsed calls.

    `setup_s` is wall-clock; `setup_ref` is the mean of the reference work
    timed just before the spawn and just after set-up."""

    def __init__(self, setup_s, setup_ref, qq, calls=(), spaces=(), peak_kb=0):
        self.setup_s, self.setup_ref, self.qq = setup_s, setup_ref, qq
        self.calls, self.spaces, self.peak_kb = list(calls), list(spaces), peak_kb


def spawn_round(workload, seed, index, deadline, env, stop_at, jobs=None, trace_dir=None, setup_only=False):
    """Run child.py in its own process group; kill the group at `stop_at`."""
    cmd = [sys.executable, str(HERE / "child.py"), "round", workload, str(seed), str(index), repr(deadline)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace_dir:
        cmd += ["--trace", str(trace_dir)]
    if setup_only:
        cmd.append("--setup-only")
    ref_before = workloads.reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not ready.startswith("READY "):
            raise RuntimeError(f"round process did not start: {ready!r}")
        out, _ = proc.communicate(timeout=max(1.0, stop_at - time.monotonic()))
    except subprocess.TimeoutExpired:
        timeout = {"job": "timeout", "s": time.perf_counter() - t0, "ref": ref_before, "err": "timeout", "results": []}
        return Round(setup_s, ref_before, "?", [timeout])
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode:
        raise RuntimeError(f"round process exited with {proc.returncode}")
    qq = ready.split()[1]
    if setup_only:
        return Round(setup_s, (ref_before + workloads.reference_s()) / 2, qq)
    data = json.loads(out.strip().splitlines()[-1])
    calls = data["calls"]
    refs = [c["ref"] for c in calls] + [data["ref_end"]]
    # a call is bracketed by the reference work timed before it and after it
    for call, before, after in zip(calls, refs, refs[1:]):
        call["ref"] = (before + after) / 2
    return Round(setup_s, (ref_before + refs[0]) / 2, qq, calls, data["spaces"], data["peak_kb"])


def check_calls(workload, calls, expected, corrupt=False):
    """Mark each call failed or not; return the number of checked results.

    Digests recorded at the seed commit cover every input a seed can pick.
    Independent identities on top: tau(n) for level 1 weight 12, the genus of
    X_0(N) for T_1 at weight 2; oracle-verify already compared closed and
    period values in the round process."""
    table = expected[workload]
    tau = None
    if workload == "table-scan":
        tau = workloads.tau_table(workloads.TABLE_MAX_N)
    good = 0
    for call in calls:
        bad = call["err"] is not None or not call["results"]
        for key, dig, value in call["results"]:
            if workload == "table-scan":
                tid, n = key.rsplit(":", 1)
                n = int(n)
                want = table.get(tid, "")[8 * (n - 1):8 * n]
                if tid == workloads.TAU_TEMPLATE and value != [tau[n], 1]:
                    bad = True
            else:
                want = table.get(key)
                if workload == "single-large":
                    _, N, k, n = key.split(":")
                    if (k, n) == ("2", "1") and value != [1, [[workloads.genus_x0(int(N)), 1]]]:
                        bad = True
            if corrupt:
                want, corrupt = "corrupt!", False
            if dig != want:
                bad = True
        call["failed"] = bad
        if not bad:
            good += len(call["results"])
    return good


def quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference_speed(call):
    """A call's duration in seconds, scaled to the machine speed at which the
    reference work takes REFERENCE_NOMINAL_S."""
    return call["s"] * workloads.REFERENCE_NOMINAL_S / call["ref"]


def end_to_end(durations, results, setups, rounds):
    """The end-to-end metrics from call durations and set-up times in seconds."""
    ms = [d * 1e3 for d in durations]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "traces_per_s": (results / sum(durations), "1/s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_p90_ms": (quantile(ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(r.peak_kb for r in rounds) / 1024, "MB"),
    }


def layer_metrics(spans, spaces, overhead, speed):
    """Per-layer metrics; times are scaled by the run's speed factor."""
    s = tracer.summarize(spans)
    counts, name_s = s["counts"], s["name_s"]
    lookups = s["solution_set_hits"] + s["solution_set_misses"]
    period_dims = sum(d for d, _ in spaces)
    module_dims = sum(m for _, m in spaces)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (s["busy_s"].get(layer, 0.0), "s")
        m[f"{layer}.self_s"] = (s["self_s"].get(layer, 0.0), "s")
    m.update({
        "class_numbers.calls": (s["spans"].get("class_numbers", 0), "count"),
        "class_numbers.distinct_D": (s["distinct_D"], "count"),
        "local_counts.calls": (s["spans"].get("local_counts", 0), "count"),
        "local_counts.solution_set_hit_ratio": (s["solution_set_hits"] / lookups if lookups else 0.0, "ratio"),
        "local_counts.residues_scanned": (s["residues_scanned"], "count"),
        "dirichlet.cyclo_ops": (sum(c for k, c in counts.items() if k in tracer.CYCLO_OPS), "count"),
        "dirichlet.char_evals": (sum(c for k, c in counts.items() if k in tracer.CHAR_EVALS), "count"),
        "cusp_terms.calls": (s["spans"].get("cusp_terms", 0), "count"),
        "hecke_operator.build_s": (name_s.get("hecke_operator.build_Tn", 0.0), "s"),
        "hecke_operator.candidates": (s["candidates"], "count"),
        "hecke_operator.support": (s["support"], "count"),
        "hecke_operator.useful_ratio": (s["support"] / s["candidates"] if s["candidates"] else 0.0, "ratio"),
        "period_oracle.space_s": (name_s.get("period_oracle.dim_period_space", 0.0), "s"),
        "period_oracle.spaces": (counts.get("period_oracle.dim_period_space", 0), "count"),
        "period_oracle.kept_ratio": (period_dims / module_dims if module_dims else 0.0, "ratio"),
        "period_oracle.trace_s": (name_s.get("period_oracle.trace_on_W", 0.0), "s"),
        "period_oracle.sigma_block_calls": (counts.get("period_oracle.sigma_block_map", 0), "count"),
        "trace_overhead": (overhead, "ratio"),
    })
    return {name: (value * speed if unit == "s" else value, unit) for name, (value, unit) in m.items()}


def main(argv=None, corrupt=False):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trace_kit" / "__init__.py").is_file():
        print(f"error: no trace_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)

    start = time.monotonic()
    stop_at = start + HARD_LIMIT_S
    usable = sorted(os.sched_getaffinity(0))
    # One core for the whole run, and one worker: the reference work then
    # times the core that runs the calls, and no worker waits on another.
    os.sched_setaffinity(0, {usable[-1]})
    threads = 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TRACE_KIT_THREADS=str(threads))
    trace_dir = ROOT / ".bench_build" / "trace-kit" / f"{args.workload}-{args.seed}"
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)

    setup_rounds = [spawn_round(args.workload, args.seed, i, math.inf, env, stop_at, setup_only=True)
                    for i in range(SETUP_ONLY_SPAWNS)]

    deadline = time.monotonic() + args.seconds
    rounds, replays, index = [], [], 0
    while time.monotonic() < deadline and time.monotonic() < stop_at:
        rnd = spawn_round(args.workload, args.seed, index, deadline, env, stop_at,
                          trace_dir=trace_dir if args.trace else None)
        rounds.append(rnd)
        if args.trace and rnd.calls[-1]["job"] != "timeout":
            replays.append(spawn_round(args.workload, args.seed, index, math.inf, env, stop_at, jobs=len(rnd.calls)))
        index += 1

    calls = [c for r in rounds + replays for c in r.calls]
    good = check_calls(args.workload, calls, expected, corrupt)
    failed = sum(c["failed"] for c in calls)
    timed = [c for r in rounds for c in r.calls]
    refs = [c["ref"] for c in timed]
    setups = [(r.setup_s, r.setup_ref) for r in setup_rounds + rounds]

    if args.trace:
        replayed = [c for r in replays for c in r.calls]
        overhead = sum(map(at_reference_speed, timed)) / sum(map(at_reference_speed, replayed)) if replayed else 0.0
        spans = sorted(str(p) for p in trace_dir.glob("*.json"))
        speed = workloads.REFERENCE_NOMINAL_S / statistics.median(refs)
        metrics = layer_metrics(spans, [s for r in rounds for s in r.spaces], overhead, speed)
        wall = {}
    else:
        good_timed = sum(len(c["results"]) for c in timed if not c["failed"])
        metrics = end_to_end([at_reference_speed(c) for c in timed], good_timed,
                             [s * workloads.REFERENCE_NOMINAL_S / ref for s, ref in setups], rounds)
        wall = end_to_end([c["s"] for c in timed], good_timed, [s for s, _ in setups], rounds)
        del wall["peak_rss_mb"]

    print(f"# trace-kit bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: python {platform.python_version()}, nproc {os.cpu_count()}, usable cores "
          f"{len(usable)}, pinned to core {usable[-1]}, TRACE_KIT_THREADS={threads}, QQ={rounds[0].qq if rounds else '?'}")
    print(f"# rounds {len(rounds)}, timed calls {len(timed)}, results checked {good}, setup samples {len(setups)}")
    print(f"# reference work: median {statistics.median(refs) * 1e3:.4g} ms, nominal "
          f"{workloads.REFERENCE_NOMINAL_S * 1e3:g} ms; times below are at the nominal speed")
    print(f"# fail_frac {failed / len(calls) if calls else 1.0:.6g} ratio ({failed} of {len(calls)} calls)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    for name, (value, unit) in wall.items():
        print(f"# wall-clock {name} {value:.6g} {unit}")
    for c in calls:
        if c["failed"]:
            print(f"# FAILED {c['job']}: {c['err'] or 'wrong exact value'}")
    result = {
        "correct": failed == 0 and bool(calls),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
