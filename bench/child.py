"""One round of the trace-kit benchmark, in a fresh process.

    child.py round WORKLOAD SEED ROUND DEADLINE [--jobs M] [--trace DIR] [--setup-only]
    child.py cli SPANFILE ARG...

`round` imports trace_kit, builds the round's inputs, prints `READY <QQ
backend>` (the end of set-up), then runs the timed calls in a closed loop
until the monotonic-clock DEADLINE passes (at least one call) or M calls
are done.  The reference work (workloads.reference_s) is timed before each
call and once after the last.  The last line of its output is a JSON
object with one entry per call: duration, the reference time before it,
whether it completed, and a digest plus exact value per result; the final
reference time; and the round's peak resident memory.  With --trace the
library calls run under the span tracer; on table-scan each CLI command
then runs in-process through `cli`.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _import_trace_kit():
    import trace_kit
    import trace_kit.cli  # noqa: F401

    src = HERE.parent / "src"
    if Path(trace_kit.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"trace_kit imported from {trace_kit.__file__}, not from {src}")
    return trace_kit


def _table_run(job, trace_dir, tag):
    """One CLI command; returns its standard output."""
    _, argv, _, _ = job
    cmd = [sys.executable]
    if trace_dir:
        cmd += [str(HERE / "child.py"), "cli", str(Path(trace_dir) / f"cmd{tag}.json")]
    else:
        cmd += ["-m", "trace_kit.cli"]
    proc = subprocess.run(cmd + ["trace", *argv, "--format", "json"], capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def _table_results(job, stdout):
    tid, _, a, b = job
    records = json.loads(stdout)
    if [r["n"] for r in records] != list(range(a, b + 1)):
        raise RuntimeError("records do not cover the requested range")
    return [(f"{tid}:{r['n']}", workloads.digest(workloads.record_exact(r)), r["exact"]) for r in records]


def _value_results(job, value):
    exact = workloads.exact_value(value)
    return [(workloads.job_key(job), workloads.digest(exact), exact)]


class _Oracle:
    """Closed formula against the period-space trace, one comparison per call.

    The first comparison on a space starts with dim_period_space, so that
    the elimination shows as its own span; kept dimensions are recorded."""

    def __init__(self, tk):
        self.tk = tk
        self.seen = set()
        self.spaces = []

    def call(self, job):
        tk = self.tk
        kind, N, x, k, n = job
        chi = tk.enumerate_characters(N)[x if kind == "full" else 0]
        space = (N, chi.label(), k)
        if space not in self.seen:
            self.seen.add(space)
            self.spaces.append([tk.dim_period_space(N, chi, k - 2), tk.index_phi1(N) * (k - 1)])
        if kind == "full":
            closed = tk.trace_hecke_full(N, chi, k, n)
            sigma, op = tk.hecke_coset_desc(N, n), tk.build_Tn(n)
        else:
            closed = tk.CycloNum.from_rational(tk.trace_atkin_full(N, x, k, n))
            sigma, op = tk.atkin_coset_desc(N, x, n), tk.build_Tn(n * x)
        period = tk.trace_on_W(N, chi, k - 2, sigma, op)
        if closed != period:
            raise ArithmeticError(f"closed {closed!r} != period {period!r}")
        return closed


def run_round(workload, seed, round_index, deadline, max_jobs, trace_dir, setup_only):
    tk = _import_trace_kit()
    jobs = workloads.jobs(workload, seed, round_index)[:max_jobs]
    tracer = None
    if trace_dir and workload != "table-scan":
        tracer = Tracer()
        tracer.install()
    oracle = _Oracle(tk)
    print(f"READY {tk.QQ.__module__}.{tk.QQ.__name__}", flush=True)
    if setup_only:
        return
    describe = _table_results if workload == "table-scan" else _value_results
    calls = []
    for i, job in enumerate(jobs):
        if calls and time.monotonic() >= deadline:
            break
        err, results = None, []
        ref = workloads.reference_s()
        t0 = time.perf_counter()
        try:
            if workload == "table-scan":
                out = _table_run(job, trace_dir, f"{round_index}-{i}")
            elif workload == "single-large":
                _, N, k, n = job
                out = tk.trace_hecke_cusp(N, tk.trivial_character(N), k, n).value
            else:
                out = oracle.call(job)
            dt = time.perf_counter() - t0
            results = describe(job, out)
        except Exception as exc:  # a failed call is counted, not fatal
            dt = time.perf_counter() - t0
            err = f"{type(exc).__name__}: {exc}"
        key = f"{job[0]}:{job[2]}:{job[3]}" if workload == "table-scan" else workloads.job_key(job)
        calls.append({"job": key, "s": dt, "ref": ref, "err": err, "results": results})
    if tracer:
        tracer.finish(str(Path(trace_dir) / f"round{round_index}.json"))
    # the largest process of the round: this one, or a CLI command it waited for
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {"calls": calls, "ref_end": workloads.reference_s(), "spaces": oracle.spaces, "peak_kb": peak_kb}
    print(json.dumps(out, separators=(",", ":")))


def run_cli(span_file, argv):
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["trace_kit.cli"]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.finish(span_file)
    sys.stdout.flush()
    return code


def main(argv):
    if argv[0] == "cli":
        _import_trace_kit()
        return run_cli(argv[1], argv[2:])
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("round",))
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("round_index", type=int)
    ap.add_argument("deadline", type=float, help="time.monotonic() value; 'inf' for none")
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--trace", metavar="DIR")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    run_round(args.workload, args.seed, args.round_index, args.deadline, args.jobs, args.trace, args.setup_only)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
