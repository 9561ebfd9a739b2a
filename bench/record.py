"""Record bench/expected.json: a digest of the exact output for every input
any seed can choose, so that a run checks each result it produces.

    PYTHONPATH=src python3 bench/record.py [COMMIT]

Run it only on a commit whose outputs are trusted; it cross-checks what it
records against the independent identities (tau(n), the genus of X_0(N),
closed == period for every oracle input) and refuses to write on a
mismatch.  Takes a few minutes on two cores.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402


def record_table():
    env = dict(os.environ, TRACE_KIT_THREADS=str(len(os.sched_getaffinity(0))))
    tau = w.tau_table(w.TABLE_MAX_N)
    out = {}
    for tid, args, length in w.TABLE_TEMPLATES:
        top = length + w.TABLE_JITTER
        cmd = [sys.executable, "-m", "trace_kit.cli", "trace", *args, "--n", f"1:{top}", "--format", "json"]
        records = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True, env=env).stdout)
        if tid == w.TAU_TEMPLATE and any(r["exact"] != [tau[r["n"]], 1] for r in records):
            raise SystemExit(f"{tid}: trace differs from tau(n)")
        out[tid] = "".join(w.digest(w.record_exact(r)) for r in records)
        print(tid, len(records), file=sys.stderr)
    return out


def record_large(tk):
    out = {}
    keys = [("cusp", 1, 12, n) for n in w.LARGE_INDEX_POOL]
    keys += [("cusp", N, 2, n) for N in w.LARGE_LEVEL_POOL for n in w.LEVEL_SQUARE_N + w.LEVEL_NONSQUARE_N]
    for job in keys:
        _, N, k, n = job
        value = w.exact_value(tk.trace_hecke_cusp(N, tk.trivial_character(N), k, n).value)
        if (k, n) == (2, 1) and value != [1, [[w.genus_x0(N), 1]]]:
            raise SystemExit(f"{job}: trace of T_1 differs from the genus")
        out[w.job_key(job)] = w.digest(value)
        print(job, file=sys.stderr)
    return out


def record_oracle(tk):
    out = {}
    jobs = [("full", N, ci, k, n) for N, ci, k in w.ORACLE_SPACES for n in range(1, w.ORACLE_MAX_N + 1)]
    jobs += [("atkin", N, ell, k, n) for N, ell, k in w.ATKIN_SPACES for n in range(1, w.ORACLE_MAX_N // ell + 1)]
    for job in jobs:
        kind, N, x, k, n = job
        if kind == "full":
            chi = tk.enumerate_characters(N)[x]
            closed = tk.trace_hecke_full(N, chi, k, n)
            period = tk.trace_on_W(N, chi, k - 2, tk.hecke_coset_desc(N, n), tk.build_Tn(n))
        else:
            closed = tk.CycloNum.from_rational(tk.trace_atkin_full(N, x, k, n))
            period = tk.trace_on_W(N, tk.trivial_character(N), k - 2, tk.atkin_coset_desc(N, x, n), tk.build_Tn(n * x))
        if closed != period:
            raise SystemExit(f"{job}: closed and period traces differ")
        out[w.job_key(job)] = w.digest(w.exact_value(closed))
    print("oracle", len(jobs), file=sys.stderr)
    return out


def main():
    import trace_kit as tk

    data = {
        "recorded_at": sys.argv[1] if len(sys.argv) > 1 else "unknown",
        "table-scan": record_table(),
        "single-large": record_large(tk),
        "oracle-verify": record_oracle(tk),
    }
    with open(HERE / "expected.json", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
