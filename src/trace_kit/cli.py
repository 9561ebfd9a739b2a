"""Command-line surface: trace tables, class numbers, operator dumps, and
the verification suite.  Output is deterministic and machine-readable.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 standard
output closed by its reader (128 + SIGPIPE, as in `trace ... | head -1`).
"""

import argparse
import json
import os
import sys

from .arith import QQ, validate_query
from .class_numbers import h0, hurwitz_H, precompute
from .dirichlet import CycloNum, enumerate_characters, trivial_character
from .trace_formulas import trace_atkin_full, trace_atkin_lehner, trace_hecke_cusp, trace_hecke_full

USAGE_EXIT = 2
FAIL_EXIT = 1
PIPE_EXIT = 141


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _parse_range(text):
    """'A' or 'A:B' (inclusive) -> (A, B)."""
    parts = text.split(":")
    if len(parts) == 1:
        a = int(parts[0])
        return a, a
    if len(parts) == 2:
        a, b = int(parts[0]), int(parts[1])
        if b < a:
            raise argparse.ArgumentTypeError("range end before start")
        return a, b
    raise argparse.ArgumentTypeError("ranges look like A or A:B")


def _worker_count():
    env = os.environ.get("TRACE_KIT_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError("TRACE_KIT_THREADS must be a positive integer")
        return count
    # the cores this process may run on, which a CPU mask can hold below
    # the machine's count
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return min(cores, 4)


def _resolve_char(level, label):
    if label is None:
        return trivial_character(level)
    try:
        n_str, idx_str = label.split(".")
        n, idx = int(n_str), int(idx_str)
    except ValueError:
        raise ValueError(f"bad character label {label!r}; expected N.i") from None
    if n != level:
        raise ValueError(f"character modulus {n} does not match --level {level}")
    chars = enumerate_characters(n)
    if not 0 <= idx < len(chars):
        raise ValueError(f"character index out of range; 0..{len(chars) - 1} available")
    return chars[idx]


def _resolve_query(args):
    """The character of a trace or verify oracle query, once validate_query
    has checked the whole query, so before any trace runs.  W_1 is the
    identity: --ell 1 runs the Hecke formulas, under any character."""
    chi = _resolve_char(args.level, args.char)
    validate_query(args.level, chi, args.weight, args.n[0], args.ell or 1)
    return chi


def _rational_json(q):
    return [int(q.numerator), int(q.denominator)]


def _value_json(value):
    """Exact serialization: rationals as [num,den]; cyclotomic values as
    {'order': m, 'coeffs': [[num,den],...]}."""
    if isinstance(value, CycloNum):
        if value.order == 1:
            return _rational_json(value.coeffs[0])
        return {
            "order": value.order,
            "coeffs": [_rational_json(c) for c in value.coeffs],
        }
    return _rational_json(QQ(value))


def _approx_str(value):
    z = value.approx_complex() if isinstance(value, CycloNum) else complex(float(value))
    if abs(z.imag) < 1e-12:
        return f"{z.real:.15g}"
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _emit(records, fmt, stream):
    if fmt == "json":
        stream.write(json.dumps(records, indent=None, separators=(",", ":"), sort_keys=True))
        stream.write("\n")
    elif fmt == "csv":
        if not records:
            return
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        keys = sorted(records[0])
        writer.writerow(keys)
        for rec in records:
            writer.writerow([json.dumps(rec[k], sort_keys=True) if isinstance(rec[k], (dict, list)) else rec[k] for k in keys])
    else:
        for rec in records:
            head = " ".join(
                f"{k}={rec[k]}" for k in ("level", "weight", "char", "ell", "n", "kind", "d") if k in rec and rec[k] is not None
            )
            stream.write(f"{head}  value={rec.get('exact')}  approx={rec.get('approx')}\n")


def _sweep_class_numbers(count, top):
    """Fill H(D) and h0(-D) for 0 < D <= top by one sweep when `count`
    queries reach up to top.  One sweep to top takes about top**1.5/7 steps
    and a per-D walk about |D|/12: sweep once the range holds more than
    about sqrt(top) values."""
    if count * count >= top:
        precompute(top)


# -- trace command ----------------------------------------------------------------


def _trace_one(args_tuple):
    level, weight, char_label, ell, n, space = args_tuple
    chi = _resolve_char(level, char_label)
    hecke = ell in (None, 1)  # T_n o W_1 = T_n
    res = None
    if space == "full":
        if hecke:
            val = trace_hecke_full(level, chi, weight, n)
        else:
            val = CycloNum.from_rational(trace_atkin_full(level, ell, weight, n))
    else:
        res = trace_hecke_cusp(level, chi, weight, n) if hecke else trace_atkin_lehner(level, ell, weight, n)
        val = res.value
    record = {
        "level": level,
        "weight": weight,
        "char": chi.label(),
        "ell": ell,
        "n": n,
        "space": space,
        "exact": _value_json(val),
        "approx": _approx_str(val),
        "breakdown": {part: _value_json(getattr(res, part)) for part in ("elliptic", "hyperbolic", "correction")} if res else {},
    }
    if res and res.warning:
        record["warning"] = res.warning
    return record


def cmd_trace(args):
    # validate once in the parent, before the pool forks; workers then
    # re-resolve from cached tables
    _resolve_query(args)
    lo, hi = args.n
    # a trace of T_n composed with W_ell reads H and h0 at |D| <= 4*ell*n;
    # the sweep runs before the workers fork, so they share its tables
    _sweep_class_numbers(hi - lo + 1, 4 * (args.ell or 1) * hi)
    jobs = [
        (args.level, args.weight, args.char, args.ell, n, args.space)
        for n in range(lo, hi + 1)
    ]
    workers = _worker_count()
    if workers > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(workers) as pool:
            records = list(pool.imap(_trace_one, jobs))
    else:
        records = [_trace_one(j) for j in jobs]
    _emit(records, args.format, sys.stdout)
    return 0


# -- classnum command ---------------------------------------------------------------


def cmd_classnum(args):
    lo, hi = args.d
    # H(D) walks for D > 0 and h0(D) for D < 0
    _sweep_class_numbers(hi - lo + 1, hi if args.kind == "H" else -lo)
    fn = hurwitz_H if args.kind == "H" else h0
    records = []
    for D in range(lo, hi + 1):
        v = fn(D)
        records.append(
            {
                "kind": args.kind,
                "d": D,
                "exact": _rational_json(v),
                "approx": f"{float(v):.15g}",
            }
        )
    _emit(records, args.format, sys.stdout)
    return 0


# -- verify command -----------------------------------------------------------------


def cmd_verify(args):
    from .hecke_operator import build_Tn, operator_json_entries, verify_operator
    from .period_oracle import atkin_coset_desc, hecke_coset_desc, trace_on_W

    if args.target == "heckeop":
        lo, hi = args.n
        if args.dump_operator and lo != hi:
            raise ValueError("--dump-operator needs a single n")
        all_ok = True
        for n in range(lo, hi + 1):
            rep = verify_operator(n)
            ok = rep["ok"]
            all_ok = all_ok and ok
            print(
                f"n={n} transfer={'pass' if rep['transfer'] else 'FAIL'} "
                f"exchange={'pass' if rep['exchange'] else 'FAIL'} "
                f"class_sums={'pass' if rep['class_sums'] else 'FAIL'} "
                f"variants_agree={'pass' if rep['variants_agree'] else 'FAIL'}"
            )
            if not ok:
                for key in ("transfer_witness", "exchange_witness", "class_witnesses"):
                    if rep.get(key):
                        print(f"  witness {key}: {rep[key]}")
        if args.dump_operator:
            with open(args.dump_operator, "w") as fh:
                json.dump(operator_json_entries(build_Tn(lo)), fh, separators=(",", ":"))
                fh.write("\n")
        return 0 if all_ok else FAIL_EXIT

    if args.target == "oracle":
        chi = _resolve_query(args)
        lo, hi = args.n
        all_ok = True
        for n in range(lo, hi + 1):
            if args.ell not in (None, 1):
                closed = CycloNum.from_rational(trace_atkin_full(args.level, args.ell, args.weight, n))
                sigma = atkin_coset_desc(args.level, args.ell, n)
                op = build_Tn(n * args.ell)
            else:
                closed = trace_hecke_full(args.level, chi, args.weight, n)
                sigma = hecke_coset_desc(args.level, n)
                op = build_Tn(n)
            oracle = trace_on_W(args.level, chi, args.weight - 2, sigma, op)
            ok = closed == oracle
            all_ok = all_ok and ok
            print(f"n={n} closed={_approx_str(closed)} oracle={_approx_str(oracle)} {'pass' if ok else 'FAIL'}")
        return 0 if all_ok else FAIL_EXIT

    # suite
    from .verification import run_suite

    ok = run_suite(quick=args.quick)
    return 0 if ok else FAIL_EXIT


# -- parser ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trace-kit",
        description=(
            "Exact traces of Hecke and Atkin-Lehner operators on modular-form "
            "spaces for the level-N congruence group, with built-in cross-verification."
        ),
        epilog=(
            "Characters are labelled N.i with i the index in the canonical "
            "lexicographic enumeration of characters mod N (N.0 is trivial). "
            "TRACE_KIT_THREADS bounds the worker pool for range queries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("trace", help="trace tables for Hecke / composed operators")
    p_tr.add_argument("--level", type=_positive_int, required=True)
    p_tr.add_argument("--weight", type=_positive_int, required=True)
    p_tr.add_argument("--char", help="character label N.i (default: trivial)")
    p_tr.add_argument("--ell", type=_positive_int, help="exact divisor for the composed operator")
    p_tr.add_argument("--n", type=_parse_range, required=True, metavar="A[:B]")
    p_tr.add_argument("--space", choices=("cusp", "full"), default="cusp")
    p_tr.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_tr.set_defaults(func=cmd_trace)

    p_cn = sub.add_parser("classnum", help="Hurwitz / primitive weighted class numbers")
    p_cn.add_argument("--kind", choices=("H", "h0"), required=True)
    p_cn.add_argument("--d", type=_parse_range, required=True, metavar="A[:B]")
    p_cn.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_cn.set_defaults(func=cmd_classnum)

    p_vf = sub.add_parser("verify", help="verification suites")
    vf_sub = p_vf.add_subparsers(dest="target", required=True)

    p_hk = vf_sub.add_parser("heckeop", help="group-ring operator property battery")
    p_hk.add_argument("--n", type=_parse_range, required=True, metavar="A[:B]")
    p_hk.add_argument("--dump-operator", metavar="FILE", help="write the operator support as JSON (single n)")
    p_hk.set_defaults(func=cmd_verify)

    p_or = vf_sub.add_parser("oracle", help="closed formulas vs period-space traces")
    p_or.add_argument("--level", type=_positive_int, required=True)
    p_or.add_argument("--weight", type=_positive_int, required=True)
    p_or.add_argument("--char", help="character label N.i")
    p_or.add_argument("--ell", type=_positive_int)
    p_or.add_argument("--n", type=_parse_range, required=True, metavar="A[:B]")
    p_or.set_defaults(func=cmd_verify)

    p_st = vf_sub.add_parser("suite", help="the full acceptance battery")
    p_st.add_argument("--quick", action="store_true", help="reduced grids")
    p_st.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    """Run one command and return its exit code; every usage error, from
    argparse, from the checks here or a ValueError from the library, prints
    to stderr and returns USAGE_EXIT.  A standard output closed by its
    reader prints nothing and returns PIPE_EXIT."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (code 2) or the help (code 0)
        return exc.code
    try:
        code = args.func(args)
        # flush here, so that a closed pipe raises below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the flush at exit
        # cannot fail again (the recipe of the Python docs' note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return PIPE_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
