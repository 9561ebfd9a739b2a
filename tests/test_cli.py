import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trace_kit.arith import validate_query
from trace_kit.cli import _worker_count, main
from trace_kit.dirichlet import enumerate_characters, trivial_character
from trace_kit.hecke_operator import build_Tn, build_Tn_infty
from trace_kit.period_oracle import atkin_coset_desc, trace_coboundary, trace_on_W


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_single(capsys):
    code, out, _ = run_cli(capsys, "trace", "--level", "1", "--weight", "12", "--n", "2")
    assert code == 0
    assert "value=[-24, 1]" in out


def test_trace_level4_weight2(capsys):
    code, out, _ = run_cli(capsys, "trace", "--level", "4", "--weight", "2", "--n", "1")
    assert code == 0
    assert "value=[0, 1]" in out


def test_trace_range_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace", "--level", "1", "--weight", "12", "--n", "1:5",
        "--space", "full", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["exact"] for r in records[:2]] == [[3, 1], [2001, 1]]
    assert [r["n"] for r in records] == [1, 2, 3, 4, 5]


def test_trace_char_label_and_parity_warning(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace", "--level", "5", "--weight", "3", "--char", "5.0", "--n", "1",
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["exact"] == [0, 1] and "warning" in rec


def test_trace_char_validation(capsys):
    code, out, err = run_cli(capsys, "trace", "--level", "5", "--weight", "4", "--char", "7.0", "--n", "1")
    assert code == 2 and not out
    assert err == "error: character modulus 7 does not match --level 5\n"


def test_usage_error_exit_code(capsys):
    # argparse's own usage errors are returned, not raised
    code, out, err = run_cli(capsys, "trace", "--level", "1", "--n", "oops")
    assert code == 2 and not out
    assert err.startswith("usage: trace-kit trace ") and err.endswith("trace-kit trace: error: argument --n: invalid _parse_range value: 'oops'\n")


@pytest.mark.parametrize(
    "extra",
    [
        ("--level", "1", "--weight", "12", "--space", "full", "--n", "0"),
        ("--level", "1", "--weight", "12", "--n", "0"),
        ("--level", "6", "--weight", "4", "--ell", "2", "--n", "0"),
        ("--level", "6", "--weight", "4", "--ell", "2", "--space", "full", "--n", "0"),
        ("--level", "4", "--weight", "4", "--ell", "2", "--n", "1"),
    ],
)
def test_trace_rejects_bad_input(capsys, extra):
    code, out, err = run_cli(capsys, "trace", *extra)
    assert code == 2 and not out and err.startswith("error:")


def test_classnum(capsys):
    code, out, _ = run_cli(capsys, "classnum", "--kind", "H", "--d", "0")
    assert code == 0 and "value=[-1, 12]" in out
    code, out, _ = run_cli(capsys, "classnum", "--kind", "H", "--d", "23")
    assert "value=[3, 1]" in out
    code, out, _ = run_cli(capsys, "classnum", "--kind", "h0", "--d", "4")
    assert "value=[-1, 2]" in out


def test_classnum_range_matches_per_d_values(capsys, empty_class_tables):
    # a range is filled by one sweep to its top |D|; every value equals the
    # per-D walk's
    import trace_kit.class_numbers as cn

    for kind, fn, top in (("H", cn.hurwitz_H, 300), ("h0", cn.h0, 400)):
        empty_class_tables()
        code, out, _ = run_cli(capsys, "classnum", "--kind", kind, "--d=-400:300", "--format", "json")
        assert code == 0
        assert len(cn._twelve_h) == len(cn._prim) == top + 1
        records = json.loads(out)
        assert [r["d"] for r in records] == list(range(-400, 301))
        empty_class_tables()
        for r in records:
            v = fn(r["d"])
            assert r["exact"] == [v.numerator, v.denominator], r


def test_trace_range_matches_per_n_values(capsys, empty_class_tables):
    # a range fills H and h0 up to 4*ell*n by one sweep; every value equals
    # the one computed per n from per-D walks
    import trace_kit.class_numbers as cn
    from trace_kit.cli import _value_json
    from trace_kit.trace_formulas import trace_atkin_lehner, trace_hecke_cusp

    for argv, ell, per_n in (
        (("--level", "1", "--weight", "12"), 1, lambda n: trace_hecke_cusp(1, trivial_character(1), 12, n)),
        (("--level", "13", "--weight", "2", "--char", "13.2"), 1,
         lambda n: trace_hecke_cusp(13, enumerate_characters(13)[2], 2, n)),
        (("--level", "6", "--weight", "4", "--ell", "2"), 2, lambda n: trace_atkin_lehner(6, 2, 4, n)),
    ):
        empty_class_tables()
        code, out, _ = run_cli(capsys, "trace", *argv, "--n", "1:60", "--format", "json")
        assert code == 0
        # the sweep covers every D up to the top, and no further
        assert len(cn._twelve_h) == len(cn._prim) == 4 * ell * 60 + 1
        empty_class_tables()
        records = json.loads(out)
        assert [r["n"] for r in records] == list(range(1, 61))
        for r in records:
            assert r["exact"] == _value_json(per_n(r["n"]).value), (argv, r["n"])


def test_classnum_cache_file_is_rejected(capsys):
    code, out, err = run_cli(capsys, "classnum", "--kind", "H", "--d", "1:5", "--cache-file", "x")
    assert code == 2 and not out and "unrecognized arguments: --cache-file x" in err


def test_output_determinism(capsys):
    args = ("trace", "--level", "6", "--weight", "4", "--n", "1:4", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--level", "1", "--weight", "12", "--n", "1:2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("approx")


def test_verify_heckeop(capsys):
    code, out, _ = run_cli(capsys, "verify", "heckeop", "--n", "1:3")
    assert code == 0
    assert out.count("transfer=pass") == 3


def test_verify_heckeop_dump(tmp_path, capsys):
    path = tmp_path / "op.json"
    code, out, _ = run_cli(capsys, "verify", "heckeop", "--n", "1", "--dump-operator", str(path))
    assert code == 0
    rows = json.loads(path.read_text())
    assert {"a": 1, "b": 0, "c": 0, "d": 1, "num": 1, "den": 6} in rows
    assert rows == sorted(rows, key=lambda r: (r["a"], r["b"], r["c"], r["d"]))
    # range + dump is a usage error
    code, out, err = run_cli(capsys, "verify", "heckeop", "--n", "1:2", "--dump-operator", str(path))
    assert code == 2
    assert err == "error: --dump-operator needs a single n\n" and not out


@pytest.mark.parametrize("command", [("trace",), ("verify", "oracle")])
def test_composed_queries_are_checked_alike(capsys, command):
    # trace, verify oracle, the period traces and validate_query reject the
    # same composed queries the same way
    for (level, weight, ci, ell), message in (
        ((6, 3, 0, 2), "the composed operator needs even weight"),
        ((5, 4, 2, 5), "the composed operator is defined for the trivial character only"),
    ):
        extra = ("--level", str(level), "--weight", str(weight), *(("--char", f"{level}.{ci}") if ci else ()), "--ell", str(ell))
        code, out, err = run_cli(capsys, *command, *extra, "--n", "1")
        assert code == 2
        assert err == f"error: {message}\n" and not out
        chi = enumerate_characters(level)[ci]
        with pytest.raises(ValueError) as exc:
            validate_query(level, chi, weight, 1, ell)
        assert str(exc.value) == message
        sigma = atkin_coset_desc(level, ell, 1)
        for trace, op in ((trace_on_W, build_Tn(ell)), (trace_coboundary, build_Tn_infty(ell))):
            with pytest.raises(ValueError) as exc:
                trace(level, chi, weight - 2, sigma, op)
            assert str(exc.value) == message, trace
    code, out, err = run_cli(capsys, *command, "--level", "4", "--weight", "4", "--ell", "2", "--n", "1")
    assert code == 2 and not out and err.startswith("error: ell must be an exact divisor")


def test_ell_one_is_the_hecke_query(capsys):
    # W_1 is the identity: --ell 1 gives the Hecke traces under any
    # character, and the record keeps ell = 1
    for space in ("cusp", "full"):
        query = ("--level", "5", "--weight", "4", "--char", "5.2", "--space", space, "--n", "1:3", "--format", "json")
        code, out, _ = run_cli(capsys, "trace", *query)
        assert code == 0
        hecke = json.loads(out)
        code, out, _ = run_cli(capsys, "trace", *query, "--ell", "1")
        assert code == 0
        records = json.loads(out)
        assert [r.pop("ell") for r in records] == [1, 1, 1]
        assert records == [{k: v for k, v in r.items() if k != "ell"} for r in hecke]
    code, out, _ = run_cli(capsys, "verify", "oracle", "--level", "5", "--weight", "4", "--char", "5.2", "--ell", "1", "--n", "1:3")
    assert code == 0 and out.count("pass") == 3


def test_verify_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "oracle", "--level", "1", "--weight", "12", "--n", "1:3"
    )
    assert code == 0
    assert out.count("pass") == 3


def test_verify_suite_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "suite", "--quick")
    assert code == 0
    assert out.count(" PASS ") == 10
    # each criterion reports the grid it ran, the reduced one here
    assert "period coboundary on N<=4 k<=6 n<=4;" in out


def test_verify_oracle_atkin(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "oracle", "--level", "6", "--weight", "4", "--ell", "2", "--n", "1:2",
    )
    assert code == 0


def test_worker_env(capsys, monkeypatch):
    monkeypatch.setenv("TRACE_KIT_THREADS", "2")
    args = ("trace", "--level", "1", "--weight", "12", "--n", "1:6", "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    monkeypatch.setenv("TRACE_KIT_THREADS", "1")
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_worker_default_follows_the_cpu_mask(monkeypatch):
    monkeypatch.delenv("TRACE_KIT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    assert _worker_count() == 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count() == 4


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_worker_env_rejects_bad_values(capsys, monkeypatch, value):
    monkeypatch.setenv("TRACE_KIT_THREADS", value)
    code, out, err = run_cli(capsys, "trace", "--level", "1", "--weight", "12", "--n", "1:2")
    assert code == 2 and not out
    assert err == "error: TRACE_KIT_THREADS must be a positive integer\n"


# 3 records stay in the stdout buffer until main flushes it; 100 records
# overflow it, so the write itself meets the closed pipe
@pytest.mark.parametrize("n", ["1:3", "1:100"])
def test_closed_stdout_pipe_exits_quietly(n):
    # the reader has closed its end before the command writes, as `| head -1`
    # does once it has its line: no error line, and exit 128 + SIGPIPE
    env = dict(os.environ, TRACE_KIT_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trace_kit.cli", "trace", "--level", "11", "--weight", "2", "--n", n, "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
