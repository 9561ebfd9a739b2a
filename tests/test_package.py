"""What the package loads and the form its source keeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trace_kit

SRC = Path(__file__).resolve().parents[1] / "src"

# a trace command needs none of these: the verification suite, and the
# stdlib modules that dataclasses and the csv writer would load
NOT_FOR_TRACE = ("dataclasses", "inspect", "csv", "trace_kit.verification")

IMPORT_SCRIPT = """
import sys
import trace_kit.cli
loaded = {name for name in NOT_FOR_TRACE if name in sys.modules}
code = trace_kit.cli.main(["trace", "--level", "11", "--weight", "2", "--n", "1:3", "--format", "json"])
loaded |= {name for name in NOT_FOR_TRACE if name in sys.modules}
print(code, sorted(loaded), file=sys.stderr)
"""


def test_trace_imports_no_verification_dataclasses_or_csv():
    # -S skips site-packages hooks, which could load any of these first
    env = dict(os.environ, TRACE_KIT_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = f"NOT_FOR_TRACE = {NOT_FOR_TRACE!r}\n{IMPORT_SCRIPT}"
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('[{"approx":"1",')
    assert proc.stderr == "0 []\n"


def test_run_suite_is_loaded_on_first_access():
    from trace_kit import run_suite
    from trace_kit.verification import run_suite as suite

    assert trace_kit.run_suite is suite and run_suite is suite
    assert "run_suite" in trace_kit.__all__ and "run_suite" in dir(trace_kit)
    namespace = {}
    exec("from trace_kit import *", namespace)
    assert namespace["run_suite"] is suite


def test_no_assert_in_src():
    # python -O strips asserts, so checks in the library raise instead
    found = []
    for path in sorted((SRC / "trace_kit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found
