"""What the package loads and the form its source keeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trace_kit

SRC = Path(__file__).resolve().parents[1] / "src"

# a trace command needs none of these: the stdlib modules that dataclasses
# and the csv writer would load, and the matrix layer, which only the
# direct-enumeration cusp oracle and the period side use
NOT_FOR_TRACE = ("dataclasses", "inspect", "csv", "trace_kit.matrix_forms")
# nor the period side or the suite, which the package puts in sys.modules
# with their code not yet run
NOT_RUN_FOR_TRACE = ("trace_kit.hecke_operator", "trace_kit.period_oracle", "trace_kit.verification")

IMPORT_SCRIPT = """
import sys
import trace_kit.cli

def ran(name):
    # the module's own namespace, read without the attribute access that
    # would run its code; running it sets __builtins__
    return name in sys.modules and "__builtins__" in object.__getattribute__(sys.modules[name], "__dict__")

def seen():
    return {name for name in NOT_FOR_TRACE if name in sys.modules} | {name for name in NOT_RUN_FOR_TRACE if ran(name)}

loaded = seen()
codes = []
# the cusp space, the full space and the composed operator
for extra in ([], ["--space", "full"], ["--level", "6", "--ell", "2"]):
    codes.append(trace_kit.cli.main(["trace", "--level", "11", "--weight", "2", "--n", "1:3", "--format", "json", *extra]))
    loaded |= seen()
print(codes, sorted(loaded), file=sys.stderr)
"""


def _run_script(script):
    # -S skips site-packages hooks, which could load any of these first
    env = dict(os.environ, TRACE_KIT_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=120)


def test_trace_imports_no_verification_dataclasses_or_csv():
    proc = _run_script(f"NOT_FOR_TRACE = {NOT_FOR_TRACE!r}\nNOT_RUN_FOR_TRACE = {NOT_RUN_FOR_TRACE!r}\n{IMPORT_SCRIPT}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('[{"approx":"1",')
    assert proc.stderr == "[0, 0, 0] []\n"


def test_period_modules_are_in_sys_modules_after_importing_cli():
    # bench/tracer.py reads sys.modules["trace_kit.hecke_operator"] and
    # ["trace_kit.period_oracle"] right after `import trace_kit.cli`
    proc = _run_script(
        "import sys, trace_kit.cli\n"
        "print(all(f'trace_kit.{name}' in sys.modules for name in ('hecke_operator', 'period_oracle')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_every_public_name_is_its_defining_modules_object():
    namespace = {}
    exec("from trace_kit import *", namespace)
    listed = dir(trace_kit)
    for name in trace_kit.__all__:
        obj = getattr(trace_kit, name)
        # QQ is fractions.Fraction, found in fractions under its own name
        assert getattr(sys.modules[obj.__module__], obj.__name__) is obj, name
        assert name in listed and namespace[name] is obj, name


def test_run_suite_is_loaded_on_first_access():
    from trace_kit import run_suite
    from trace_kit.verification import run_suite as suite

    assert trace_kit.run_suite is suite and run_suite is suite


def test_no_assert_in_src():
    # python -O strips asserts, so checks in the library raise instead
    found = []
    for path in sorted((SRC / "trace_kit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found
