"""The benchmark's span tracer binds trace_kit names from outside the package.

A renamed or re-wrapped function (a memo table swapped for another, a
helper moved between modules) breaks `Tracer().install()` or a traced call;
this test finds that in seconds instead of in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

tracer = Tracer()
tracer.install()
import trace_kit
from trace_kit.hecke_operator import build_Tn

value = trace_kit.trace_on_W(1, trace_kit.trivial_character(1), 10, trace_kit.hecke_coset_desc(1, 2), build_Tn(2))
assert value == 2001, value
# build_Tn does not walk the reference box; walk it once through the module
# attribute, where the tracer binds its candidate counter
assert len(list(trace_kit.hecke_operator.det_matrices(2, 6))) > 0
tracer.finish(sys.argv[2])
"""


def test_tracer_installs_and_traces_a_period_call(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["counts"].get("period_oracle.trace_on_W") == 1
    assert data["counts"].get("period_oracle.sigma_block_map", 0) > 0
    assert data["candidates"] > 0
    assert data["support"] > 0
