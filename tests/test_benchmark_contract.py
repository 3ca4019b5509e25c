"""The benchmark's traced pass can still find every function it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench/tracer.py looks each traced function up by module and name in
# sys.modules, after importing only ehall.cli and ehall.ehallops; so a
# renamed function, or a module that those two stop importing, fails the
# traced pass with a KeyError or an AttributeError
RESOLVE_ALL = """
import ehall.cli, ehall.ehallops
import tracer
specs = [spec for specs in tracer.TRACED.values() for spec in specs]
for spec in specs:
    tracer._targets(spec)
print(len(specs))
"""


def test_traced_functions_resolve_in_a_fresh_process():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", RESOLVE_ALL], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) > 0
