"""The benchmark's traced pass can still find every function it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench/tracer.py looks each traced function up by module and name in
# sys.modules, after importing only ehall.cli and ehall.ehallops; so a
# renamed function, or a module that those two stop importing, fails the
# traced pass with a KeyError or an AttributeError.  Its gauges read
# ehallops._apply_memo, symfun's lru_caches and eigenbasis.cache_info()
RESOLVE_ALL = """
import ehall.cli, ehall.ehallops
import tracer
specs = [spec for specs in tracer.TRACED.values() for spec in specs]
for spec in specs:
    tracer._targets(spec)
gauges = tracer.gauges(tracer.Tracer(), {"macdonald.eigenbasis": ehall.macdonald.eigenbasis})
assert sorted(gauges) == sorted(set(tracer.GAUGES) - {"trace.overhead_s"}), gauges
print(len(specs))
"""


def test_traced_functions_resolve_in_a_fresh_process():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", RESOLVE_ALL], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) > 0


# the benchmark's set-up probe imports these four modules in a fresh process
# and times it: importing them must load no test-only library and fill no
# cache, so that set-up time is the import alone
IMPORT_ONLY = """
import json, sys
from ehall import checks, cli, ctengine, rectcomb
from ehall import ehallops, macdonald
filled = {}
for name, mod in list(sys.modules.items()):
    if name == "ehall" or name.startswith("ehall."):
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)):
                filled[f"{name}.{attr}"] = obj.cache_info().currsize
print(json.dumps({
    "libs": sorted(n for n in sys.modules if n.split(".")[0] in ("sympy", "hypothesis")),
    "caches": filled,
    "memos": [len(macdonald._columns), len(ehallops._apply_memo)],
}))
"""


def test_importing_the_probe_modules_does_no_work():
    import json

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", IMPORT_ONLY], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["libs"] == []
    assert len(got["caches"]) > 10 and not any(got["caches"].values()), got["caches"]
    assert got["memos"] == [0, 0]
