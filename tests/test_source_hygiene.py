"""Source hygiene of the package: no module-level import goes unused."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ehall"


def _unused_imports(path):
    """(line, name) for each name a module-level import binds and the
    module never reads, except on lines marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append((node.lineno, name))
    return out


def test_no_unused_module_imports():
    found = {path.name: _unused_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, sys\n"
                      "from math import gcd  # noqa: F401\n"
                      "from .symfun import SymFun, s_\n\n"
                      "def f(x: SymFun):\n    return os.sep\n")
    assert _unused_imports(module) == [(2, "sys"), (4, "s_")]
