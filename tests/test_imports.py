"""No afpipe module imports a name it never uses.

A module-level check with ast, since no linter is a test dependency. An
import the benchmark's tracer patches (bench/tracing.py's _PATCHES) is used
through that module attribute, so those (module, name) pairs are exempt.
"""

import ast
from pathlib import Path

import pytest

from test_bench_hooks import _tracer_patches

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "afpipe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PATCHED = {(module, attr) for module, attr, _, _ in _tracer_patches()}


def unused_imports(source: str) -> list[str]:
    """Names source binds by import (from __future__ aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a.b import c as d, e\n"
        "sys.exit(e)\n"
    )
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unused if (path.stem, name) not in PATCHED] == []
