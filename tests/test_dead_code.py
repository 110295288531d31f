"""Every module-level function and class of afpipe is used somewhere.

A check with ast, like test_imports. A definition counts as used when an
afpipe module reads its name (as a name or an attribute), the package
exports it (afpipe.__all__), the benchmark's tracer patches it
(bench/tracing.py), it is one of the helpers that only tests and users call
(TEST_FACING), or the interpreter calls it (the package's PEP 562 hooks).
"""

import ast
from pathlib import Path

import afpipe
from test_bench_hooks import HOOKS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "afpipe"
TEST_FACING = {"critical_path_ns", "resource_bound_ns", "trace_schema", "parse_trace_events"}
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _names_read(tree: ast.AST) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unused_definitions(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """module.name of each module-level def or class in sources that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_names_read, trees.values()))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read | exempt
    ]


def test_the_check_sees_an_unused_definition():
    sources = {
        "a": "def used():\n    pass\n\n\ndef unused():\n    used()\n\n\nclass Kept:\n    pass\n",
        "b": "from a import Kept\n\nx: Kept = None\n",
    }
    assert unused_definitions(sources, set()) == ["a.unused"]
    assert unused_definitions(sources, {"unused"}) == []


def test_every_definition_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    exempt = set(afpipe.__all__) | {attr for _, attr in HOOKS} | TEST_FACING | MODULE_HOOKS
    assert unused_definitions(sources, exempt) == []
