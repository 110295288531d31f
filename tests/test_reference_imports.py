"""The scan reference computes its metrics without the code it checks.

A check with ast, like test_imports: tests/scan_scheduler.py may import
from afpipe.sim only the names below. In particular it measures exposed
communication with its own sweep, so a change that routed it back through
sim.exposed_comm would make the reference agree with any defect there.
"""

import ast
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "scan_scheduler.py"
ALLOWED = ["_COMPONENT_RANK", "CycleDetected", "ScheduleTrace", "SimResult", "TraceEvent",
           "_check_keys", "seconds"]


def names_from(source: str, module: str) -> list[str]:
    """The names source imports from module, in order, by either import form."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            names += [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name == module]
    return names


def test_the_check_sees_both_import_forms():
    source = "import afpipe.sim\nfrom afpipe.sim import a, b as c\nfrom afpipe import sim\n"
    assert names_from(source, "afpipe.sim") == ["afpipe.sim", "a", "b"]


def test_the_scan_reference_imports_only_its_pinned_names_from_sim():
    source = REFERENCE.read_text(encoding="utf-8")
    assert names_from(source, "afpipe.sim") == ALLOWED
    assert "sim" not in names_from(source, "afpipe")
