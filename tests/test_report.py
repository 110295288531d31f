"""report: speedups between schedules and the memory warnings of a run report."""

import json
import os

from afpipe.cli import main
from afpipe.placement import ATTN, FFN
from afpipe.report import speedup
from afpipe.sim import SimResult

TOY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "configs", "toy.yaml")


def _result(iteration_time):
    return SimResult(iteration_time, 0.0, 0.0, 0.0, 0.0, {})


def test_speedup_over_a_zero_iteration_time():
    assert speedup(_result(2.0), _result(1.0)) == 2.0
    assert speedup(_result(2.0), _result(0.0)) == float("inf")
    assert speedup(_result(0.0), _result(0.0)) == 1.0


def test_a_side_over_its_memory_capacity_warns_in_stdout_and_the_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", TOY, "--mem-cap", "1", "--out", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("warning: ")]
    report = json.loads(out.read_text())
    memory = report["memory"]
    assert sorted(memory) == sorted((ATTN, FFN))
    assert all(entry["oom"] and entry["capacity"] == 1.0 for entry in memory.values())
    expected = [f"memory estimate for the {side} side exceeds capacity "
                f"({memory[side]['total']:.3e} > 1.000e+00 bytes)" for side in (ATTN, FFN)]
    assert report["warnings"] == expected
    assert printed == [f"warning: {warning}" for warning in expected]
