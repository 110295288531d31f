"""tools/stage_times.py prints one row of stage times per micro-batch count."""

import gc
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("stage_times", ROOT / "tools" / "stage_times.py")
stage_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_times)


def test_prints_each_stage_for_each_count(capsys):
    argv = ["--config", str(ROOT / "configs" / "toy.yaml"), "--repeat", "1", "2", "3"]
    assert stage_times.main(argv) == 0
    assert gc.isenabled()
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["microbatches", "tasks", *stage_times.STAGES]
    assert [row[:2] for row in rows] == [["2", "88"], ["3", "132"]]
    assert all(len(row) == len(header) and all(float(ms) >= 0 for ms in row[2:]) for row in rows)
