#!/usr/bin/env python3
"""Median wall ms of each stage of an afpipe simulate --trace, per micro-batch count.

    python3 tools/stage_times.py [--config PATH] [--repeat N] COUNT [COUNT ...]

For each micro-batch COUNT, the afpipe schedule of the experiment in PATH
(default configs/deepseek_moe.yaml) with that many micro-batches, at the
analytic default split, is taken through each stage N times (default 7)
with the cyclic collector off. One row per COUNT gives the task count and
each stage's median wall ms:

    parse     config.load_experiment of PATH
    build     taskgraph.build_task_graph
    plan      sim.SchedulePlan of the graph's walk
    run       SchedulePlan.run under the graph's durations
    metrics   the run's SimResult (sim._metrics)
    timeline  the run's trace's timeline(), the events in timeline order
    write     trace_io.write_trace of that trace, into a temporary directory

Each stage is timed on what the stage before it made, so the stages do not
overlap: write formats a trace whose timeline is built. It puts the
repository's src on the import path, so it runs from any directory, and
uses the standard library and afpipe only.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afpipe import sim  # noqa: E402
from afpipe.allocator import default_allocation  # noqa: E402
from afpipe.config import ScheduleKind, load_experiment  # noqa: E402
from afpipe.taskgraph import build_task_graph  # noqa: E402
from afpipe.trace_io import write_trace  # noqa: E402

STAGES = ("parse", "build", "plan", "run", "metrics", "timeline", "write")


def _timed(results: dict[str, list[float]], stage: str, call, *args):
    """call(*args), its wall time appended to results[stage]."""
    begin = time.perf_counter()
    value = call(*args)
    results[stage].append(time.perf_counter() - begin)
    return value


def stage_times(config: str, microbatches: int, repeat: int, path: str) -> tuple[int, dict]:
    """The task count and each stage's median wall ms over repeat passes."""
    results: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for _ in range(repeat):
        exp = _timed(results, "parse", load_experiment, config)
        exp = dataclasses.replace(
            exp, schedule_kind=ScheduleKind.AFPIPE,
            workload=dataclasses.replace(exp.workload, num_microbatches=microbatches))
        alloc = default_allocation(exp)
        graph = _timed(results, "build", build_task_graph, exp, alloc)
        plan = _timed(results, "plan", sim.SchedulePlan, graph.walk)
        durations = sim.durations_ns(graph.walk.template.keys, graph.table)
        starts, makespan = _timed(results, "run", plan.run, durations)
        _timed(results, "metrics", sim._metrics, graph, plan, starts, durations, makespan)
        trace = sim.ScheduleTrace._of_run(plan, starts, durations, makespan)
        _timed(results, "timeline", trace.timeline)
        _timed(results, "write", write_trace, trace, path)
    return len(graph), {stage: statistics.median(results[stage]) * 1e3 for stage in STAGES}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("counts", type=int, nargs="+", metavar="COUNT")
    parser.add_argument("--config", default=str(ROOT / "configs" / "deepseek_moe.yaml"))
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    print(f"{'microbatches':>12} {'tasks':>7}" + "".join(f" {stage:>8}" for stage in STAGES))
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "trace.json")
        enabled = gc.isenabled()
        gc.disable()
        try:
            for count in args.counts:
                tasks, ms = stage_times(args.config, count, args.repeat, path)
                print(f"{count:>12} {tasks:>7}"
                      + "".join(f" {ms[stage]:>8.3f}" for stage in STAGES))
        finally:
            if enabled:
                gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
