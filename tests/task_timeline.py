"""Reference timeline order: every task sorted by (start, owner, lane, id).

It reads each task's owner, lane and id straight from graph.tasks and its
start from the run of the general plan of graph hand-built (hand_built),
task by task, with no plan lanes, no ranks and no template, so it lives
here only as the gate that ScheduleTrace.timeline's order must match.
"""

from __future__ import annotations

from hand_built import hand_built

from afpipe.sim import SchedulePlan, ScheduleTrace, durations_ns, simulate
from afpipe.taskgraph import TaskGraph


def timeline_tasks(graph: TaskGraph) -> tuple[ScheduleTrace, list[tuple[int, str, str, int]]]:
    """graph's trace and its timeline as (start, owner, lane, id) per task, sorted."""
    trace, _ = simulate(graph)
    general = SchedulePlan(hand_built(graph).walk)
    starts, _ = general.run(durations_ns(graph.keys, graph.table))
    tasks = tuple(graph.tasks.values())
    return trace, sorted(
        (begin, tasks[k].owner, tasks[k].lane, tasks[k].id)
        for begin, members in zip(starts, general.unit_tasks) for k in members
    )


def timeline_of(graph: TaskGraph, trace: ScheduleTrace) -> list[tuple[int, str, str, int]]:
    """trace.timeline()'s order and starts as (start, owner, lane, id) of graph's tasks."""
    tasks = tuple(graph.tasks.values())
    _, order, starts, _ = trace.timeline()
    return [(begin, tasks[k].owner, tasks[k].lane, tasks[k].id) for k, begin in zip(order, starts)]
