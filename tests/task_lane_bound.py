"""Reference lane bound: each (owner, lane)'s summed task durations, task by task.

It reads each task's duration straight from the table and sums it on the
task's own (owner, lane), with no index of distinct keys and no plan, so it
lives here only as the gate that sim.Retimer.lane_bound_ns and
sim.resource_bound_ns must match.
"""

from __future__ import annotations

from afpipe.taskgraph import TaskGraph


def lane_bound_tasks(graph: TaskGraph) -> int:
    busy: dict[tuple[str, str], int] = {}
    for task, key in zip(graph.tasks.values(), graph.keys):
        lane = (task.owner, task.lane)
        busy[lane] = busy.get(lane, 0) + graph.table[key][0]
    return max(busy.values(), default=0)
