"""Reference longest path: the task-by-task Kahn walk that sim.critical_path_ns replaced.

Each task starts after its own dependencies only, so a send/recv pair's two
sides may start apart; the plan's chain starts a pair as one unit after the
union of both sides' deps. The two agree whenever twins share their deps, as
on every built graph. It reads durations straight from the table and lives
here only as the gate that the plan's chain (Retimer.chain_ns) must match.
"""

from __future__ import annotations

from afpipe.sim import CycleDetected
from afpipe.taskgraph import TaskGraph


def critical_path_tasks(graph: TaskGraph) -> int:
    tasks = graph.tasks
    duration = {tid: graph.table[key][0] for tid, key in zip(tasks, graph.keys)}
    dist: dict[int, int] = {}  # the longest chain ending with each task
    indeg = {tid: len(set(t.deps)) for tid, t in tasks.items()}
    dependents: dict[int, list[int]] = {tid: [] for tid in tasks}
    for tid, task in tasks.items():
        for dep in set(task.deps):
            dependents[dep].append(tid)
    stack = [tid for tid, d in indeg.items() if d == 0]
    while stack:
        tid = stack.pop()
        dist[tid] = max((dist[d] for d in tasks[tid].deps), default=0) + duration[tid]
        for nxt in dependents[tid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                stack.append(nxt)
    if len(dist) != len(tasks):
        raise CycleDetected("dependency graph contains a cycle")
    return max(dist.values(), default=0)
