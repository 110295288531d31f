"""Hand-built graphs: their tasks, keys and credits are given, not walked.

hand_built(graph) is graph with a walk of its own (taskgraph.Walk(tasks,
keys, credits)) holding graph's tasks and keys, and graph's credits unless
credits is given. That walk has no topology, so SchedulePlan plans it task
by task: the general plan that a built graph's replicated plan must equal.
graph may instead be (task, duration_ns) pairs: each task's table key is its
id, and each owner's credit is 1 unless credits is given.
"""

from __future__ import annotations

from dataclasses import replace

from afpipe.taskgraph import TaskGraph, Walk


def hand_built(graph, credits=None) -> TaskGraph:
    if isinstance(graph, TaskGraph):
        return replace(graph, walk=Walk(graph.tasks, graph.keys,
                                        graph.credits if credits is None else credits))
    tasks = {task.id: task for task, _ in graph}
    if credits is None:
        credits = dict.fromkeys((task.owner for task in tasks.values()), 1)
    return TaskGraph(Walk(tasks, list(tasks), credits),
                     table={task.id: (ns, 0) for task, ns in graph})
