"""A built graph's plan is its one-micro-batch template's plan, replicated.

SchedulePlan plans a built graph's template (taskgraph.Walk.template) and
copies the plan once per micro-batch; a hand-built graph is its own
template, planned task by task, which is the reference here: the same
graph's tasks, keys and credits hand-built (hand_built). The timeline order
of a replicated plan's run is the task-level sort of task_timeline.
"""

import logging
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hand_built import hand_built
from task_timeline import timeline_of, timeline_tasks

from afpipe.allocator import default_allocation
from afpipe.config import ScheduleKind, load_experiment
from afpipe.sim import SchedulePlan
from afpipe.taskgraph import build_task_graph

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _graph(config, kind, microbatches):
    base = load_experiment(str(CONFIGS / config))
    exp = replace(base, schedule_kind=kind,
                  workload=replace(base.workload, num_microbatches=microbatches))
    return build_task_graph(exp, default_allocation(exp))


def _fields(plan):
    """Every field of plan as plain values, a queue as its index."""
    def queues(qs):
        return [q.index for q in qs]

    return {
        "unit_tasks": plan.unit_tasks,
        "unit_queue": queues(plan.unit_queue),
        "remaining": plan.remaining,
        "dependents": plan.dependents,
        "credit": plan.credit,
        "lanes": plan.lanes,
        "queues": [(q.index, q.lanes, q.counters, q.units, q.sides, q.lane, q.other, q.owner,
                    q.bwd) for q in plan.queues],
        "owner_queues": [queues(qs) for qs in plan.owner_queues],
        "neighbors": [queues(qs) for qs in plan.neighbors],
        "task_lane": plan.task_lane,
        "task_counter": plan.task_counter,
    }


@pytest.mark.parametrize("microbatches", [1, 2, 8, 32])
@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
@pytest.mark.parametrize("config", ["toy.yaml", "deepseek_moe.yaml"])
def test_replicated_plan_equals_the_general_plan(config, kind, microbatches):
    graph = _graph(config, kind, microbatches)
    plan = SchedulePlan(graph)
    assert plan.copies == (microbatches if microbatches > 1 else 1)
    general = SchedulePlan(hand_built(graph))
    assert general.copies == 1
    replicated, reference = _fields(plan), _fields(general)
    for name in reference:  # field by field, for a readable failure
        assert replicated[name] == reference[name], name


def test_naive_links_each_microbatch_to_the_last_task_of_the_one_before():
    graph = _graph("toy.yaml", ScheduleKind.NAIVE_SEQUENTIAL, 3)
    plan = SchedulePlan(graph)
    size, units = len(graph) // 3, len(plan.unit_tasks) // 3
    [first] = [i for i, members in enumerate(plan.unit_tasks) if members == (0,)]
    assert plan.remaining[first] == 0
    for m in (1, 2):
        assert plan.unit_tasks[first + m * units] == (m * size,)
        assert plan.remaining[first + m * units] == 1
        assert plan.dependents[m * size - 1] == [first + m * units]
    assert plan.dependents[3 * size - 1] == []


@pytest.mark.parametrize("microbatches,kind", [
    *((m, kind) for m in (1, 2, 32) for kind in ScheduleKind),
    (128, ScheduleKind.AFPIPE),
], ids=lambda v: getattr(v, "value", v))
def test_timeline_order_equals_the_task_level_sort(microbatches, kind):
    graph = _graph("deepseek_moe.yaml", kind, microbatches)
    trace, expected = timeline_tasks(graph)
    assert timeline_of(graph, trace) == expected


def test_replicated_plan_logs_its_template_at_debug(caplog):
    graph = _graph("toy.yaml", ScheduleKind.AFPIPE, 4)
    with caplog.at_level(logging.DEBUG, logger="afpipe.sim"):
        plan = SchedulePlan(graph)
        SchedulePlan(hand_built(graph))  # a general plan logs none
    lines = [r.getMessage() for r in caplog.records
             if r.name == "afpipe.sim" and r.getMessage().startswith("plan: ")]
    units = len(plan.unit_tasks)
    assert len(lines) == 1
    assert re.fullmatch(rf"plan: {units} units from a {units // 4}-unit template x 4 "
                        r"micro-batches in \d+\.\d{3} ms", lines[0]), lines
