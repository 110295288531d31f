"""A built graph's plan is its one-micro-batch template's plan and a copy count.

SchedulePlan plans a built graph's template (taskgraph.Walk.template) and
runs it once per micro-batch; a hand-built graph is its own template,
planned task by task, which is the reference here: the same graph's tasks,
keys and credits hand-built (hand_built). The template plan must equal the
general plan of the hand-built template, and its runs and bounds those of
the general plan of the whole hand-built graph. The timeline order of its
run is the task-level sort of task_timeline.
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
from afpipe.sim import Retimer, SchedulePlan, durations_ns
from afpipe.taskgraph import build_task_graph

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _graph(config, kind, microbatches):
    base = load_experiment(str(CONFIGS / config))
    exp = replace(base, schedule_kind=kind,
                  workload=replace(base.workload, num_microbatches=microbatches))
    return build_task_graph(exp, default_allocation(exp))


def _fields(plan):
    """Every field of plan as plain values, a queue as its position in plan.queues."""
    def queue(q):
        return plan.queues.index(q)

    return {
        "unit_tasks": plan.unit_tasks,
        "remaining": plan.remaining,
        "credit": plan.credit,
        "lanes": plan.lanes,
        "queues": [(q.lanes, q.counters, q.units, q.sides, q.lane, q.other, q.owner,
                    q.bwd) for q in plan.queues],
        "owner_queues": [list(map(queue, qs)) for qs in plan.owner_queues],
        "task_lane": plan.task_lane,
        "records": [[(k, lane, counter, [(d, queue(q), single) for d, q, single in deps])
                     for k, lane, counter, deps in record] for record in plan.records],
    }


def _template(graph):
    """graph's template hand-built, under graph's credits and table."""
    return hand_built(replace(graph, walk=graph.walk.template), credits=graph.credits)


@pytest.mark.parametrize("microbatches", [1, 2, 8, 32])
@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
@pytest.mark.parametrize("config", ["toy.yaml", "deepseek_moe.yaml"])
def test_replicated_plan_equals_the_general_plan(config, kind, microbatches):
    graph = _graph(config, kind, microbatches)
    plan = SchedulePlan(graph.walk)
    assert plan.walk is graph.walk and plan.walk.copies == microbatches
    general = SchedulePlan(_template(graph).walk)
    assert general.walk.copies == 1 and general.link is None
    fields, reference = _fields(plan), _fields(general)
    if plan.link is not None:  # the serial link: the last task's dependent one copy on
        assert kind is ScheduleKind.NAIVE_SEQUENTIAL and microbatches > 1
        last = len(general.task_lane) - 1
        [(u, side)] = [(u, members.index(last)) for u, members in enumerate(general.unit_tasks)
                       if last in members]
        first = plan.link - len(general.unit_tasks)
        [linked] = [i for i, q in enumerate(general.queues) if first in q.units]
        k, lane, counter, deps = reference["records"][u][side]
        reference["records"][u][side] = (k, lane, counter, [*deps, (plan.link, linked, False)])
    for name in reference:  # field by field, for a readable failure
        assert fields[name] == reference[name], name

    # The copies run as the general plan of the whole graph runs, and bound alike.
    whole = hand_built(graph)
    full = SchedulePlan(whole.walk)
    durations = durations_ns(graph.keys, graph.table)
    assert plan.run(durations[:len(general.task_lane)]) == full.run(durations)
    assert plan._heads(durations)[1] == full._heads(durations)[1]  # the chain
    retimer, reference = Retimer(graph.walk), Retimer(whole.walk)
    ns = retimer.ns(graph.table)
    assert retimer.lane_bound_ns(ns) == reference.lane_bound_ns(reference.ns(graph.table))


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
def test_no_plan_array_grows_with_the_microbatch_count(kind):
    graph = _graph("deepseek_moe.yaml", kind, 32)
    plan, template = SchedulePlan(graph.walk), SchedulePlan(_template(graph).walk)
    units, size = len(template.unit_tasks), len(graph.walk.template.keys)
    assert plan.walk.copies == 32
    assert len(plan.unit_tasks) == len(plan.records) == len(plan.remaining) == units
    assert len(plan.task_lane) == size
    assert sum(len(record) for record in plan.records) == size
    assert [len(q.units) for q in plan.queues] == [len(q.units) for q in template.queues]
    assert sum(len(q.units) for q in plan.queues) == units
    assert all(len(side) == len(q.units) for q in plan.queues for side in q.sides)


def test_naive_links_each_microbatch_to_the_last_task_of_the_one_before():
    graph = _graph("toy.yaml", ScheduleKind.NAIVE_SEQUENTIAL, 3)
    plan = SchedulePlan(graph.walk)
    size, units = len(graph.walk.template.keys), len(plan.unit_tasks)
    [first] = [i for i, members in enumerate(plan.unit_tasks) if members == (0,)]
    [last] = [i for i, members in enumerate(plan.unit_tasks) if members == (size - 1,)]
    # The template holds one link: its last task's dependent, its first unit one copy on.
    assert plan.remaining[first] == 0
    assert plan.link == first + units
    [(_, _, _, targets)] = plan.records[last]  # the last task's
    [queue] = [q for q in plan.queues if first in q.units]
    assert targets == [(first + units, queue, False)]
    assert SchedulePlan(_graph("toy.yaml", ScheduleKind.NAIVE_SEQUENTIAL, 1).walk).link is None
    durations = Retimer(graph.walk).durations(Retimer(graph.walk).ns(graph.table))
    starts, makespan = plan.run(durations)
    assert starts[first] == 0
    for m in (1, 2):  # micro-batch m starts when the last task of m - 1 ends
        assert starts[first + m * units] == starts[last + (m - 1) * units] + durations[size - 1]
    assert makespan == starts[last + 2 * units] + durations[size - 1]


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
        plan = SchedulePlan(graph.walk)
        SchedulePlan(hand_built(graph).walk)  # a general plan logs none
    lines = [r.getMessage() for r in caplog.records
             if r.name == "afpipe.sim" and r.getMessage().startswith("plan: ")]
    units = len(plan.unit_tasks)  # the template's
    assert len(lines) == 1
    assert re.fullmatch(rf"plan: {4 * units} units from a {units}-unit template x 4 "
                        r"micro-batches in \d+\.\d{3} ms", lines[0]), lines
