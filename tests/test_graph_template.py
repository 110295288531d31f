"""A built graph is its one-micro-batch template, walked once.

build_task_graph walks one micro-batch (taskgraph.Walk); simulate and
write_trace read that template and the micro-batch count, and a built
graph's tasks, every micro-batch's Task, are walked only when first read.
The walk is the graph's one structure: its tasks, keys, credits and
topology are read-only views of it. The references here are the full walk
(taskgraph._walk over every micro-batch), the eager trace of the built
events and hand-built copies (hand_built).
"""

import logging
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hand_built import hand_built

from afpipe import sim, taskgraph
from afpipe.allocator import default_allocation
from afpipe.config import ScheduleKind, load_experiment
from afpipe.sim import Retimer, SchedulePlan, ScheduleTrace, simulate
from afpipe.taskgraph import Walk, build_task_graph
from afpipe.trace_io import export_trace_json, write_trace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _experiment(kind, microbatches, config="deepseek_moe.yaml"):
    base = load_experiment(str(CONFIGS / config))
    return replace(base, schedule_kind=kind,
                   workload=replace(base.workload, num_microbatches=microbatches))


def _graph(kind, microbatches, config="deepseek_moe.yaml"):
    exp = _experiment(kind, microbatches, config)
    return build_task_graph(exp, default_allocation(exp))


def _count_walks(monkeypatch):
    """The micro-batch count of every taskgraph._walk call from now on, and the unpatched _walk."""
    walked = []
    walk = taskgraph._walk
    monkeypatch.setattr(taskgraph, "_walk", lambda topology: (
        walked.append(topology.num_microbatches) or walk(topology)))
    return walked, walk


def test_simulate_and_write_read_only_the_template(monkeypatch, tmp_path):
    walked, walk = _count_walks(monkeypatch)
    graph = _graph(ScheduleKind.AFPIPE, 32)
    retimer = Retimer()
    trace, _ = retimer.simulate(graph)
    write_trace(trace, str(tmp_path / "trace.json"))
    assert len(graph) == len(graph.keys) == 32 * len(graph.walk.template.keys)
    assert walked == [1]
    assert graph.walk._tasks is None
    # Read now, the tasks and the keys are those of a walk of every micro-batch.
    tasks, keys = walk(graph.topology)
    assert graph.tasks == tasks and list(graph.tasks) == list(tasks)
    assert graph.keys == keys
    assert walked == [1, 32]


def test_replace_shares_the_walk_and_its_plan(monkeypatch):
    walked, _ = _count_walks(monkeypatch)
    graph = _graph(ScheduleKind.AFPIPE, 32)
    retimer = Retimer(graph.walk)
    table = {key: (duration + 1, exposed) for key, (duration, exposed) in graph.table.items()}
    point = replace(graph, table=table)
    assert point.walk is graph.walk and walked == [1]
    trace, _ = retimer.simulate(point)
    assert retimer.counts["plans"] == 1 and walked == [1]
    assert trace.iteration_ns == simulate(point)[0].iteration_ns != simulate(graph)[0].iteration_ns


@pytest.mark.parametrize("microbatches", [1, 2, 32])
@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
def test_template_trace_writes_the_bytes_of_the_eager_and_the_read_graph(kind, microbatches,
                                                                         tmp_path):
    config = "deepseek_moe.yaml" if microbatches < 32 else "toy.yaml"
    template_trace, _ = simulate(_graph(kind, microbatches, config))
    read = _graph(kind, microbatches, config)
    assert len(read.tasks) == len(read)  # its tasks are read before simulate
    read_trace, _ = simulate(read)
    paths = [tmp_path / name for name in ("template.json", "read.json", "eager.json")]
    write_trace(template_trace, str(paths[0]))
    write_trace(read_trace, str(paths[1]))
    eager = ScheduleTrace(read_trace.events, read_trace.iteration_ns)
    write_trace(eager, str(paths[2]))
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    assert export_trace_json(template_trace).encode() == paths[0].read_bytes()
    assert template_trace.events == read_trace.events


@pytest.mark.parametrize("microbatches", [1, 3])
def test_every_plan_reads_the_graph_credits(microbatches):
    graph = _graph(ScheduleKind.AFPIPE, microbatches, "toy.yaml")
    trace, _ = simulate(graph)
    assert graph.credits == dict(graph.topology.credits)
    assert any(credit > 1 for credit in graph.credits.values())
    ones = dict.fromkeys(graph.credits, 1)
    copy = hand_built(graph, ones)
    assert SchedulePlan(copy.walk).credit == [1] * len(graph.credits)
    strict, _ = simulate(copy)
    # One micro-batch never has a forward and a backward unit ready on one
    # owner at once, so no credit can change its schedule.
    assert (strict.events != trace.events) == (microbatches > 1)
    # The replicated plan of a topology of those credits schedules the same.
    walk = Walk.of(graph.topology._replace(credits=tuple(ones.items())))
    assert strict.events == simulate(replace(graph, walk=walk))[0].events


def test_build_logs_its_tasks_template_and_walk_at_debug(caplog):
    exp = _experiment(ScheduleKind.MEGATRON_1F1B, 4, "toy.yaml")
    alloc = default_allocation(exp)
    with caplog.at_level(logging.DEBUG, logger="afpipe.taskgraph"):
        kept = build_task_graph(exp, alloc)
        build_task_graph(replace(exp, schedule_kind=ScheduleKind.CHUNKED_OVERLAP), alloc,
                         walk=kept.walk)
        build_task_graph(replace(exp, workload=replace(exp.workload, num_microbatches=5)),
                         alloc, walk=kept.walk)
    lines = [r.getMessage() for r in caplog.records if r.name == "afpipe.taskgraph"]
    size = len(kept.walk.template.keys)
    assert [re.sub(r"in \d+\.\d{3} ms$", "in T ms", line) for line in lines] == [
        f"build: {4 * size} tasks from a {size}-task template (walked) in T ms",
        f"build: {4 * size} tasks from a {size}-task template (shared) in T ms",
        f"build: {5 * size} tasks from a {size}-task template (walked) in T ms",
    ]


def test_retimer_reuses_its_plan_for_the_walk_it_kept_and_no_other():
    exp = _experiment(ScheduleKind.AFPIPE, 3, "toy.yaml")
    alloc = default_allocation(exp)
    kept = build_task_graph(exp, alloc)
    retimer = Retimer(kept.walk)
    retimer.simulate(build_task_graph(exp, alloc, walk=kept.walk))
    assert retimer.counts["plans"] == 1 and kept.walk._tasks is None
    # A hand-built copy is another walk, planned on its own under its credits.
    copy = hand_built(kept, dict.fromkeys(kept.credits, 1))
    trace, _ = retimer.simulate(copy)
    assert retimer.counts["plans"] == 2
    assert trace.events == simulate(copy)[0].events != simulate(kept)[0].events


@pytest.mark.parametrize("name", ["tasks", "keys", "credits", "topology"])
def test_a_graph_views_its_walk_read_only(name):
    graph = _graph(ScheduleKind.AFPIPE, 3, "toy.yaml")
    with pytest.raises(AttributeError):
        setattr(graph, name, getattr(graph, name))


def test_graphs_of_one_walk_cannot_change_each_others_credits_or_tasks():
    exp = _experiment(ScheduleKind.AFPIPE, 3, "toy.yaml")
    kept = build_task_graph(exp, default_allocation(exp))
    graph = build_task_graph(exp, default_allocation(exp), walk=kept.walk)
    assert graph.walk is kept.walk
    with pytest.raises(TypeError):
        graph.credits["A0"] = 1
    with pytest.raises(AttributeError):
        graph.tasks.pop(len(graph) - 1)
    assert kept.credits == dict(kept.topology.credits) and len(kept.tasks) == len(kept)


def test_a_trace_sorts_its_timeline_once(monkeypatch, tmp_path):
    trace, _ = simulate(_graph(ScheduleKind.AFPIPE, 3, "toy.yaml"))
    sorts = []
    order = sim._timeline_order
    monkeypatch.setattr(sim, "_timeline_order", lambda *run: sorts.append(1) or order(*run))
    path = tmp_path / "trace.json"
    write_trace(trace, str(path))
    assert export_trace_json(trace) == path.read_text()
    events = trace.events
    assert len(sorts) == 1
    assert export_trace_json(ScheduleTrace(events, trace.iteration_ns)) == path.read_text()
