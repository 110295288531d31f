"""The heap scheduler in afpipe.sim against the ready-set scan it replaced,
and simulate's run metrics against the event aggregate they replaced.

Every scan case asserts the same ScheduleTrace, the same SimResult down to
the float repr, and the same exported trace bytes. Every metrics case asserts
the same SimResult as the aggregate of simulate's own trace.
"""

import dataclasses
import random
from pathlib import Path

import pytest
from hand_built import hand_built
from scan_scheduler import _aggregate, simulate_scan
from test_acceptance import _build as build_small
from test_acceptance import criterion_5_experiments
from test_taskgraph import GRAPH_PINS

from afpipe.allocator import default_allocation, enumerate_feasible
from afpipe.config import ScheduleKind, load_experiment
from afpipe.sim import Retimer, simulate
from afpipe.taskgraph import (
    COMPUTE_LANE,
    RECV_LANE,
    SEND_LANE,
    Task,
    TaskGraph,
    TaskKind,
    build_task_graph,
)
from afpipe.trace_io import export_trace_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _assert_same_schedule(graph):
    trace, result = simulate(graph)
    ref_trace, ref_result = simulate_scan(graph)
    assert trace == ref_trace
    assert repr(result) == repr(ref_result)
    assert export_trace_json(trace) == export_trace_json(ref_trace)


def _config_graph(name, **changes):
    exp = dataclasses.replace(load_experiment(str(CONFIGS / name)), **changes)
    return build_task_graph(exp, default_allocation(exp))


def test_criterion_5_experiments_match_the_scan():
    for exp in criterion_5_experiments():
        _assert_same_schedule(build_small(exp))


@pytest.mark.parametrize("kind,depth", list(GRAPH_PINS), ids=lambda v: getattr(v, "value", v))
def test_pinned_toy_graphs_match_the_scan(kind, depth):
    base = load_experiment(str(CONFIGS / "toy.yaml"))
    _assert_same_schedule(_config_graph(
        "toy.yaml", schedule_kind=kind, pipeline_depth=depth,
        virtual_stages=base.model.layers // depth,
    ))


@pytest.mark.parametrize("microbatches", [8, 32])
@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
def test_deepseek_graphs_match_the_scan(kind, microbatches):
    base = load_experiment(str(CONFIGS / "deepseek_moe.yaml"))
    _assert_same_schedule(_config_graph(
        "deepseek_moe.yaml", schedule_kind=kind,
        workload=dataclasses.replace(base.workload, num_microbatches=microbatches),
    ))


def _task(tid, kind, owner, duration, deps=(), mb=0, lane=COMPUTE_LANE, twin=None):
    return Task(id=tid, kind=kind, owner=owner, lane=lane,
                deps=tuple(deps), microbatch=mb, twin=twin), duration


def test_1f1b_preference_flips_while_forward_and_backward_are_ready():
    # A0 has credit 1. Its forwards f0 (mb 0) and f1 (mb 1) and its backward
    # b (mb 5) are all ready at 0. f0 goes first (forward preferred, lowest
    # micro-batch); its start fills the credit, so at 10 the preference flips
    # to backward and b, despite its higher micro-batch, beats f1; b's start
    # empties it again and f1 goes last. A stale rank would run f1 before b.
    fwd, bwd = TaskKind.FWD_COMPUTE, TaskKind.BWD_COMPUTE
    graph = hand_built([
        _task(0, fwd, "A0", 10, mb=0),
        _task(1, fwd, "A0", 10, mb=1),
        _task(2, bwd, "A0", 10, mb=5),
        # Meanwhile F0 computes, and f0's output goes to F0 over a pair.
        _task(3, fwd, "F0", 25, mb=0),
        _task(4, TaskKind.M2N_SEND, "A0", 5, deps=(0,), lane=SEND_LANE, twin=5),
        _task(5, TaskKind.M2N_RECV, "F0", 5, deps=(0,), lane=RECV_LANE, twin=4),
    ], credits={"A0": 1, "F0": 1})
    trace, _ = simulate(graph)
    starts = {ev.task.id: ev.start_ns for ev in trace.events}
    assert [starts[t] for t in (0, 2, 1)] == [0, 10, 20]
    assert starts[3] == 0 and starts[4] == starts[5] == 10
    _assert_same_schedule(graph)


def _random_graph(rng):
    """A random DAG of compute tasks, lone collectives and send/recv pairs
    with small durations (zero included), so ties are common."""
    owners = [f"G{i}" for i in range(rng.randint(1, 4))]
    size = rng.randint(5, 40)
    tasks = []
    while len(tasks) < size:
        tid = len(tasks)
        roll = rng.random()
        owner = rng.choice(owners)
        duration = rng.randint(0, 4)
        mb = rng.randint(0, 3)
        deps = rng.sample(range(tid), k=min(tid, rng.randint(0, 2)))
        if roll < 0.6:
            kind = rng.choice([TaskKind.FWD_COMPUTE, TaskKind.BWD_COMPUTE])
            tasks.append(_task(tid, kind, owner, duration, deps, mb))
        elif roll < 0.7:
            tasks.append(_task(tid, TaskKind.A2A, owner, duration, deps, mb, lane=SEND_LANE))
        else:
            tasks.append(_task(tid, TaskKind.M2N_SEND, owner, duration, deps, mb,
                               lane=SEND_LANE, twin=tid + 1))
            tasks.append(_task(tid + 1, TaskKind.M2N_RECV, rng.choice(owners), duration,
                               deps, mb, lane=RECV_LANE, twin=tid))
    return hand_built(tasks, credits={o: rng.randint(1, 3) for o in owners})


def test_random_graphs_match_the_scan():
    rng = random.Random(11)
    for _ in range(300):
        _assert_same_schedule(_random_graph(rng))


def _assert_same_metrics(graph):
    trace, result = simulate(graph)
    assert result == _aggregate(graph, trace)


def _random_tables(rng, graph, count=3):
    """graph under count random tables: zero durations and embedded exposure
    both common."""
    for _ in range(count):
        yield dataclasses.replace(graph, table={
            key: (rng.choice((0, rng.randint(1, 10**6))), rng.choice((0, rng.randint(1, 10**5))))
            for key in graph.table
        })


@pytest.mark.parametrize("microbatches", [1, 4, 8])
@pytest.mark.parametrize("config", ["toy.yaml", "deepseek_moe.yaml"])
@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
def test_run_metrics_equal_the_event_aggregate(kind, config, microbatches):
    base = load_experiment(str(CONFIGS / config))
    graph = _config_graph(
        config, schedule_kind=kind,
        workload=dataclasses.replace(base.workload, num_microbatches=microbatches),
    )
    _assert_same_metrics(graph)
    for retimed in _random_tables(random.Random(f"{kind.value}{config}{microbatches}"), graph):
        _assert_same_metrics(retimed)


def test_run_metrics_equal_the_event_aggregate_on_random_graphs():
    rng = random.Random(12)
    _assert_same_metrics(TaskGraph())
    for _ in range(100):
        for retimed in _random_tables(rng, _random_graph(rng), count=2):
            _assert_same_metrics(retimed)


def test_one_retimer_matches_the_scan_under_many_split_tables():
    # One Retimer of deepseek afpipe at 4 micro-batches re-times its plan under
    # the table of every 16th feasible split; each run must schedule as the
    # scan of the graph built for that split.
    base = load_experiment(str(CONFIGS / "deepseek_moe.yaml"))
    exp = dataclasses.replace(base, schedule_kind=ScheduleKind.AFPIPE,
                              workload=dataclasses.replace(base.workload, num_microbatches=4))
    retimer = Retimer(build_task_graph(exp, default_allocation(exp)).walk)
    for alloc in enumerate_feasible(exp.cluster)[::16]:
        graph = build_task_graph(exp, alloc, walk=retimer.walk)
        trace, _ = retimer.simulate(graph)
        reference, _ = simulate_scan(build_task_graph(exp, alloc))
        assert trace == reference, alloc
        assert retimer.makespan_ns(retimer.ns(graph.table)) == reference.iteration_ns
    assert retimer.counts["plans"] == 1
    assert len(retimer.makespans) >= 12  # distinct split tables
