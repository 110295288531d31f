"""Seeded random valid experiments against every reference the tests hold.

Each experiment draws every field of the config dataclasses (ModelConfig,
Workload, ClusterConfig and the schedule fields of Experiment) by its type
from a small pool, so a field added to the schema is drawn too, and keeps
the draws that validate accepts. Under each schedule kind the simulated
trace must pass check_schedule, end no earlier than either lower bound,
equal the scan scheduler's trace and its metrics equal the scan's, write
the same bytes before and after its events are read, and parse back from
its written JSON to each event's (start, end, owner). Under afpipe, on
clusters of at most 8 GPUs and 8 NICs, the exact oracle's time must be at
most the allocator's t_star, and the allocator's re-timed profile must
equal simulate's iteration time on three splits, the oracle's among them,
and the oracle's time on its split. A failing case prints its experiment
document (serialize_experiment), which parse_experiment reads back to
replay it.
"""

import dataclasses
import random

import pytest
from scan_scheduler import simulate_scan

from afpipe.allocator import (
    AllocatorParams,
    IterationProfile,
    allocate,
    brute_force_oracle,
    default_allocation,
    enumerate_feasible,
)
from afpipe.config import (
    ClusterConfig,
    Experiment,
    ModelConfig,
    ScheduleKind,
    Workload,
    parse_experiment,
    serialize_experiment,
    validate,
)
from afpipe.sim import check_schedule, critical_path_ns, resource_bound_ns, simulate
from afpipe.taskgraph import build_task_graph
from afpipe.trace_io import parse_trace_events, write_trace

SEED = 4
COUNT = 100
SECTIONS = (ModelConfig, Workload, ClusterConfig)
POOLS = {
    int: (1, 2, 3, 4, 8),
    float: (1e9, 1e11, 1e12, 9.89e14),
    ScheduleKind: tuple(ScheduleKind),
}


def _draw(rng: random.Random, cls: type) -> dict:
    """A value from its type's pool for each field of cls that is not a section."""
    return {f.name: rng.choice(POOLS[f.type])
            for f in dataclasses.fields(cls) if f.type not in SECTIONS}


def _valid_experiments(seed: int, count: int) -> list[Experiment]:
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        exp = Experiment(*(cls(**_draw(rng, cls)) for cls in SECTIONS), **_draw(rng, Experiment))
        if not validate(exp):
            found.append(exp)
    return found


EXPERIMENTS = _valid_experiments(SEED, COUNT)


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=[str(i) for i in range(COUNT)])
def test_random_valid_experiment_meets_every_reference(exp, tmp_path):
    text = serialize_experiment(exp)
    print(text)  # pytest shows it on a failure; parse_experiment(text) replays the case
    assert parse_experiment(text) == exp
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    for kind in ScheduleKind:
        point = dataclasses.replace(exp, schedule_kind=kind)
        graph = build_task_graph(point, default_allocation(point))
        trace, result = simulate(graph)
        assert check_schedule(graph, trace) == [], kind
        assert trace.iteration_ns >= critical_path_ns(graph), kind
        assert trace.iteration_ns >= resource_bound_ns(graph), kind
        write_trace(trace, str(before))
        assert (trace, result) == simulate_scan(graph), kind  # reads the trace's events
        write_trace(trace, str(after))
        assert before.read_bytes() == after.read_bytes(), kind
        # The file holds export_trace_json(trace), as test_trace pins.
        assert parse_trace_events(after.read_text()) == [
            (e.start_ns, e.end_ns, e.task.owner) for e in trace.events], kind
    cluster = exp.cluster
    if cluster.total_gpus <= 8 and cluster.total_nics <= 8:
        afpipe = dataclasses.replace(exp, schedule_kind=ScheduleKind.AFPIPE)
        profile = IterationProfile(afpipe)
        best, best_time = brute_force_oracle(afpipe)
        assert best_time <= allocate(afpipe, AllocatorParams(trials=16)).t_star
        assert profile(best) == best_time, best
        # The analytic seed, the split that gives attention the most GPUs and
        # NICs, and the oracle's split.
        for alloc in default_allocation(afpipe), enumerate_feasible(cluster)[-1], best:
            _, result = simulate(build_task_graph(afpipe, alloc))
            assert profile(alloc) == result.iteration_time, alloc
