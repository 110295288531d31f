import json

import jsonschema

from afpipe.allocator import canonical_allocation
from afpipe.config import ClusterConfig, Experiment, ModelConfig, ScheduleKind, Workload
from afpipe.sim import ScheduleTrace, simulate
from afpipe.taskgraph import COMPUTE_LANE, Task, TaskGraph, TaskKind, build_task_graph
from afpipe.trace_io import (
    export_trace,
    export_trace_json,
    parse_trace_events,
    trace_schema,
    write_trace,
)


def _af_trace(microbatches=3):
    exp = Experiment(
        model=ModelConfig(layers=2, hidden=64, experts=8, topk=2, moe_hidden=64),
        workload=Workload(seq_len=64, micro_batch=1, num_microbatches=microbatches),
        cluster=ClusterConfig(total_gpus=2, gpus_per_node=1, total_nics=2,
                              gpu_peak=1e12, ib_bw=1e10),
        schedule_kind=ScheduleKind.AFPIPE,
        pipeline_depth=1,
        virtual_stages=2,
        ep_size=1,
    )
    alloc = canonical_allocation(1, 1, 2, 2, 1)
    graph = build_task_graph(exp, alloc)
    trace, _ = simulate(graph)
    return trace


def test_empty_trace_exports_empty_array():
    assert export_trace(ScheduleTrace(events=(), iteration_ns=0)) == []
    assert json.loads(export_trace_json(ScheduleTrace(events=(), iteration_ns=0))) == []


def test_single_task_microsecond_conversion():
    g = TaskGraph(schedule_kind=ScheduleKind.AFPIPE)
    duration_s = 1.5e-3
    g.tasks = {0: Task(id=0, kind=TaskKind.FWD_COMPUTE, owner="A0",
                       lane=COMPUTE_LANE, duration_ns=int(duration_s * 1e9), deps=(),
                       microbatch=0)}
    g.owners = ("A0",)
    g.credits = {"A0": 1}
    trace, _ = simulate(g)
    events = export_trace(trace)
    assert len(events) == 1
    assert events[0]["ph"] == "X"
    assert events[0]["dur"] == duration_s * 1e6
    assert events[0]["ts"] == 0


def test_export_validates_against_shipped_schema():
    events = export_trace(_af_trace())
    jsonschema.validate(events, trace_schema())


def test_round_trip_recovers_start_end_owner():
    trace = _af_trace()
    doc = export_trace_json(trace)
    triples = sorted(parse_trace_events(doc))
    expected = sorted((e.start_ns, e.end_ns, e.owner) for e in trace.events)
    assert triples == expected


def test_one_event_per_scheduled_task():
    trace = _af_trace()
    events = export_trace(trace)
    assert len(events) == len(trace.events)
    assert len({e["args"]["task"] for e in events}) == len(events)


def test_write_trace_round_trips_through_file(tmp_path):
    trace = _af_trace()
    path = tmp_path / "trace.json"
    write_trace(trace, str(path))
    reparsed = json.loads(path.read_text())
    jsonschema.validate(reparsed, trace_schema())
    assert parse_trace_events(reparsed) == parse_trace_events(export_trace_json(trace))
