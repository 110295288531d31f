import dataclasses
import json

import jsonschema
import pytest

from afpipe.allocator import canonical_allocation
from afpipe.config import ClusterConfig, Experiment, ModelConfig, ScheduleKind, Workload
from afpipe.sim import ScheduleTrace, TraceEvent, simulate
from afpipe.taskgraph import (
    COMPUTE_LANE,
    RECV_LANE,
    Task,
    TaskGraph,
    TaskKind,
    build_task_graph,
)
from afpipe.trace_io import (
    export_trace,
    export_trace_json,
    parse_trace_events,
    trace_schema,
    write_trace,
)


def _experiment(microbatches):
    return Experiment(
        model=ModelConfig(layers=2, hidden=64, experts=8, topk=2, moe_hidden=64),
        workload=Workload(seq_len=64, micro_batch=1, num_microbatches=microbatches),
        cluster=ClusterConfig(total_gpus=2, gpus_per_node=1, total_nics=2,
                              gpu_peak=1e12, ib_bw=1e10),
        schedule_kind=ScheduleKind.AFPIPE,
        pipeline_depth=1,
        virtual_stages=2,
        ep_size=1,
    )


def _af_trace(microbatches=3):
    exp = _experiment(microbatches)
    graph = build_task_graph(exp, canonical_allocation(exp.cluster, 1, 1))
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
    assert export_trace(trace) == [{
        "name": "FwdCompute mb0",
        "ph": "X",
        "ts": 0.0,
        "dur": duration_s * 1e6,
        "pid": 0,
        "tid": 0,
        "args": {
            "owner": "A0",
            "stream": "forward",
            "lane": "compute",
            "kind": "FwdCompute",
            "microbatch": 0,
            "layer": None,
            "virtual_index": 0,
            "direction": "fwd",
            "task": 0,
        },
    }]


def test_layered_event_is_pinned_in_full():
    # Every field of the second event differs from every other field of the
    # same type, so a template that swaps two of them fails here.
    first = Task(id=0, kind=TaskKind.FWD_COMPUTE, owner="A0", lane=COMPUTE_LANE,
                 duration_ns=1500, deps=(), microbatch=0)
    recv = Task(id=7, kind=TaskKind.M2N_RECV, owner="F1", lane=RECV_LANE,
                duration_ns=2500, deps=(0,), microbatch=3, layer=5, virtual_index=4,
                component="F", direction="bwd")
    trace = ScheduleTrace(
        events=(TraceEvent(first, 0, 1500), TraceEvent(recv, 1500, 4000)), iteration_ns=4000
    )
    assert export_trace(trace)[1] == {
        "name": "M2NRecv mb3 L5",
        "ph": "X",
        "ts": 1.5,
        "dur": 2.5,
        "pid": 1,
        "tid": 2,
        "args": {
            "owner": "F1",
            "stream": "comm",
            "lane": "comm.recv",
            "kind": "M2NRecv",
            "microbatch": 3,
            "layer": 5,
            "virtual_index": 4,
            "direction": "bwd",
            "task": 7,
        },
    }


def test_export_validates_against_shipped_schema():
    events = export_trace(_af_trace())
    jsonschema.validate(events, trace_schema())


def test_round_trip_recovers_start_end_owner():
    trace = _af_trace()
    doc = export_trace_json(trace)
    triples = sorted(parse_trace_events(doc))
    expected = sorted((e.start_ns, e.end_ns, e.task.owner) for e in trace.events)
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


def _staged_trace():
    # megatron1f1b: P2P transfers and chunk compute carry no layer, so the
    # export writes null for it.
    exp = dataclasses.replace(
        _experiment(microbatches=3), schedule_kind=ScheduleKind.MEGATRON_1F1B,
        pipeline_depth=2, virtual_stages=1,
    )
    trace, _ = simulate(build_task_graph(exp))
    assert any(ev["args"]["layer"] is None for ev in export_trace(trace))
    return trace


@pytest.mark.parametrize("make_trace", [
    lambda: ScheduleTrace(events=(), iteration_ns=0),
    _staged_trace,
    _af_trace,
], ids=["empty", "staged", "afpipe"])
def test_trace_json_matches_json_dumps(make_trace):
    trace = make_trace()
    expected = json.dumps(export_trace(trace), indent=1, sort_keys=True)
    assert export_trace_json(trace) == expected
