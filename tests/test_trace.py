import dataclasses
import hashlib
import json
import logging
import random
import re
from pathlib import Path

import jsonschema
import pytest
from hand_built import hand_built

from afpipe import cli, sim, trace_io
from afpipe.allocator import canonical_allocation, default_allocation
from afpipe.config import (
    ClusterConfig,
    Experiment,
    ModelConfig,
    ScheduleKind,
    Workload,
    load_experiment,
)
from afpipe.sim import Retimer, ScheduleTrace, TraceEvent, check_schedule, simulate
from afpipe.taskgraph import (
    COMPUTE_LANE,
    RECV_LANE,
    Task,
    TaskKind,
    build_task_graph,
)
from afpipe.trace_io import (
    SerializationError,
    export_trace,
    export_trace_json,
    parse_trace_events,
    trace_schema,
    write_trace,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    duration_s = 1.5e-3
    task = Task(id=0, kind=TaskKind.FWD_COMPUTE, owner="A0", lane=COMPUTE_LANE, deps=(),
                microbatch=0)
    trace, _ = simulate(hand_built([(task, int(duration_s * 1e9))]))
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
                 deps=(), microbatch=0)
    recv = Task(id=7, kind=TaskKind.M2N_RECV, owner="F1", lane=RECV_LANE,
                deps=(0,), microbatch=3, layer=5, virtual_index=4,
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


def _deepseek_trace():
    exp = load_experiment(str(CONFIGS / "deepseek_moe.yaml"))  # afpipe, 8 micro-batches
    trace, _ = simulate(build_task_graph(exp, default_allocation(exp)))
    return trace


def _one_chunk_trace():
    trace = _deepseek_trace()
    return ScheduleTrace(events=trace.events[:trace_io._CHUNK], iteration_ns=trace.iteration_ns)


@pytest.mark.parametrize("make_trace,events", [
    (lambda: ScheduleTrace(events=(), iteration_ns=0), 0),
    (_af_trace, 60),
    (_one_chunk_trace, trace_io._CHUNK),
    (_deepseek_trace, 2656),
], ids=["empty", "under-one-chunk", "one-chunk", "deepseek-mb8"])
def test_written_trace_bytes_equal_exported_json(make_trace, events, tmp_path):
    trace = make_trace()
    assert len(trace.events) == events
    path = tmp_path / "trace.json"
    write_trace(trace, str(path))
    expected = json.dumps(export_trace(trace), indent=1, sort_keys=True)
    assert export_trace_json(trace) == expected
    assert path.read_bytes() == expected.encode()


def _trace_starting_at(start_ns, events):
    # The first events of the deepseek trace, the last of them moved to start at start_ns.
    *head, last = _deepseek_trace().events[:events]
    last = last._replace(start_ns=start_ns, end_ns=start_ns + 1)
    return ScheduleTrace(events=(*head, last), iteration_ns=start_ns + 1)


@pytest.mark.parametrize("events", [1, 2 * trace_io._CHUNK], ids=["one-event", "second-chunk"])
def test_time_without_a_float_value_is_a_serialization_error(events, tmp_path):
    # 10**400 ns converts to no float: int / float raises OverflowError
    # rather than returning inf, so the check is made before any event is
    # formatted, and a written trace is never left half done.
    trace = _trace_starting_at(10**400, events)
    with pytest.raises(SerializationError, match="no float value"):
        export_trace_json(trace)
    path = tmp_path / "trace.json"
    with pytest.raises(SerializationError, match="no float value"):
        write_trace(trace, str(path))
    assert not path.exists()


def _count_events(monkeypatch):
    """A list that gains one entry per TraceEvent afpipe.sim builds from now on."""
    made = []

    def counting(*fields):
        made.append(fields)
        return TraceEvent(*fields)

    monkeypatch.setattr(sim, "TraceEvent", counting)
    return made


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", str(CONFIGS / "toy.yaml"), "--axis", "seq_len", "--values", "512,2048"],
    ["compare", "--config", str(CONFIGS / "deepseek_moe.yaml")],
    ["simulate", "--config", str(CONFIGS / "toy.yaml")],
], ids=["sweep", "compare", "simulate"])
def test_verbs_that_write_no_trace_build_no_events(argv, monkeypatch, capsys):
    made = _count_events(monkeypatch)
    assert cli.main(argv) == 0
    assert made == []


def test_simulate_trace_builds_no_events(monkeypatch, tmp_path, capsys):
    # The export formats the trace straight from its run.
    made = _count_events(monkeypatch)
    path = tmp_path / "trace.json"
    assert cli.main(["simulate", "--config", str(CONFIGS / "toy.yaml"), "--trace", str(path)]) == 0
    assert made == []
    assert len(json.loads(path.read_text())) > 0


def _graph(config, kind, microbatches=None):
    exp = dataclasses.replace(load_experiment(str(CONFIGS / config)), schedule_kind=kind)
    if microbatches is not None:
        exp = dataclasses.replace(
            exp, workload=dataclasses.replace(exp.workload, num_microbatches=microbatches))
    return build_task_graph(exp, default_allocation(exp) if kind is ScheduleKind.AFPIPE else None)


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda kind: kind.value)
def test_check_schedule_reads_the_timeline_and_builds_no_events(kind, monkeypatch):
    graph = _graph("deepseek_moe.yaml", kind, microbatches=4)
    trace, _ = simulate(graph)
    made = _count_events(monkeypatch)
    assert check_schedule(graph, trace) == []
    assert made == []
    assert trace._run is not None  # the run is kept, as no events were read
    empty = hand_built([])
    assert check_schedule(empty, simulate(empty)[0]) == []
    assert made == []


def _tables(graph, seed):
    """graph's own table, then two random ones over its keys with some zero durations."""
    rng = random.Random(seed)
    tables = [graph.table]
    for _ in range(2):
        durations = [rng.choice((0, rng.randrange(1, 10**7))) for _ in graph.table]
        durations[0] = 0
        tables.append({key: (duration, exposed)
                       for (key, (_, exposed)), duration in zip(graph.table.items(), durations)})
    return tables


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("config", ["toy.yaml", "deepseek_moe.yaml"])
def test_lazy_trace_writes_the_bytes_of_its_eager_trace(config, kind, tmp_path):
    graph = _graph(config, kind)
    lazy_path, eager_path = tmp_path / "lazy.json", tmp_path / "eager.json"
    for table in _tables(graph, f"{config} {kind.value}"):
        point = dataclasses.replace(graph, table=table)
        written, _ = simulate(point)
        exported, _ = simulate(point)
        write_trace(written, str(lazy_path))
        text = export_trace_json(exported)
        # The events still build, and correctly, after the run was written.
        assert written.events == exported.events
        assert check_schedule(point, written) == []
        eager = ScheduleTrace(written.events, written.iteration_ns)
        write_trace(eager, str(eager_path))
        assert lazy_path.read_bytes() == eager_path.read_bytes() == text.encode()


def test_lazy_time_without_a_float_value_is_a_serialization_error(tmp_path):
    exp = _experiment(3)
    graph = build_task_graph(exp, canonical_allocation(exp.cluster, 1, 1))
    retimer = Retimer(graph.walk)
    trace, _ = retimer.simulate(graph)
    *_, starts, durations = trace._run
    lazy = ScheduleTrace._of_run(retimer.plan, [10**400, *starts[1:]], durations, 10**400)
    with pytest.raises(SerializationError, match="no float value"):
        export_trace_json(lazy)
    path = tmp_path / "trace.json"
    with pytest.raises(SerializationError, match="no float value"):
        write_trace(lazy, str(path))
    assert not path.exists()


def test_write_trace_logs_events_bytes_and_wall_time_at_debug(caplog, tmp_path):
    trace = _af_trace()
    path = tmp_path / "trace.json"
    with caplog.at_level(logging.DEBUG, logger="afpipe"):
        write_trace(trace, str(path))
    [line] = [r.getMessage() for r in caplog.records if r.name == "afpipe.trace_io"]
    assert re.fullmatch(rf"write_trace: 60 events, {path.stat().st_size} bytes in [0-9.]+ ms",
                        line)
    assert not [r for r in caplog.records if r.name == "afpipe.sim"]  # no timeline built


def test_events_are_built_once_and_the_run_is_kept(monkeypatch):
    trace = _af_trace()
    run = trace._run
    made = _count_events(monkeypatch)
    events = trace.events
    assert trace._run is run
    assert trace.events is events
    assert len(made) == len(events) > 0


def test_a_trace_whose_events_were_read_still_exports_from_its_template(monkeypatch, tmp_path):
    fresh, read = _af_trace(8), _af_trace(8)
    assert read.events
    filled = []
    template = trace_io._task_template

    def counting(*args):
        filled.append(args)
        return template(*args)

    monkeypatch.setattr(trace_io, "_task_template", counting)
    paths = tmp_path / "fresh.json", tmp_path / "read.json"
    for trace, path in zip((fresh, read), paths):
        del filled[:]
        write_trace(trace, str(path))
        assert len(filled) == len(trace._run[0].walk.template.tasks) < len(read.events)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_a_trace_of_given_events_builds_its_timeline_once():
    built = _af_trace()
    given = ScheduleTrace(built.events, built.iteration_ns)
    assert given.timeline() is given.timeline()


def test_lazy_trace_equals_the_eager_trace_of_its_events():
    lazy, built = _af_trace(), _af_trace()
    eager = ScheduleTrace(events=built.events, iteration_ns=built.iteration_ns)
    assert lazy == eager and eager == lazy
    assert lazy != ScheduleTrace(events=eager.events, iteration_ns=eager.iteration_ns + 1)
    assert lazy != ScheduleTrace(events=eager.events[1:], iteration_ns=eager.iteration_ns)


# sha256 of the file simulate --trace writes for each config at each
# micro-batch count, as written before simulate built its events lazily.
TRACE_FILE_PINS = {
    ("toy.yaml", 8): "599a9e26039d6638ee0daf55e737d0458437fc3343e625b4293d0c3fa7d1c4e3",
    ("toy.yaml", 32): "b8b7b47c7ca9e7f3640f7aa18be356cc20db54616246d3f694f144fbf2e55f22",
    ("deepseek_moe.yaml", 8): "1046370a4a0e8b44d16f714f9588de3122ed755ff01415bdff4bb8f7727f6f4c",
    ("deepseek_moe.yaml", 32): "c3cd6c79e053c1728ef0a2c8b9abf35c4da08d94333da196e435faa3b6ccbb53",
}


@pytest.mark.parametrize("config,microbatches", list(TRACE_FILE_PINS))
def test_simulate_trace_file_bytes_are_pinned(config, microbatches, tmp_path, capsys):
    doc = tmp_path / config
    lines = (CONFIGS / config).read_text().splitlines(keepends=True)
    doc.write_text("".join(
        f"  num_microbatches: {microbatches}\n" if "num_microbatches:" in line else line
        for line in lines
    ))
    path = tmp_path / "trace.json"
    assert cli.main(["simulate", "--config", str(doc), "--trace", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRACE_FILE_PINS[config, microbatches]
