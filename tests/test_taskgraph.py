import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest
from timed_graph import timed_graph

from afpipe.allocator import canonical_allocation, default_allocation
from afpipe.config import (
    ClusterConfig,
    Experiment,
    ModelConfig,
    ScheduleKind,
    Workload,
    load_experiment,
)
from afpipe.config import validate
from afpipe.costs import StageTimes, layer_costs
from afpipe.sim import SchedulePlan, durations_ns, simulate
from afpipe.taskgraph import (
    GraphConstructionError,
    Stream,
    Task,
    TaskKind,
    build_task_graph,
    duration_table,
    visit_times,
)
from afpipe.trace_io import export_trace_json


def _experiment(kind, layers, depth, stages, microbatches=1, gpus=2, nics=2, ep=2):
    return Experiment(
        model=ModelConfig(layers=layers, hidden=64, experts=8, topk=2, moe_hidden=64),
        workload=Workload(seq_len=64, micro_batch=1, num_microbatches=microbatches),
        cluster=ClusterConfig(total_gpus=gpus, gpus_per_node=2, total_nics=nics,
                              gpu_peak=1e12, ib_bw=1e10),
        schedule_kind=kind,
        pipeline_depth=depth,
        virtual_stages=stages,
        ep_size=ep,
    )


def _af_graph(exp):
    return build_task_graph(exp, canonical_allocation(exp.cluster, 1, 1))


def _count(graph, kind):
    return sum(1 for t in graph.tasks.values() if t.kind is kind)


def _entries(graph):
    """Each task's (duration_ns, exposed_ns) by task id: the table entry of its key."""
    return {tid: graph.table[key] for tid, key in zip(graph.tasks, graph.keys)}


def test_single_layer_disaggregated_graph_shape():
    exp = _experiment(ScheduleKind.AFPIPE, layers=1, depth=1, stages=1)
    graph = _af_graph(exp)
    assert _count(graph, TaskKind.FWD_COMPUTE) == 2  # attention + FFN
    assert _count(graph, TaskKind.BWD_COMPUTE) == 2
    assert _count(graph, TaskKind.M2N_SEND) == 2
    assert _count(graph, TaskKind.M2N_RECV) == 2
    assert len(graph) == 8
    assert {(t.kind, t.stream) for t in graph.tasks.values()} == {
        (TaskKind.FWD_COMPUTE, Stream.FORWARD),
        (TaskKind.BWD_COMPUTE, Stream.BACKWARD),
        (TaskKind.M2N_SEND, Stream.COMM),
        (TaskKind.M2N_RECV, Stream.COMM),
    }


def test_zero_microbatches_build_empty_graph():
    exp = _experiment(ScheduleKind.AFPIPE, layers=1, depth=1, stages=1, microbatches=0)
    assert len(_af_graph(exp)) == 0


def test_staged_baseline_embeds_all_to_all_in_compute():
    exp = _experiment(ScheduleKind.MEGATRON_1F1B, layers=2, depth=2, stages=1)
    graph = timed_graph(exp)
    fwd = [t for t in graph.tasks.values() if t.kind is TaskKind.FWD_COMPUTE]
    entry = _entries(graph)
    # One chunk of one layer per stage: attention + FFN + two exchanges.
    assert all(entry[t.id][0] == int(4e6) for t in fwd)
    assert all(entry[t.id][1] == int(2e6) for t in fwd)
    assert _count(graph, TaskKind.P2P) == 2 * 2 * 1  # send+recv, fwd and bwd
    assert _count(graph, TaskKind.A2A) == 0


def test_chunked_baseline_hides_exchange_behind_expert_compute():
    exp = _experiment(ScheduleKind.CHUNKED_OVERLAP, layers=2, depth=2, stages=1)
    graph = timed_graph(exp)
    fwd = [t for t in graph.tasks.values() if t.kind is TaskKind.FWD_COMPUTE]
    entry = _entries(graph)
    # Per layer: t_attn + max(t_ffn, 2 t_a2a) = 3 ms, exposed = 1 ms.
    assert all(entry[t.id][0] == int(3e6) for t in fwd)
    assert all(entry[t.id][1] == int(1e6) for t in fwd)


def test_naive_graph_serializes_collectives_as_tasks():
    exp = _experiment(ScheduleKind.NAIVE_SEQUENTIAL, layers=2, depth=1, stages=1,
                      microbatches=3)
    graph = timed_graph(exp)
    # Two collectives per layer per direction.
    assert _count(graph, TaskKind.A2A) == 3 * 2 * 2 * 2
    assert graph.topology.credits == (("SEQ", 1),)


def test_graph_is_acyclic_and_deps_resolve():
    exp = _experiment(ScheduleKind.AFPIPE, layers=6, depth=2, stages=3, microbatches=3)
    graph = _af_graph(exp)
    ids = set(graph.tasks)
    for task in graph.tasks.values():
        for dep in task.deps:
            assert dep in ids
            assert dep < task.id  # construction order is topological


def test_transfer_pairs_are_twinned_with_equal_duration():
    exp = _experiment(ScheduleKind.AFPIPE, layers=2, depth=1, stages=2, microbatches=2)
    graph = _af_graph(exp)
    entry = _entries(graph)
    for task in graph.tasks.values():
        if task.twin is not None:
            twin = graph.tasks[task.twin]
            assert twin.twin == task.id
            assert entry[twin.id][0] == entry[task.id][0]
            assert {task.kind, twin.kind} <= {TaskKind.M2N_SEND, TaskKind.M2N_RECV, TaskKind.P2P}


def test_task_fields_cannot_be_assigned():
    exp = load_experiment(str(TOY))
    task = next(iter(build_task_graph(exp, default_allocation(exp)).tasks.values()))
    with pytest.raises(AttributeError):
        task.deps = ()


def test_afpipe_without_allocation_rejected():
    exp = _experiment(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2)
    with pytest.raises(GraphConstructionError):
        build_task_graph(exp)


def test_afpipe_without_allocation_rejected_at_zero_microbatches():
    # An empty walk is still priced, so the missing allocation shows at any count.
    exp = _experiment(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=0)
    with pytest.raises(GraphConstructionError, match="needs an allocation"):
        build_task_graph(exp)


def test_backward_multiplier_scales_backward_tasks():
    # Backward compute takes exactly twice its forward visit, per component.
    exp = _experiment(ScheduleKind.AFPIPE, layers=2, depth=1, stages=2)
    times = StageTimes(t_attn=1e-3, t_ffn=3e-3, t_a2a=0.0, t_m2n=1e-3, t_p2p=0.0)
    graph = timed_graph(exp, times)
    entry = _entries(graph)
    fwd = {(t.component, t.layer): entry[t.id][0] for t in graph.tasks.values()
           if t.kind is TaskKind.FWD_COMPUTE}
    bwd = {(t.component, t.layer): entry[t.id][0] for t in graph.tasks.values()
           if t.kind is TaskKind.BWD_COMPUTE}
    assert fwd == {("A", 0): 1_000_000, ("F", 0): 3_000_000,
                   ("A", 1): 1_000_000, ("F", 1): 3_000_000}
    assert bwd == {key: 2 * value for key, value in fwd.items()}


TOY = Path(__file__).resolve().parent.parent / "configs" / "toy.yaml"

# sha256 over every task's row in id order and the credits of the graph
# built from configs/toy.yaml at each depth (virtual stages fill the 4
# layers). A row is the task's fields with its table entry put back where Task
# once held it: duration_ns after lane, exposed_ns last, so rows hash as they
# did before tasks lost their durations. The hashes were re-recorded when the
# digest dropped the owner list (a reordering of the credit keys): on the
# graph code that still had it, where they passed, and they held unchanged
# once it was gone. Task ids feed the scheduler's tie-break and the trace, so
# a change in creation order, metadata or durations shows here.
GRAPH_PINS = {
    (ScheduleKind.AFPIPE, 1):
        "f80e7eb20764eaaa9780d1c3cf0c14e0330a13c049b05b20f286bae1f0ac22bb",
    (ScheduleKind.AFPIPE, 2):
        "3bc0166c1ab1beef0e1b7725f541d25f3db6f8603f8c18ef4680d99621f0ada6",
    (ScheduleKind.AFPIPE, 4):
        "6cfe78eaa68a776b9beb74e88e1984e99d52234a2159f715dc0566d618508b7a",
    (ScheduleKind.MEGATRON_1F1B, 1):
        "7cc7eef8ae65e14d911384e58cd42c1d6b50aa592a437490e303c4afc8d1fed0",
    (ScheduleKind.MEGATRON_1F1B, 2):
        "7a1c11b51a473ae749f0d73205cf7ee686d10acd3723158fdca80f53691fb40d",
    (ScheduleKind.MEGATRON_1F1B, 4):
        "2a3756c05e45fe241e11d2d8efc966762101cd8ff9f5c472af95003a6274dcdd",
    (ScheduleKind.CHUNKED_OVERLAP, 1):
        "cf0c1573b196cba4851d00202666511c5835b0a983d8448c999b80de93627dd0",
    (ScheduleKind.CHUNKED_OVERLAP, 2):
        "a8dcc5879f198b6261433fbbb8ecd845ee562c0d9ebec2231620f974417b9e54",
    (ScheduleKind.CHUNKED_OVERLAP, 4):
        "ea37bc5108d626f62ad5df6c8015092a110dc585d4180bf32766140cae7a153f",
    (ScheduleKind.NAIVE_SEQUENTIAL, 1):
        "122a75f067803c59d70753ea7e51b5a47c85fbd14ea0b4edf94e60c43d6e2684",
    (ScheduleKind.NAIVE_SEQUENTIAL, 2):
        "122a75f067803c59d70753ea7e51b5a47c85fbd14ea0b4edf94e60c43d6e2684",
    (ScheduleKind.NAIVE_SEQUENTIAL, 4):
        "122a75f067803c59d70753ea7e51b5a47c85fbd14ea0b4edf94e60c43d6e2684",
}


def _graph_digest(graph):
    entry = _entries(graph)

    def row(task):
        values = [value.value if isinstance(value, enum.Enum) else value for value in task]
        duration, exposed = entry[task.id]
        return [*values[:Task._fields.index("lane") + 1], duration,
                *values[Task._fields.index("deps"):], exposed]

    doc = {
        "tasks": [row(graph.tasks[tid]) for tid in sorted(graph.tasks)],
        "credits": sorted(graph.credits.items()),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("kind,depth", list(GRAPH_PINS), ids=lambda v: getattr(v, "value", v))
def test_toy_graphs_are_pinned(kind, depth):
    base = load_experiment(str(TOY))
    exp = dataclasses.replace(base, schedule_kind=kind, pipeline_depth=depth,
                              virtual_stages=base.model.layers // depth)
    graph = build_task_graph(exp, default_allocation(exp))
    assert _graph_digest(graph) == GRAPH_PINS[(kind, depth)]


DEEPSEEK = TOY.parent / "deepseek_moe.yaml"


def _with_workload(exp, **changes):
    return dataclasses.replace(exp, workload=dataclasses.replace(exp.workload, **changes))


def _points_of_one_topology(exp):
    """exp, then three other sequence lengths and one other top-k."""
    seq_len = exp.workload.seq_len
    return [
        exp,
        *[_with_workload(exp, seq_len=s) for s in (seq_len // 2, seq_len * 2, seq_len * 3)],
        dataclasses.replace(exp, model=dataclasses.replace(exp.model, topk=exp.model.topk - 1)),
    ]


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
@pytest.mark.parametrize("config,virtual_stages", [
    (TOY, None), (DEEPSEEK, None), (DEEPSEEK, 3),  # 28 layers in 6 chunks: sizes 5 and 4
], ids=["toy", "deepseek", "deepseek-uneven-chunks"])
def test_one_plan_retimes_every_point_of_its_topology(kind, config, virtual_stages):
    # Every duration a graph takes from its point is in its table, keyed as
    # graph.keys says, so the same tasks and one plan, run under another
    # point's table, are that point's simulation. total_flops, the MFU
    # numerator, is the one other field a point changes.
    exp = _with_workload(load_experiment(str(config)), num_microbatches=3)
    exp = dataclasses.replace(exp, schedule_kind=kind,
                              virtual_stages=virtual_stages or exp.virtual_stages)
    alloc = default_allocation(exp)
    graph = build_task_graph(exp, alloc)
    plan = SchedulePlan(graph.walk)
    makespans = set()
    for point in _points_of_one_topology(exp):
        assert validate(point) == []
        table = duration_table(point, visit_times(point, layer_costs(
            point.model, point.workload, point.ep_size), alloc))
        fresh = build_task_graph(point, alloc)
        assert fresh.keys == graph.keys
        assert fresh.tasks == graph.tasks
        assert fresh.table == table
        trace, result = simulate(fresh)
        retrace, reresult = simulate(
            dataclasses.replace(graph, table=table, total_flops=fresh.total_flops))
        assert reresult == result
        assert export_trace_json(retrace) == export_trace_json(trace)
        makespan = plan.run(durations_ns(graph.keys, table))[1]
        assert makespan == trace.iteration_ns
        makespans.add(makespan)
    assert len(makespans) == 5


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda kind: kind.value)
def test_each_distinct_key_is_one_object(kind):
    exp = dataclasses.replace(load_experiment(str(DEEPSEEK)), schedule_kind=kind)
    graph = build_task_graph(exp, default_allocation(exp))
    assert len({id(key) for key in graph.keys}) == len(set(graph.keys)) < len(graph.keys)
    assert all(type(task) is Task for task in graph.tasks.values())
