import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest

from afpipe.allocator import canonical_allocation, default_allocation
from afpipe.config import (
    ClusterConfig,
    Experiment,
    ModelConfig,
    ScheduleKind,
    Workload,
    load_experiment,
)
from afpipe.costs import StageTimes
from afpipe.taskgraph import (
    GraphConstructionError,
    Stream,
    Task,
    TaskKind,
    build_task_graph,
)

UNIFORM = StageTimes(t_attn=1e-3, t_ffn=1e-3, t_a2a=1e-3, t_m2n=1e-3, t_p2p=0.0)


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


def _af_graph(exp, **kw):
    alloc = canonical_allocation(exp.cluster, 1, 1)
    return build_task_graph(exp, alloc, **kw)


def _count(graph, kind):
    return sum(1 for t in graph.tasks.values() if t.kind is kind)


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
    graph = build_task_graph(exp, times=UNIFORM)
    fwd = [t for t in graph.tasks.values() if t.kind is TaskKind.FWD_COMPUTE]
    # One chunk of one layer per stage: attention + FFN + two exchanges.
    assert all(t.duration_ns == int(4e6) for t in fwd)
    assert all(t.exposed_ns == int(2e6) for t in fwd)
    assert _count(graph, TaskKind.P2P) == 2 * 2 * 1  # send+recv, fwd and bwd
    assert _count(graph, TaskKind.A2A) == 0


def test_chunked_baseline_hides_exchange_behind_expert_compute():
    exp = _experiment(ScheduleKind.CHUNKED_OVERLAP, layers=2, depth=2, stages=1)
    graph = build_task_graph(exp, times=UNIFORM)
    fwd = [t for t in graph.tasks.values() if t.kind is TaskKind.FWD_COMPUTE]
    # Per layer: t_attn + max(t_ffn, 2 t_a2a) = 3 ms, exposed = 1 ms.
    assert all(t.duration_ns == int(3e6) for t in fwd)
    assert all(t.exposed_ns == int(1e6) for t in fwd)


def test_naive_graph_serializes_collectives_as_tasks():
    exp = _experiment(ScheduleKind.NAIVE_SEQUENTIAL, layers=2, depth=1, stages=1,
                      microbatches=3)
    graph = build_task_graph(exp, times=UNIFORM)
    # Two collectives per layer per direction.
    assert _count(graph, TaskKind.A2A) == 3 * 2 * 2 * 2
    assert graph.owners == ("SEQ",)


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
    for task in graph.tasks.values():
        if task.twin is not None:
            twin = graph.tasks[task.twin]
            assert twin.twin == task.id
            assert twin.duration_ns == task.duration_ns
            assert {task.kind, twin.kind} <= {TaskKind.M2N_SEND, TaskKind.M2N_RECV, TaskKind.P2P}


def test_afpipe_without_allocation_rejected():
    exp = _experiment(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2)
    with pytest.raises(GraphConstructionError):
        build_task_graph(exp)


def test_backward_multiplier_scales_backward_tasks():
    # Backward compute takes exactly twice its forward visit, per component.
    exp = _experiment(ScheduleKind.AFPIPE, layers=2, depth=1, stages=2)
    times = StageTimes(t_attn=1e-3, t_ffn=3e-3, t_a2a=0.0, t_m2n=1e-3, t_p2p=0.0)
    graph = _af_graph(exp, times=times)
    fwd = {(t.component, t.layer): t.duration_ns for t in graph.tasks.values()
           if t.kind is TaskKind.FWD_COMPUTE}
    bwd = {(t.component, t.layer): t.duration_ns for t in graph.tasks.values()
           if t.kind is TaskKind.BWD_COMPUTE}
    assert fwd == {("A", 0): 1_000_000, ("F", 0): 3_000_000,
                   ("A", 1): 1_000_000, ("F", 1): 3_000_000}
    assert bwd == {key: 2 * value for key, value in fwd.items()}


TOY = Path(__file__).resolve().parent.parent / "configs" / "toy.yaml"

# sha256 over every Task field in id order, the owners and the credits of the
# graph built from configs/toy.yaml at each depth (virtual stages fill the 4
# layers). Task ids feed the scheduler's tie-break and the trace, so a change
# in creation order, metadata or durations shows here.
GRAPH_PINS = {
    (ScheduleKind.AFPIPE, 1):
        "b4a77ad535939ad98246649b1924f807331d16009c90b17dc3a3eaac4232f2fa",
    (ScheduleKind.AFPIPE, 2):
        "66f2e706281f240e2ccec41f2847491bed8e9f0aa804fa596b15676f4178b6ee",
    (ScheduleKind.AFPIPE, 4):
        "20036e3d160252d75e7a6e989cde965e027149b88247c416f69a8d611f96794a",
    (ScheduleKind.MEGATRON_1F1B, 1):
        "cd6e50c5641f6785c362c455fceede0f0a5342345e2c4d9e8494e15bb6ecfb5b",
    (ScheduleKind.MEGATRON_1F1B, 2):
        "436cc183cddb116a385f69b310544e8d8ed290989763981381d81e376a529fd7",
    (ScheduleKind.MEGATRON_1F1B, 4):
        "242bfea546d0487c8f1a828d6c151e4bbfaae0c484ba08afefb7d2489f185aca",
    (ScheduleKind.CHUNKED_OVERLAP, 1):
        "b5cc37197ec240a8ba07249e81e54d600dfea165fd301b6b3de90eb006782f9c",
    (ScheduleKind.CHUNKED_OVERLAP, 2):
        "31c4ea67365eddd788dc2e7fb64f86787af430c0efa141d186bc73535541806d",
    (ScheduleKind.CHUNKED_OVERLAP, 4):
        "8a7d8717c10b1383f2285007d6499143c2cf280ef343a15d1d65a45954a92aa4",
    (ScheduleKind.NAIVE_SEQUENTIAL, 1):
        "64d79ca1bde344e504a471b9b611d21c710cd0e949dfa5fa6cede0f949aa77bc",
    (ScheduleKind.NAIVE_SEQUENTIAL, 2):
        "64d79ca1bde344e504a471b9b611d21c710cd0e949dfa5fa6cede0f949aa77bc",
    (ScheduleKind.NAIVE_SEQUENTIAL, 4):
        "64d79ca1bde344e504a471b9b611d21c710cd0e949dfa5fa6cede0f949aa77bc",
}


def _graph_digest(graph):
    def plain(value):
        return value.value if isinstance(value, enum.Enum) else value

    names = [f.name for f in dataclasses.fields(Task)]
    doc = {
        "tasks": [[plain(getattr(graph.tasks[tid], n)) for n in names] for tid in sorted(graph.tasks)],
        "owners": list(graph.owners),
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
