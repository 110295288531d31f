"""Task graphs for the four schedule families.

Every family is one walk. A micro-batch visits a fixed list of compute visits
forward, then the same list reversed as backward visits (compute becomes
backward compute). Consecutive visits on different owners are joined by a
send/recv pair that occupies the sender's and receiver's communication
sub-lanes over the same interval; consecutive visits on one owner simply
depend on each other. The families differ only in their visit lists:

  * afpipe        - A(l mod p), F(l mod p) for every layer l, joined by M2N
    exchanges (the disaggregated pipeline).
  * megatron1f1b  - one contiguous layer chunk per visit on stage j mod p,
    joined by point-to-point hidden-state transfers; the per-layer all-to-all
    (dispatch + combine) is embedded in the chunk's compute duration, i.e.
    never overlapped.
  * chunked       - like megatron1f1b, but per layer only the non-hidden part
    max(0, 2*t_a2a - t_ffn) of the all-to-all stays on the critical path
    (operator-level overlap of the exchange with expert compute).
  * naive         - attention, all-to-all, FFN, all-to-all per layer on one
    worker set, with each micro-batch chained behind the previous one.

One path turns costs into durations: visit_times() derives the forward
per-visit durations as a StageTimes from the cost model and the resources
serving one group or stage, or a caller passes a StageTimes directly (used by
tests and the bubble cross-checks). Backward compute takes BACKWARD_MULTIPLIER
times its forward duration; the staged baselines price a chunk with
staged_layer_time. All event math downstream is in integer nanoseconds.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

from .config import Experiment, ScheduleKind
from .costs import BACKWARD_MULTIPLIER, LayerCosts, StageTimes, layer_costs, staged_layer_time
from .placement import ATTN, FFN, credit


class GraphConstructionError(Exception):
    pass


class TaskKind(str, enum.Enum):
    FWD_COMPUTE = "FwdCompute"
    BWD_COMPUTE = "BwdCompute"
    M2N_SEND = "M2NSend"
    M2N_RECV = "M2NRecv"
    A2A = "A2A"
    P2P = "P2P"


class Stream(str, enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    COMM = "comm"


COMPUTE_LANE = "compute"
SEND_LANE = "comm.send"
RECV_LANE = "comm.recv"

_COMPUTE_STREAMS = {TaskKind.FWD_COMPUTE: Stream.FORWARD, TaskKind.BWD_COMPUTE: Stream.BACKWARD}


@dataclass(frozen=True, slots=True)
class Task:
    id: int
    kind: TaskKind
    owner: str
    lane: str
    duration_ns: int
    deps: tuple[int, ...]
    microbatch: int
    layer: int | None = None
    virtual_index: int = 0
    component: str | None = None
    direction: str = "fwd"
    twin: int | None = None  # co-scheduled partner of a send/recv pair
    exposed_ns: int = 0  # communication embedded in this task's duration

    @property
    def stream(self) -> Stream:
        return _COMPUTE_STREAMS.get(self.kind, Stream.COMM)


@dataclass
class TaskGraph:
    schedule_kind: ScheduleKind
    tasks: dict[int, Task] = field(default_factory=dict)
    owners: tuple[str, ...] = ()
    credits: dict[str, int] = field(default_factory=dict)
    total_flops: float = 0.0
    world_gpus: int = 0
    gpu_peak: float = 0.0

    def __len__(self) -> int:
        return len(self.tasks)


def _ns(seconds: float) -> int:
    scaled = seconds * 1e9
    if not math.isfinite(scaled):
        raise GraphConstructionError(f"duration {seconds!r} s has no finite nanosecond value")
    value = int(round(scaled))
    if value < 0:
        raise GraphConstructionError(f"negative duration: {seconds}")
    return value


def _compute_ns(seconds: float) -> tuple[tuple[int, int], tuple[int, int]]:
    """Forward and backward (duration_ns, exposed_ns) of a compute visit."""
    return (_ns(seconds), 0), (_ns(seconds * BACKWARD_MULTIPLIER), 0)


def visit_times(exp: Experiment, lc: LayerCosts, alloc=None) -> StageTimes:
    """Forward per-visit durations for exp's schedule kind, from its layer costs lc.

    Compute tasks take t_attn / t_ffn, exchanges t_m2n, collectives t_a2a
    and inter-stage transfers t_p2p, each derived from the cost model and the
    resources serving one group (disaggregated) or one stage (baselines).
    """
    cluster = exp.cluster
    peak, ib = cluster.gpu_peak, cluster.ib_bw
    per_gpu_bw = cluster.total_nics * ib / cluster.total_gpus
    a2a = float(lc.a2a_bytes_per_gpu) / per_gpu_bw

    if exp.schedule_kind is ScheduleKind.AFPIPE:
        if alloc is None:
            raise GraphConstructionError("the disaggregated schedule needs an allocation")
        p = exp.pipeline_depth
        attn = float(lc.attn_flops) * p / (peak * alloc.attn_gpus)
        ffn = float(lc.ffn_flops) * p / (peak * alloc.ffn_gpus)
        m2n = float(lc.m2n_bytes) * p / (min(alloc.attn_nics, alloc.ffn_nics) * ib)
        p2p = 0.0
    else:
        stages = 1 if exp.schedule_kind is ScheduleKind.NAIVE_SEQUENTIAL else exp.pipeline_depth
        stage_gpus = cluster.total_gpus / stages
        attn = float(lc.attn_flops) / (peak * stage_gpus)
        ffn = float(lc.ffn_flops) / (peak * stage_gpus)
        m2n = 0.0
        p2p = float(lc.hidden_bytes) / ((cluster.total_nics / stages) * ib)

    return StageTimes(t_attn=attn, t_ffn=ffn, t_a2a=a2a, t_m2n=m2n, t_p2p=p2p)


@dataclass(frozen=True)
class _Visit:
    """One stop of a micro-batch's forward walk; the backward walk retraces it."""

    owner: str
    kind: TaskKind  # FWD_COMPUTE or A2A
    fwd: tuple[int, int]  # (duration_ns, exposed_ns)
    bwd: tuple[int, int]
    layer: int | None = None
    virtual_index: int = 0
    component: str | None = None


def _walk(
    graph: TaskGraph,
    exp: Experiment,
    visits: list[_Visit],
    transfer: tuple[TaskKind, TaskKind, int] | None,
    serial: bool = False,
) -> None:
    """Add every micro-batch's forward walk over visits, then the reversed walk.

    Each task depends on the one before it. Consecutive visits on different
    owners are joined by a send/recv pair of transfer = (send kind, recv kind,
    duration_ns) that carries the source visit's layer and virtual index and
    shares its deps (the simulator enforces a common start). serial=True
    chains each micro-batch behind the previous one.
    """
    tasks = graph.tasks
    ids = itertools.count()
    prev: int | None = None
    for mb in range(exp.workload.num_microbatches):
        if not serial:
            prev = None
        src: _Visit | None = None
        for direction, walk in (("fwd", visits), ("bwd", visits[::-1])):
            for v in walk:
                if src is not None and src.owner != v.owner:
                    send_kind, recv_kind, duration = transfer
                    send, recv = next(ids), next(ids)
                    for tid, kind, owner, lane, twin in (
                        (send, send_kind, src.owner, SEND_LANE, recv),
                        (recv, recv_kind, v.owner, RECV_LANE, send),
                    ):
                        tasks[tid] = Task(
                            id=tid, kind=kind, owner=owner, lane=lane, duration_ns=duration,
                            deps=(prev,), microbatch=mb, layer=src.layer,
                            virtual_index=src.virtual_index, direction=direction, twin=twin,
                        )
                    prev = recv
                compute = v.kind is TaskKind.FWD_COMPUTE
                duration, exposed = v.fwd if direction == "fwd" else v.bwd
                tid = next(ids)
                tasks[tid] = Task(
                    id=tid,
                    kind=TaskKind.BWD_COMPUTE if compute and direction == "bwd" else v.kind,
                    owner=v.owner,
                    lane=COMPUTE_LANE if compute else SEND_LANE,
                    duration_ns=duration,
                    deps=() if prev is None else (prev,),
                    microbatch=mb,
                    layer=v.layer,
                    virtual_index=v.virtual_index,
                    component=v.component,
                    direction=direction,
                    exposed_ns=exposed,
                )
                prev, src = tid, v


def _balanced_blocks(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def build_task_graph(exp: Experiment, alloc=None, *, times: StageTimes | None = None) -> TaskGraph:
    """Build the task DAG for exp's schedule kind.

    The disaggregated schedule needs an allocation unless `times` gives the
    forward durations directly; the baselines ignore it. Group g of each side
    serves layers {g, g+p, ...} (placement.assign_layers). num_microbatches
    == 0 yields an empty graph.
    """
    graph = TaskGraph(
        schedule_kind=exp.schedule_kind,
        world_gpus=exp.cluster.total_gpus,
        gpu_peak=exp.cluster.gpu_peak,
    )
    if times is None:
        lc = layer_costs(exp.model, exp.workload, exp.ep_size)
        graph.total_flops = (
            (float(lc.attn_flops) + float(lc.ffn_flops))
            * exp.model.layers
            * exp.workload.num_microbatches
            * (1.0 + BACKWARD_MULTIPLIER)
        )

    if exp.workload.num_microbatches == 0:
        return graph
    vt = times if times is not None else visit_times(exp, lc, alloc)

    if exp.schedule_kind is ScheduleKind.AFPIPE:
        _build_afpipe(graph, exp, vt)
    elif exp.schedule_kind is ScheduleKind.NAIVE_SEQUENTIAL:
        _build_naive(graph, exp, vt)
    else:
        _build_staged(graph, exp, vt, overlap=exp.schedule_kind is ScheduleKind.CHUNKED_OVERLAP)
    return graph


def afpipe_durations(vt: StageTimes) -> dict[tuple[TaskKind, str | None], int]:
    """duration_ns of every disaggregated-schedule task, by (kind, component).

    Five values: attention and FFN forward and backward compute, and the M2N
    exchange on both sides. They are all an afpipe graph takes from its
    split; its tasks, dependencies, owners, lanes and credits do not change.
    """
    (attn_fwd, _), (attn_bwd, _) = _compute_ns(vt.t_attn)
    (ffn_fwd, _), (ffn_bwd, _) = _compute_ns(vt.t_ffn)
    m2n = _ns(vt.t_m2n)
    return {
        (TaskKind.FWD_COMPUTE, ATTN): attn_fwd,
        (TaskKind.BWD_COMPUTE, ATTN): attn_bwd,
        (TaskKind.FWD_COMPUTE, FFN): ffn_fwd,
        (TaskKind.BWD_COMPUTE, FFN): ffn_bwd,
        (TaskKind.M2N_SEND, None): m2n,
        (TaskKind.M2N_RECV, None): m2n,
    }


def _build_afpipe(graph: TaskGraph, exp: Experiment, vt: StageTimes) -> None:
    """Layer l visits A(l mod p) then F(l mod p); every hop is an M2N exchange."""
    p = exp.pipeline_depth
    layers = exp.model.layers
    ns = afpipe_durations(vt)

    graph.owners = tuple(f"A{g}" for g in range(p)) + tuple(f"F{g}" for g in range(p))
    for g in range(p):
        for component in (ATTN, FFN):
            graph.credits[f"{component}{g}"] = credit(layers, g, component)

    visits = [
        _Visit(f"{component}{layer % p}", TaskKind.FWD_COMPUTE,
               (ns[TaskKind.FWD_COMPUTE, component], 0), (ns[TaskKind.BWD_COMPUTE, component], 0),
               layer=layer, virtual_index=layer // p, component=component)
        for layer in range(layers)
        for component in (ATTN, FFN)
    ]
    _walk(graph, exp, visits,
          (TaskKind.M2N_SEND, TaskKind.M2N_RECV, ns[TaskKind.M2N_SEND, None]))


def _build_staged(graph: TaskGraph, exp: Experiment, vt: StageTimes, overlap: bool) -> None:
    """Megatron-style 1F1B over contiguous chunks, interleaved across stages."""
    pp, v = exp.pipeline_depth, exp.virtual_stages
    chunks = pp * v
    sizes = _balanced_blocks(exp.model.layers, chunks)
    if min(sizes) < 1:
        raise GraphConstructionError(
            f"{chunks} chunks cannot be filled from {exp.model.layers} layers"
        )

    graph.owners = tuple(f"S{i}" for i in range(pp))
    for i in range(pp):
        graph.credits[f"S{i}"] = max(1, chunks - i)

    fwd_layer = staged_layer_time(vt.t_attn, vt.t_ffn, vt.t_a2a, overlap)
    bwd_layer = staged_layer_time(
        vt.t_attn * BACKWARD_MULTIPLIER, vt.t_ffn * BACKWARD_MULTIPLIER, vt.t_a2a, overlap
    )
    visits = [
        _Visit(f"S{j % pp}", TaskKind.FWD_COMPUTE,
               (_ns(n * fwd_layer[0]), _ns(n * fwd_layer[1])),
               (_ns(n * bwd_layer[0]), _ns(n * bwd_layer[1])),
               virtual_index=j // pp)
        for j, n in enumerate(sizes)
    ]
    _walk(graph, exp, visits, (TaskKind.P2P, TaskKind.P2P, _ns(vt.t_p2p)))


def _build_naive(graph: TaskGraph, exp: Experiment, vt: StageTimes) -> None:
    """Fully serial reference: compute and collectives strictly alternate."""
    owner = "SEQ"
    graph.owners = (owner,)
    graph.credits[owner] = 1
    attn, ffn = _compute_ns(vt.t_attn), _compute_ns(vt.t_ffn)
    a2a = (_ns(vt.t_a2a), 0)

    visits = []
    for layer in range(exp.model.layers):
        visits += [
            _Visit(owner, TaskKind.FWD_COMPUTE, *attn, layer=layer, component=ATTN),
            _Visit(owner, TaskKind.A2A, a2a, a2a, layer=layer),
            _Visit(owner, TaskKind.FWD_COMPUTE, *ffn, layer=layer, component=FFN),
            _Visit(owner, TaskKind.A2A, a2a, a2a, layer=layer),
        ]
    _walk(graph, exp, visits, None, serial=True)
