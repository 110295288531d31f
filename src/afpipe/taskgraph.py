"""Task graphs for the four schedule families.

The disaggregated pipeline alternates attention and FFN groups: a micro-batch
visits A(l mod p) -> exchange -> F(l mod p) -> exchange -> A((l+1) mod p) ...
across all layers, then retraces the chain backward with gradient exchanges in
the reverse direction. Exchanges are send/recv task pairs that occupy the
sender's and receiver's communication sub-lanes simultaneously.

Baselines:
  * megatron1f1b  - p stages of contiguous layer chunks; the per-layer
    all-to-all (dispatch + combine) is embedded in the chunk's compute
    duration, i.e. never overlapped; chunks are linked by point-to-point
    hidden-state transfers.
  * chunked       - like megatron1f1b, but per layer only the non-hidden part
    max(0, 2*t_a2a - t_ffn) of the all-to-all stays on the critical path
    (operator-level overlap of the exchange with expert compute).
  * naive         - one worker set running everything serially.

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
from dataclasses import dataclass, field

from .config import Experiment, ScheduleKind
from .costs import BACKWARD_MULTIPLIER, StageTimes, layer_costs, staged_layer_time
from .placement import ATTN, FFN


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


@dataclass(frozen=True)
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
    num_microbatches: int = 0
    total_flops: float = 0.0
    world_gpus: int = 0
    gpu_peak: float = 0.0

    def __len__(self) -> int:
        return len(self.tasks)


def _ns(seconds: float) -> int:
    value = int(round(seconds * 1e9))
    if value < 0:
        raise GraphConstructionError(f"negative duration: {seconds}")
    return value


def visit_times(exp: Experiment, alloc=None) -> StageTimes:
    """Forward per-visit durations for exp's schedule kind.

    Compute tasks take t_attn / t_ffn, exchanges t_m2n, collectives t_a2a
    and inter-stage transfers t_p2p, each derived from the cost model and the
    resources serving one group (disaggregated) or one stage (baselines).
    """
    cluster = exp.cluster
    lc = layer_costs(exp.model, exp.workload, exp.ep_size)
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


class _Builder:
    def __init__(self, graph: TaskGraph):
        self.graph = graph
        self._ids = itertools.count()

    def add(
        self,
        kind: TaskKind,
        owner: str,
        lane: str,
        duration_ns: int,
        deps: tuple[int, ...],
        microbatch: int,
        **meta,
    ) -> int:
        tid = next(self._ids)
        self.graph.tasks[tid] = Task(
            id=tid,
            kind=kind,
            owner=owner,
            lane=lane,
            duration_ns=duration_ns,
            deps=deps,
            microbatch=microbatch,
            **meta,
        )
        return tid

    def add_transfer(
        self,
        send_kind: TaskKind,
        recv_kind: TaskKind,
        src: str,
        dst: str,
        duration_ns: int,
        deps: tuple[int, ...],
        microbatch: int,
        **meta,
    ) -> tuple[int, int]:
        """Send/recv pair sharing deps and (enforced by the simulator) a start."""
        send_id = next(self._ids)
        recv_id = next(self._ids)
        self.graph.tasks[send_id] = Task(
            id=send_id,
            kind=send_kind,
            owner=src,
            lane=SEND_LANE,
            duration_ns=duration_ns,
            deps=deps,
            microbatch=microbatch,
            twin=recv_id,
            **meta,
        )
        self.graph.tasks[recv_id] = Task(
            id=recv_id,
            kind=recv_kind,
            owner=dst,
            lane=RECV_LANE,
            duration_ns=duration_ns,
            deps=deps,
            microbatch=microbatch,
            twin=send_id,
            **meta,
        )
        return send_id, recv_id


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
        num_microbatches=exp.workload.num_microbatches,
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
    vt = times if times is not None else visit_times(exp, alloc)

    if exp.schedule_kind is ScheduleKind.AFPIPE:
        _build_afpipe(graph, exp, vt)
    elif exp.schedule_kind is ScheduleKind.NAIVE_SEQUENTIAL:
        _build_naive(graph, exp, vt)
    else:
        _build_staged(graph, exp, vt, overlap=exp.schedule_kind is ScheduleKind.CHUNKED_OVERLAP)
    return graph


def _build_afpipe(graph: TaskGraph, exp: Experiment, vt: StageTimes) -> None:
    p = exp.pipeline_depth
    layers = exp.model.layers
    b = _Builder(graph)
    attn_fwd, ffn_fwd = _ns(vt.t_attn), _ns(vt.t_ffn)
    attn_bwd = _ns(vt.t_attn * BACKWARD_MULTIPLIER)
    ffn_bwd = _ns(vt.t_ffn * BACKWARD_MULTIPLIER)
    m2n = _ns(vt.t_m2n)

    graph.owners = tuple(f"A{g}" for g in range(p)) + tuple(f"F{g}" for g in range(p))
    # 1F1B credit: visits at or after the group's first appearance in the
    # forward chain (A0 F0 A1 F1 ... repeated across depth).
    total_visits = 2 * layers
    for g in range(p):
        graph.credits[f"A{g}"] = max(1, total_visits - 2 * g)
        graph.credits[f"F{g}"] = max(1, total_visits - (2 * g + 1))

    for mb in range(exp.workload.num_microbatches):
        prev: int | None = None
        last_fwd = 0
        for layer in range(layers):
            g, k = layer % p, layer // p
            deps = (prev,) if prev is not None else ()
            a = b.add(TaskKind.FWD_COMPUTE, f"A{g}", COMPUTE_LANE, attn_fwd,
                      deps, mb, layer=layer, virtual_index=k, component=ATTN)
            _, recv = b.add_transfer(TaskKind.M2N_SEND, TaskKind.M2N_RECV, f"A{g}", f"F{g}",
                                     m2n, (a,), mb, layer=layer, virtual_index=k)
            f = b.add(TaskKind.FWD_COMPUTE, f"F{g}", COMPUTE_LANE, ffn_fwd,
                      (recv,), mb, layer=layer, virtual_index=k, component=FFN)
            if layer < layers - 1:
                nxt = (layer + 1) % p
                _, recv = b.add_transfer(TaskKind.M2N_SEND, TaskKind.M2N_RECV, f"F{g}", f"A{nxt}",
                                         m2n, (f,), mb, layer=layer, virtual_index=k)
                prev = recv
            else:
                last_fwd = f

        prev = last_fwd
        for layer in range(layers - 1, -1, -1):
            g, k = layer % p, layer // p
            fb = b.add(TaskKind.BWD_COMPUTE, f"F{g}", COMPUTE_LANE, ffn_bwd,
                       (prev,), mb, layer=layer, virtual_index=k, component=FFN, direction="bwd")
            _, recv = b.add_transfer(TaskKind.M2N_SEND, TaskKind.M2N_RECV, f"F{g}", f"A{g}",
                                     m2n, (fb,), mb, layer=layer, virtual_index=k, direction="bwd")
            ab = b.add(TaskKind.BWD_COMPUTE, f"A{g}", COMPUTE_LANE, attn_bwd,
                       (recv,), mb, layer=layer, virtual_index=k, component=ATTN, direction="bwd")
            if layer > 0:
                nxt = (layer - 1) % p
                _, recv = b.add_transfer(TaskKind.M2N_SEND, TaskKind.M2N_RECV, f"A{g}", f"F{nxt}",
                                         m2n, (ab,), mb, layer=layer, virtual_index=k, direction="bwd")
                prev = recv


def _build_staged(graph: TaskGraph, exp: Experiment, vt: StageTimes, overlap: bool) -> None:
    """Megatron-style 1F1B over contiguous chunks, interleaved across stages."""
    pp, v = exp.pipeline_depth, exp.virtual_stages
    chunks = pp * v
    sizes = _balanced_blocks(exp.model.layers, chunks)
    if min(sizes) < 1:
        raise GraphConstructionError(
            f"{chunks} chunks cannot be filled from {exp.model.layers} layers"
        )
    b = _Builder(graph)
    p2p = _ns(vt.t_p2p)

    graph.owners = tuple(f"S{i}" for i in range(pp))
    for i in range(pp):
        graph.credits[f"S{i}"] = max(1, chunks - i)

    fwd_layer = staged_layer_time(vt.t_attn, vt.t_ffn, vt.t_a2a, overlap)
    bwd_layer = staged_layer_time(
        vt.t_attn * BACKWARD_MULTIPLIER, vt.t_ffn * BACKWARD_MULTIPLIER, vt.t_a2a, overlap
    )

    def chunk_ns(n_layers: int, fwd: bool) -> tuple[int, int]:
        per_layer, exposed = fwd_layer if fwd else bwd_layer
        return _ns(n_layers * per_layer), _ns(n_layers * exposed)

    for mb in range(exp.workload.num_microbatches):
        prev: int | None = None
        for j in range(chunks):
            dur, exposed = chunk_ns(sizes[j], fwd=True)
            deps = (prev,) if prev is not None else ()
            t = b.add(TaskKind.FWD_COMPUTE, f"S{j % pp}", COMPUTE_LANE, dur,
                      deps, mb, virtual_index=j // pp, exposed_ns=exposed)
            if j < chunks - 1 and (j + 1) % pp != j % pp:
                _, recv = b.add_transfer(TaskKind.P2P, TaskKind.P2P, f"S{j % pp}", f"S{(j + 1) % pp}",
                                         p2p, (t,), mb, virtual_index=j // pp)
                prev = recv
            else:
                prev = t
        for j in range(chunks - 1, -1, -1):
            dur, exposed = chunk_ns(sizes[j], fwd=False)
            t = b.add(TaskKind.BWD_COMPUTE, f"S{j % pp}", COMPUTE_LANE, dur,
                      (prev,), mb, virtual_index=j // pp, direction="bwd", exposed_ns=exposed)
            if j > 0 and (j - 1) % pp != j % pp:
                _, recv = b.add_transfer(TaskKind.P2P, TaskKind.P2P, f"S{j % pp}", f"S{(j - 1) % pp}",
                                         p2p, (t,), mb, virtual_index=j // pp, direction="bwd")
                prev = recv
            else:
                prev = t


def _build_naive(graph: TaskGraph, exp: Experiment, vt: StageTimes) -> None:
    """Fully serial reference: compute and collectives strictly alternate."""
    b = _Builder(graph)
    owner = "SEQ"
    graph.owners = (owner,)
    graph.credits[owner] = 1
    attn_fwd, ffn_fwd = _ns(vt.t_attn), _ns(vt.t_ffn)
    attn_bwd = _ns(vt.t_attn * BACKWARD_MULTIPLIER)
    ffn_bwd = _ns(vt.t_ffn * BACKWARD_MULTIPLIER)
    a2a = _ns(vt.t_a2a)

    prev: int | None = None
    for mb in range(exp.workload.num_microbatches):
        for layer in range(exp.model.layers):
            deps = (prev,) if prev is not None else ()
            a = b.add(TaskKind.FWD_COMPUTE, owner, COMPUTE_LANE, attn_fwd,
                      deps, mb, layer=layer, component=ATTN)
            d = b.add(TaskKind.A2A, owner, SEND_LANE, a2a, (a,), mb, layer=layer)
            f = b.add(TaskKind.FWD_COMPUTE, owner, COMPUTE_LANE, ffn_fwd,
                      (d,), mb, layer=layer, component=FFN)
            prev = b.add(TaskKind.A2A, owner, SEND_LANE, a2a, (f,), mb, layer=layer)
        for layer in range(exp.model.layers - 1, -1, -1):
            g1 = b.add(TaskKind.A2A, owner, SEND_LANE, a2a, (prev,), mb,
                       layer=layer, direction="bwd")
            fb = b.add(TaskKind.BWD_COMPUTE, owner, COMPUTE_LANE, ffn_bwd,
                       (g1,), mb, layer=layer, component=FFN, direction="bwd")
            g2 = b.add(TaskKind.A2A, owner, SEND_LANE, a2a, (fb,), mb,
                       layer=layer, direction="bwd")
            prev = b.add(TaskKind.BWD_COMPUTE, owner, COMPUTE_LANE, attn_bwd,
                         (g2,), mb, layer=layer, component=ATTN, direction="bwd")
