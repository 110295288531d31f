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

One path turns costs into durations. visit_times() derives the forward
per-layer seconds (a StageTimes) from the cost model and the resources
serving one group or stage, and duration_table() alone turns them into
(duration_ns, exposed_ns) entries by duration key. A graph is its walk
(a Walk: its tasks, which hold only topology, each task's table key and
each owner's 1F1B credit) plus TaskGraph.table, the table it was built
under. Backward compute takes BACKWARD_MULTIPLIER times its forward
duration; the staged baselines price a chunk with staged_layer_time. Event
math is in integer nanoseconds.

A built graph's walk comes from its topology: the walk's own inputs (a
Topology), which graph_topology reads from the experiment alone. Every
micro-batch walks the same visits, so the walk of a topology is its
one-micro-batch template (Walk.template) repeated. Walk.of walks that
template once: its keys are the template's times the micro-batch count, its
credits the topology's, and its tasks, every Task of every micro-batch, are
walked only when first read (by check_schedule, ScheduleTrace.events or
tests; the scheduler and the trace writer read the template).
build_task_graph gives a graph its topology's walk, its table and
total_flops; given a walk of the same topology (walk=, such as a Retimer's)
it shares that walk instead of walking again, so graphs of one topology
share one template and one task mapping. A hand-built graph is
TaskGraph(Walk(tasks, keys, credits), table): its walk has no topology and
is its own template. A graph's tasks, keys, credits and
topology are read-only views of its walk, so graphs that share a walk
cannot disagree, and dataclasses.replace of a graph shares its walk.
megatron1f1b and chunked have one topology at every point, and seq_len,
topk, ep_size and the GPU/NIC split change only the table and total_flops.
With AFPIPE_LOG=DEBUG, logger afpipe.taskgraph logs each build's task
count, template tasks, whether the template was walked or shared, and wall
time.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

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

Table = dict[tuple, tuple[int, int]]  # (duration_ns, exposed_ns) by duration key

_COMPUTE_STREAMS = {TaskKind.FWD_COMPUTE: Stream.FORWARD, TaskKind.BWD_COMPUTE: Stream.BACKWARD}


class Task(NamedTuple):
    """One task of a graph: what runs, where and after what; its duration is
    the graph's table entry for its key (TaskGraph.keys).

    A NamedTuple, so it is immutable and cheap to build: the graph walk
    builds each with tuple.__new__(Task, fields), all eleven fields
    positional, which skips Task.__new__. A field read by name costs about
    twice a slotted attribute's, so the loops that read most fields of every
    task, the scheduler's plan and the trace writer, unpack each task once.
    Like any tuple, a Task equals a plain tuple of the same values. The
    cyclic collector tracks every Task: it untracks only exact tuples, never
    a subclass's instances, whatever they hold.
    """

    id: int
    kind: TaskKind
    owner: str
    lane: str
    deps: tuple[int, ...]
    microbatch: int
    layer: int | None = None
    virtual_index: int = 0
    component: str | None = None
    direction: str = "fwd"
    twin: int | None = None  # co-scheduled partner of a send/recv pair

    @property
    def stream(self) -> Stream:
        return _COMPUTE_STREAMS.get(self.kind, Stream.COMM)


class _Visit(NamedTuple):
    """One stop of a micro-batch's forward walk; the backward walk retraces it."""

    owner: str
    kind: TaskKind  # FWD_COMPUTE or A2A
    key: object  # with the walk's direction, the task's duration_table key
    layer: int | None = None
    virtual_index: int = 0
    component: str | None = None


class Topology(NamedTuple):
    """The inputs of a graph's walk, which fix its tasks, keys and credits.

    Graphs of equal topologies have equal tasks and keys, so one SchedulePlan
    schedules them all; they differ only in their tables, total_flops and
    the cluster numbers that MFU reads.
    """

    visits: tuple[_Visit, ...]
    transfer: tuple[TaskKind, TaskKind] | None  # (send kind, recv kind) joining two owners
    serial: bool  # each micro-batch chained behind the previous one
    num_microbatches: int
    credits: tuple[tuple[str, int], ...]


class Walk:
    """A graph's structure: its tasks by id, each task's table key and each owner's credit.

    Walk(tasks, keys, credits) is a hand-built walk of those parts, keys in
    tasks order; it has no topology and is its own template. Walk.of(topology)
    is topology's walk, which the graphs built from it share (build_task_graph's
    walk=) and its SchedulePlan keeps. Every micro-batch walks the same
    visits, so a walk of two or more micro-batches is its template, the walk
    of the first micro-batch alone, repeated copies times: task k of
    micro-batch m is the template's task k with m times the template's size
    added to its id and deps, and a serial topology's micro-batch m also
    depends on the last task of micro-batch m - 1. The template is walked
    when the walk is made; keys repeats its keys once per micro-batch, each
    distinct key one object; tasks, every micro-batch's Task, is walked on
    its first read. A walk of at most one micro-batch is its own template.
    tasks and credits are read-only mappings and keys a tuple, so the graphs
    that share a walk agree.
    """

    __slots__ = ("topology", "keys", "credits", "_tasks", "_template")

    def __init__(self, tasks: Mapping[int, Task] = {}, keys: Iterable[tuple] = (),
                 credits: Mapping[str, int] = {}):
        self.topology: Topology | None = None
        self._template: Walk | None = None  # None for its own template: no reference cycle
        self.keys = tuple(keys)
        self.credits = MappingProxyType(dict(credits))
        self._tasks: Mapping[int, Task] | None = MappingProxyType(dict(tasks))

    @classmethod
    def of(cls, topology: Topology) -> Walk:
        """topology's walk: its template is walked now, its other micro-batches when read."""
        if topology.num_microbatches <= 1:
            walk = cls(*_walk(topology), topology.credits)
        else:
            template = cls.of(topology._replace(num_microbatches=1))
            walk = cls(keys=template.keys * topology.num_microbatches, credits=topology.credits)
            walk._template, walk._tasks = template, None
        walk.topology = topology
        return walk

    @property
    def template(self) -> Walk:
        return self if self._template is None else self._template

    @property
    def copies(self) -> int:
        """How many times the template repeats: its micro-batches, or 1 for its own template."""
        return 1 if self._template is None else self.topology.num_microbatches

    @property
    def tasks(self) -> Mapping[int, Task]:
        if self._tasks is None:
            self._tasks = MappingProxyType(_walk(self.topology)[0])
        return self._tasks


@dataclass
class TaskGraph:
    """A task DAG: its structure, a Walk, and the duration table it was built under.

    tasks, keys, credits and topology are read-only views of the walk, which
    the graphs of one topology share; the table, total_flops and the cluster
    numbers that MFU reads are the graph's own. TaskGraph() is the empty
    graph and TaskGraph(Walk(tasks, keys, credits), table) a hand-built one.
    """

    walk: Walk = field(default_factory=Walk)
    table: Table = field(default_factory=dict)  # the duration_table it was built under
    total_flops: float = 0.0
    world_gpus: int = 0
    gpu_peak: float = 0.0

    @property
    def tasks(self) -> Mapping[int, Task]:
        return self.walk.tasks

    @property
    def keys(self) -> tuple[tuple, ...]:
        """Each task's table key, in tasks order."""
        return self.walk.keys

    @property
    def credits(self) -> Mapping[str, int]:
        return self.walk.credits

    @property
    def topology(self) -> Topology | None:
        """What the tasks were walked from; None for a hand-built graph."""
        return self.walk.topology

    def __len__(self) -> int:
        """The task count, read from the keys; SchedulePlan checks one key per task."""
        return len(self.walk.keys)


def _ns(seconds: float) -> int:
    scaled = seconds * 1e9
    if not math.isfinite(scaled):
        raise GraphConstructionError(f"duration {seconds!r} s has no finite nanosecond value")
    value = int(round(scaled))
    if value < 0:
        raise GraphConstructionError(f"negative duration: {seconds}")
    return value


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


def duration_table(exp: Experiment, vt: StageTimes) -> Table:
    """(duration_ns, exposed_ns) of every task of exp's graph under vt, by duration key.

    A key is (what, direction): afpipe and naive have attention and FFN
    compute plus the M2N exchange or the all-to-all; megatron1f1b and chunked
    have one entry per chunk size, through staged_layer_time, plus the P2P
    transfer. A graph's tasks and credits do not read vt, so this
    table holds every duration that differs between points of one topology.
    The afpipe table does not read ep_size: its exchange is t_m2n, and only
    t_a2a, which the naive and staged tables read, depends on ep_size. So
    the points of an ep_size sweep give afpipe one table.
    """
    kind = exp.schedule_kind
    table: Table = {}
    if kind in (ScheduleKind.AFPIPE, ScheduleKind.NAIVE_SEQUENTIAL):
        for component, t in ((ATTN, vt.t_attn), (FFN, vt.t_ffn)):
            table[component, "fwd"] = (_ns(t), 0)
            table[component, "bwd"] = (_ns(t * BACKWARD_MULTIPLIER), 0)
        afpipe = kind is ScheduleKind.AFPIPE
        transfer, t_transfer = (TaskKind.M2N_SEND, vt.t_m2n) if afpipe else (TaskKind.A2A, vt.t_a2a)
    else:
        layers, chunks = exp.model.layers, exp.pipeline_depth * exp.virtual_stages
        overlap = kind is ScheduleKind.CHUNKED_OVERLAP
        for n in dict.fromkeys((-(-layers // chunks), layers // chunks)):  # the chunk sizes
            for direction, scale in (("fwd", 1.0), ("bwd", BACKWARD_MULTIPLIER)):
                t = staged_layer_time(vt.t_attn * scale, vt.t_ffn * scale, vt.t_a2a, overlap)
                table[n, direction] = (_ns(n * t[0]), _ns(n * t[1]))
        transfer, t_transfer = TaskKind.P2P, vt.t_p2p
    table[transfer, "fwd"] = table[transfer, "bwd"] = (_ns(t_transfer), 0)
    return table


def _walk(topology: Topology) -> tuple[dict[int, Task], tuple[tuple, ...]]:
    """The tasks by id and the keys of every micro-batch's forward walk over
    topology's visits, then of its reversed walk.

    Each task depends on the one before it. Consecutive visits on different
    owners are joined by a send/recv pair of the transfer kinds that carries
    the source visit's layer and virtual index and shares its deps (the
    simulator enforces a common start). The keys name each task's key,
    (visit key or send kind, direction); each distinct key is one object,
    made once per walk. A serial topology chains each micro-batch behind the
    previous one.
    Tasks are built with tuple.__new__, all eleven fields positional in
    Task's field order: that skips Task.__new__, a Python-level call.
    """
    visits, transfer, serial = topology.visits, topology.transfer, topology.serial
    tasks: dict[int, Task] = {}
    keys: list[tuple] = []
    new = tuple.__new__
    interned: dict[tuple, tuple] = {}

    def intern(key: tuple) -> tuple:
        return interned.setdefault(key, key)

    # Per direction: its walk over the visits, each visit's key, and the pair key.
    walks = [
        (direction, walk, [intern((v.key, direction)) for v in walk],
         None if transfer is None else intern((transfer[0], direction)))
        for direction, walk in (("fwd", visits), ("bwd", visits[::-1]))
    ]
    tid = 0
    prev: int | None = None
    for mb in range(topology.num_microbatches):
        if not serial:
            prev = None
        src: _Visit | None = None
        for direction, walk, walk_keys, pair_key in walks:
            for v, key in zip(walk, walk_keys):
                if src is not None and src.owner != v.owner:
                    send_kind, recv_kind = transfer
                    send, recv = tid, tid + 1
                    deps = (prev,)
                    tasks[send] = new(Task, (send, send_kind, src.owner, SEND_LANE, deps, mb,
                                             src.layer, src.virtual_index, None, direction, recv))
                    tasks[recv] = new(Task, (recv, recv_kind, v.owner, RECV_LANE, deps, mb,
                                             src.layer, src.virtual_index, None, direction, send))
                    keys += (pair_key, pair_key)
                    prev, tid = recv, tid + 2
                compute = v.kind is TaskKind.FWD_COMPUTE
                kind = TaskKind.BWD_COMPUTE if compute and direction == "bwd" else v.kind
                tasks[tid] = new(Task, (tid, kind, v.owner, COMPUTE_LANE if compute else SEND_LANE,
                                        () if prev is None else (prev,), mb, v.layer,
                                        v.virtual_index, v.component, direction, None))
                keys.append(key)
                prev, src, tid = tid, v, tid + 1
    return tasks, tuple(keys)


def graph_topology(exp: Experiment) -> Topology:
    """The topology of exp's graph for its schedule kind; it reads no cost."""
    build = {ScheduleKind.AFPIPE: _build_afpipe, ScheduleKind.NAIVE_SEQUENTIAL: _build_naive}
    return build.get(exp.schedule_kind, _build_staged)(exp)


def build_task_graph(exp: Experiment, alloc=None, *, walk: Walk | None = None) -> TaskGraph:
    """Build the task DAG for exp's schedule kind.

    The disaggregated schedule needs an allocation; the baselines ignore it.
    Group g of each side serves layers {g, g+p, ...} (placement.assign_layers).
    num_microbatches == 0 yields an empty graph. A walk of exp's topology
    (a Retimer's, say) is shared, not walked again; given any other walk,
    the topology is walked anew.
    """
    begin = time.perf_counter()
    lc = layer_costs(exp.model, exp.workload, exp.ep_size)
    topology = graph_topology(exp)
    shared = walk is not None and walk.topology == topology
    graph = TaskGraph(walk if shared else Walk.of(topology),
                      duration_table(exp, visit_times(exp, lc, alloc)),
                      (float(lc.attn_flops) + float(lc.ffn_flops)) * exp.model.layers
                      * exp.workload.num_microbatches * (1.0 + BACKWARD_MULTIPLIER),
                      exp.cluster.total_gpus, exp.cluster.gpu_peak)
    # Imported here, as in sim._debug: a cold start that never logs skips it.
    import logging

    logging.getLogger("afpipe.taskgraph").debug(
        "build: %d tasks from a %d-task template (%s) in %.3f ms",
        len(graph), len(graph.walk.template.keys), "shared" if shared else "walked",
        (time.perf_counter() - begin) * 1e3,
    )
    return graph


def _build_afpipe(exp: Experiment) -> Topology:
    """Layer l visits A(l mod p) then F(l mod p); every hop is an M2N exchange."""
    p = exp.pipeline_depth
    layers = exp.model.layers
    credits = tuple(
        (f"{component}{g}", credit(layers, g, component))
        for g in range(p)
        for component in (ATTN, FFN)
    )
    visits = tuple(
        _Visit(f"{component}{layer % p}", TaskKind.FWD_COMPUTE, component,
               layer, layer // p, component)
        for layer in range(layers)
        for component in (ATTN, FFN)
    )
    return Topology(visits, (TaskKind.M2N_SEND, TaskKind.M2N_RECV), False,
                    exp.workload.num_microbatches, credits)


def _build_staged(exp: Experiment) -> Topology:
    """Megatron-style 1F1B over contiguous chunks, interleaved across stages.

    The L layers split into p*v chunks of L // (p*v) layers, the first
    L mod (p*v) of them one layer more; a chunk's key is its size.
    """
    pp, layers = exp.pipeline_depth, exp.model.layers
    chunks = pp * exp.virtual_stages
    if chunks > layers:
        raise GraphConstructionError(f"{chunks} chunks cannot be filled from {layers} layers")

    credits = tuple((f"S{i}", max(1, chunks - i)) for i in range(pp))
    base, extra = divmod(layers, chunks)
    visits = tuple(
        _Visit(f"S{j % pp}", TaskKind.FWD_COMPUTE, base + (j < extra), virtual_index=j // pp)
        for j in range(chunks)
    )
    return Topology(visits, (TaskKind.P2P, TaskKind.P2P), False,
                    exp.workload.num_microbatches, credits)


def _build_naive(exp: Experiment) -> Topology:
    """Fully serial reference: compute and collectives strictly alternate."""
    owner = "SEQ"
    visits = tuple(
        _Visit(owner, kind, key, layer, 0, component)  # positional: half a keyword call's cost
        for layer in range(exp.model.layers)
        for kind, key, component in (
            (TaskKind.FWD_COMPUTE, ATTN, ATTN), (TaskKind.A2A, TaskKind.A2A, None),
            (TaskKind.FWD_COMPUTE, FFN, FFN), (TaskKind.A2A, TaskKind.A2A, None),
        )
    )
    return Topology(visits, None, True, exp.workload.num_microbatches, ((owner, 1),))
