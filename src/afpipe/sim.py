"""Deterministic discrete-event simulation of pipeline schedules.

Resources: each worker group owns one compute engine (forward and backward
tasks serialize on it; the trace still labels their streams separately) and
two communication sub-lanes (send, receive) so opposite transfer directions
overlap full duplex. A send/recv pair occupies both endpoints' lanes over the
same interval.

List scheduling: a schedulable unit is a lone task or a send/recv pair,
committed together at one start. Among the ready units the scheduler commits
the least under the total order

    (earliest start, 1F1B rank, micro-batch, virtual index,
     component rank, owner, lane, task id)

where the earliest start is the latest of the unit's dependency ends and of
the free times of the lanes it occupies. The 1F1B rank of a compute unit is 0
for the work its group prefers and 1 otherwise: once the group's in-flight
forward count reaches its one-forward-one-backward credit it prefers
backward, otherwise forward; other units rank 0. The component rank puts
attention before FFN. All event arithmetic is in integer nanoseconds, so
identical graphs always produce identical traces.

Heap order: ready units wait in queues, one per shape (the owner, lane and
kind of each of a unit's tasks, which fix the lanes it occupies and its 1F1B
rank class). One heap holds the head of every non-empty queue under the
order above. Its keys are exact although no unit is re-keyed as time passes:
  * a unit starts no earlier than each of its lanes is free, so lane free
    times only grow. A unit that was ready by the time its lanes were free
    stays so: it starts exactly when they are next free, and within its queue
    its tie-break alone orders it. A unit ready later is ordered by (ready
    time, tie-break) until its lanes' free time reaches it;
  * a ready unit's dependencies have all ended, so its ready time is fixed;
  * the 1F1B rank changes only when the group commits compute.
So a commit moves only the heads of the queues on the lanes it occupies, of
the group whose preference it flips and of the queues it adds ready units to.
Those heads are pushed again; superseded heap entries are skipped when popped.
A commit costs a few heap operations, one per queue it touches, instead of a
scan of every ready unit. With AFPIPE_LOG=DEBUG, logger afpipe.sim logs each
run's units, commits, heap pushes, stale pops and peak heap size.

Plan and run: nothing above but the start times reads a duration. So a
SchedulePlan, built once per graph, holds the checked tasks, the units in
tie-break order, their queues, lanes and 1F1B counters, the dependents,
the initial dependency counts and the credits; SchedulePlan.run takes one
duration per task and returns each unit's start and the makespan. simulate
is a plan, one run under the graph's own durations, then the timeline and
its aggregation. The allocator re-times one plan per experiment under each
split's durations, through the same loop.

check_schedule lists what a trace breaks of the scheduler's invariants.

A negative duration raises NegativeDuration. A dependency on an unknown task,
or tasks the ready set never reaches (a cycle), raise CycleDetected. Twins
that are not one send side and one receive side naming each other raise
GraphConstructionError. A makespan, or a sum of task times, too large for a
float in seconds raises MakespanOverflow.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .config import ScheduleKind
from .costs import StageTimes, staged_layer_time
from .placement import ATTN, FFN
from .taskgraph import (
    COMPUTE_LANE,
    GraphConstructionError,
    RECV_LANE,
    Task,
    TaskGraph,
    TaskKind,
)


class CycleDetected(Exception):
    pass


class NegativeDuration(Exception):
    pass


class MakespanOverflow(Exception):
    pass


def seconds(ns: int) -> float:
    """ns in seconds; MakespanOverflow when no float holds it."""
    try:
        return ns / 1e9
    except OverflowError:
        raise MakespanOverflow("a schedule time is too large for a float in seconds") from None


class TraceEvent(NamedTuple):
    task: Task
    start_ns: int
    end_ns: int


@dataclass(frozen=True)
class ScheduleTrace:
    events: tuple[TraceEvent, ...]
    iteration_ns: int


@dataclass(frozen=True)
class SimResult:
    iteration_time: float
    bubble_warmup: float
    bubble_fraction: float
    exposed_comm: float
    mfu: float
    per_group_busy: dict[str, float]


_COMPONENT_RANK = {ATTN: 0, FFN: 1, None: 2}


def _check_tasks(graph: TaskGraph) -> None:
    tasks = graph.tasks
    for task in tasks.values():
        if task.duration_ns < 0:
            raise NegativeDuration(f"task {task.id} has duration {task.duration_ns} ns")
        for dep in task.deps:
            if dep not in tasks:
                raise CycleDetected(f"task {task.id} depends on unknown task {dep}")
        if task.twin is not None:
            twin = tasks.get(task.twin)
            paired = twin is not None and twin.twin == task.id
            if not paired or (twin.lane == RECV_LANE) == (task.lane == RECV_LANE):
                raise GraphConstructionError(
                    f"task {task.id} and its twin {task.twin} are not a send/recv pair"
                )


class _Queue:
    """Ready units of one shape: their tasks have the same (owner, lane, kind).

    So they occupy the same lanes and share a 1F1B rank class. Parked units
    were ready by the time all those lanes are free, so each can start exactly
    then and they are ordered by ordinal alone; pending units are ready later
    and are ordered by (ready_ns, ordinal).
    """

    __slots__ = ("lanes", "counters", "parked", "pending", "key", "stamp")

    def __init__(self, lanes: tuple[int, ...], counters: tuple[int, ...]):
        # Per task of a unit: the lane it occupies and the compute counter it
        # bumps, 2 * owner + 1 for backward compute, 2 * owner for forward,
        # -1 for none. The first task's counter is the units' rank class: the
        # owner's credit ranks compute units; others rank 0.
        self.lanes = lanes
        self.counters = counters
        self.clear()

    def clear(self) -> None:
        """Empty the queue before a run."""
        self.parked: list[int] = []
        self.pending: list[tuple[int, int]] = []
        self.key: tuple[int, int, int] | None = None  # key of the live heap entry
        self.stamp = 0  # push number of the live heap entry


class SchedulePlan:
    """What scheduling a graph reads, except its durations; built once per graph.

    It holds the graph's checked tasks, its units in tie-break order, the
    queue of each unit (lanes and 1F1B counters), the units that depend on
    each task, each unit's dependency count and each owner's credit. None of
    these reads a duration, so one plan schedules the graph under any
    durations of its tasks: run() is the scheduler loop. run() resets and
    reuses the plan's queues, so one plan runs one schedule at a time.
    """

    def __init__(self, graph: TaskGraph):
        _check_tasks(graph)
        tasks = graph.tasks
        # A duration table gives one value per task, in this order.
        self.tasks = ordered = tuple(tasks.values())
        index = dict(zip(tasks, range(len(ordered))))
        # A schedulable unit is a lone task or a send/recv pair keyed by its
        # send side; the receive side is committed together with its twin.
        # Units are numbered in tie-break order, so the heap compares ints only.
        order = sorted(
            (t.microbatch, t.virtual_index, _COMPONENT_RANK.get(t.component, 2), t.owner, t.lane,
             t.id, k)
            for k, t in enumerate(ordered)
            if t.twin is None or t.lane != RECV_LANE
        )
        lane_index: dict[tuple[str, str], int] = {}
        owner_index: dict[str, int] = {}
        queues: dict[tuple, _Queue] = {}  # by the (owner, lane, kind) of a unit's tasks
        self.unit_tasks = unit_tasks = []  # task indices of each unit
        self.unit_queue = unit_queue = []
        self.remaining = remaining = []  # dependency count of each unit
        dependents: dict[int, list[int]] = {tid: [] for tid in tasks}
        for i, entry in enumerate(order):
            k = entry[-1]
            task = ordered[k]
            if task.twin is None:
                members = (k,)
                shape = (task.owner, task.lane, task.kind)
                deps = set(task.deps)
            else:
                twin = tasks[task.twin]
                members = (k, index[task.twin])
                shape = (task.owner, task.lane, task.kind, twin.owner, twin.lane, twin.kind)
                deps = set(task.deps).union(twin.deps)
            q = queues.get(shape)
            if q is None:
                lanes, counters = [], []
                for member in map(ordered.__getitem__, members):
                    lanes.append(
                        lane_index.setdefault((member.owner, member.lane), len(lane_index))
                    )
                    counter = -1
                    if member.lane == COMPUTE_LANE:
                        owner = owner_index.setdefault(member.owner, len(owner_index))
                        counter = 2 * owner + (member.kind is TaskKind.BWD_COMPUTE)
                    counters.append(counter)
                q = queues[shape] = _Queue(tuple(lanes), tuple(counters))
            unit_tasks.append(members)
            unit_queue.append(q)
            remaining.append(len(deps))
            for dep in deps:
                dependents[dep].append(i)

        # Units, by task index: the dict keeps the order of graph.tasks.
        self.dependents = list(dependents.values())
        self.credit = [graph.credits.get(owner, 1) for owner in owner_index]
        self.queues = tuple(queues.values())
        self.lane_queues: list[list[_Queue]] = [[] for _ in lane_index]
        self.owner_queues: list[list[_Queue]] = [[] for _ in owner_index]
        for q in self.queues:
            for lane in q.lanes:
                self.lane_queues[lane].append(q)
            if q.counters[0] >= 0:
                self.owner_queues[q.counters[0] >> 1].append(q)

    def run(self, durations: list[int]) -> tuple[list[int | None], int]:
        """Schedule every unit when its tasks take durations (ns, in tasks order).

        Returns each unit's start and the makespan. Raises CycleDetected when
        the ready set empties with tasks unplaced.
        """
        unit_tasks, unit_queue, dependents = self.unit_tasks, self.unit_queue, self.dependents
        credit, lane_queues, owner_queues = self.credit, self.lane_queues, self.owner_queues
        for q in self.queues:
            q.clear()
        remaining = self.remaining[:]
        started = [0] * (2 * len(credit))  # forward, backward compute starts per owner
        lane_free = [0] * len(lane_queues)
        ready_ns = [0] * len(unit_tasks)  # latest end among a unit's committed dependencies
        unit_start: list[int | None] = [None] * len(unit_tasks)
        heap: list[tuple[int, int, int, int, _Queue]] = []
        pushes = stale = peak = 0

        def place(i: int) -> _Queue:
            q = unit_queue[i]
            if ready_ns[i] <= max(map(lane_free.__getitem__, q.lanes)):
                heapq.heappush(q.parked, i)
            else:
                heapq.heappush(q.pending, (ready_ns[i], i))
            return q

        def refresh(q: _Queue) -> None:
            """Give the heap the head of the non-empty queue q under its current key."""
            nonlocal pushes
            parked, pending = q.parked, q.pending
            free = max(map(lane_free.__getitem__, q.lanes))
            while pending and pending[0][0] <= free:
                heapq.heappush(parked, heapq.heappop(pending)[1])
            at, i = (free, parked[0]) if parked else pending[0]
            rank = 0
            rank_class = q.counters[0]
            if rank_class >= 0:
                owner = rank_class >> 1
                prefer_bwd = started[2 * owner] - started[2 * owner + 1] >= credit[owner]
                rank = 0 if (rank_class & 1) == prefer_bwd else 1
            key = (at, rank, i)
            if key != q.key:
                pushes += 1
                q.key, q.stamp = key, pushes
                heapq.heappush(heap, (at, rank, i, pushes, q))

        for q in dict.fromkeys([place(i) for i, n in enumerate(remaining) if n == 0]):
            refresh(q)

        while heap:
            if len(heap) > peak:
                peak = len(heap)
            at, _, i, stamp, q = heapq.heappop(heap)
            if stamp != q.stamp:
                stale += 1
                continue
            heapq.heappop(q.parked if q.parked else q.pending)
            q.key = None
            unit_start[i] = at
            touched = [q]
            for k, lane, counter in zip(unit_tasks[i], q.lanes, q.counters):
                lane_free[lane] = finish = at + durations[k]
                touched += lane_queues[lane]
                if counter >= 0:
                    started[counter] += 1
                    owner = counter >> 1
                    # The owner's queues change rank only when this start carries
                    # its in-flight forward count across its credit.
                    if started[2 * owner] - started[2 * owner + 1] == credit[owner] - (counter & 1):
                        touched += owner_queues[owner]
                for j in dependents[k]:
                    if finish > ready_ns[j]:
                        ready_ns[j] = finish
                    remaining[j] -= 1
                    if remaining[j] == 0:
                        touched.append(place(j))
            for q in dict.fromkeys(touched):
                if q.parked or q.pending:
                    refresh(q)

        # Imported here, not at the top: a cold start that never logs, such as a
        # library import, would otherwise pay for importing logging.
        import logging

        logging.getLogger("afpipe.sim").debug(
            "simulate: %d units, %d commits, %d heap pushes, %d stale pops, peak heap %d",
            len(unit_tasks), pushes - stale, pushes, stale, peak,
        )
        if None in unit_start:
            raise CycleDetected("dependency graph contains a cycle")
        # A lane is free from the end of its last task, so the latest is the makespan.
        return unit_start, max(lane_free, default=0)


def simulate(graph: TaskGraph) -> tuple[ScheduleTrace, SimResult]:
    """Schedule the graph and aggregate the run metrics.

    Raises CycleDetected when the ready set empties with tasks unplaced.
    """
    plan = SchedulePlan(graph)
    tasks = plan.tasks
    starts, makespan = plan.run([t.duration_ns for t in tasks])
    timeline = sorted(
        (begin, (t := tasks[k]).owner, t.lane, t.id, t)
        for begin, members in zip(starts, plan.unit_tasks)
        for k in members
    )
    trace = ScheduleTrace(
        events=tuple(TraceEvent(t, at, at + t.duration_ns) for at, _, _, _, t in timeline),
        iteration_ns=makespan,
    )
    return trace, _aggregate(graph, trace)


def _aggregate(graph: TaskGraph, trace: ScheduleTrace) -> SimResult:
    iteration = seconds(trace.iteration_ns)
    if not trace.events:
        return SimResult(0.0, 0.0, 0.0, 0.0, 0.0, {})

    first_activity: dict[str, int] = {}
    busy: dict[str, int] = {}
    for ev in trace.events:
        owner = ev.task.owner
        cur = first_activity.get(owner)
        if cur is None or ev.start_ns < cur:
            first_activity[owner] = ev.start_ns
        if ev.task.lane == COMPUTE_LANE:
            busy[owner] = busy.get(owner, 0) + (ev.end_ns - ev.start_ns)

    # Warmup bubble: the longest any group waits before its first activity.
    bubble_warmup = max(first_activity.values()) / 1e9

    compute_owners = [o for o in first_activity if busy.get(o, 0) > 0]
    if compute_owners and trace.iteration_ns > 0:
        fraction = 1.0 - sum(busy[o] for o in compute_owners) / (
            len(compute_owners) * trace.iteration_ns
        )
        fraction = min(max(fraction, 0.0), 1.0)
    else:
        fraction = 0.0

    embedded_ns = sum(t.exposed_ns for t in graph.tasks.values())
    exposed = exposed_comm(trace) + seconds(embedded_ns)

    mfu = 0.0
    if graph.total_flops > 0 and iteration > 0 and graph.world_gpus > 0 and graph.gpu_peak > 0:
        mfu = graph.total_flops / (iteration * graph.world_gpus * graph.gpu_peak)
        mfu = min(max(mfu, 0.0), 1.0)

    return SimResult(
        iteration_time=iteration,
        bubble_warmup=bubble_warmup,
        bubble_fraction=fraction,
        exposed_comm=exposed,
        mfu=mfu,
        per_group_busy={o: busy.get(o, 0) / 1e9 for o in sorted(first_activity)},
    )


def _merge(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def exposed_comm(trace: ScheduleTrace) -> float:
    """Seconds during which communication runs while every compute engine idles."""
    comm = _merge(
        (ev.start_ns, ev.end_ns)
        for ev in trace.events
        if ev.task.lane != COMPUTE_LANE and ev.end_ns > ev.start_ns
    )
    compute = _merge(
        (ev.start_ns, ev.end_ns)
        for ev in trace.events
        if ev.task.lane == COMPUTE_LANE and ev.end_ns > ev.start_ns
    )
    exposed = 0
    ci = 0
    for s, e in comm:
        cursor = s
        while cursor < e:
            while ci < len(compute) and compute[ci][1] <= cursor:
                ci += 1
            if ci == len(compute) or compute[ci][0] >= e:
                exposed += e - cursor
                break
            cs, ce = compute[ci]
            if cs > cursor:
                exposed += cs - cursor
            cursor = min(ce, e)
    return exposed / 1e9


def warmup_bubble_analytic(
    kind: ScheduleKind,
    times: StageTimes,
    pp: int,
    virtual_stages: int,
    layers_per_stage: int = 1,
) -> float:
    """Closed-form warmup bubble for a pp-stage pipeline.

    Staged baselines pay their per-layer latency (staged_layer_time) plus the
    inter-stage transfer once per upstream stage; the disaggregated schedule
    pays only the slower of the two compute halves plus one fused exchange,
    amortized over twice the virtual interleave.
    """
    if pp < 1 or virtual_stages < 1:
        raise ValueError("pp and virtual_stages must be >= 1")
    if pp == 1:
        return 0.0
    if kind is ScheduleKind.AFPIPE:
        return (pp - 1) * (max(times.t_attn, times.t_ffn) + times.t_m2n) / (2.0 * virtual_stages)
    layer, _ = staged_layer_time(
        times.t_attn, times.t_ffn, times.t_a2a, overlap=kind is ScheduleKind.CHUNKED_OVERLAP
    )
    return (pp - 1) * (layers_per_stage * layer + times.t_p2p) / virtual_stages


def critical_path_ns(graph: TaskGraph) -> int:
    """Longest dependency chain ignoring resource contention (a lower bound)."""
    _check_tasks(graph)
    dist: dict[int, int] = {}
    order: list[int] = []
    indeg = {tid: len(set(t.deps)) for tid, t in graph.tasks.items()}
    dependents: dict[int, list[int]] = {tid: [] for tid in graph.tasks}
    for tid, task in graph.tasks.items():
        for dep in set(task.deps):
            dependents[dep].append(tid)
    stack = [tid for tid, d in indeg.items() if d == 0]
    while stack:
        tid = stack.pop()
        order.append(tid)
        for nxt in dependents[tid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                stack.append(nxt)
    if len(order) != len(graph.tasks):
        raise CycleDetected("dependency graph contains a cycle")
    for tid in order:
        task = graph.tasks[tid]
        base = max((dist[d] for d in set(task.deps)), default=0)
        dist[tid] = base + task.duration_ns
    return max(dist.values(), default=0)


def resource_bound_ns(graph: TaskGraph) -> int:
    """Max over (owner, lane) of summed durations (a second lower bound)."""
    totals: dict[tuple[str, str], int] = {}
    for task in graph.tasks.values():
        key = (task.owner, task.lane)
        totals[key] = totals.get(key, 0) + task.duration_ns
    return max(totals.values(), default=0)


def check_schedule(graph: TaskGraph, trace: ScheduleTrace) -> list[str]:
    """The scheduler invariants that trace breaks on graph; empty when it keeps them all.

    Every task runs exactly once, for its duration, starting no earlier than
    each dependency ends; no two tasks overlap on one (owner, lane); send/recv
    twins start and end together; iteration_ns is the last end and is at
    least both lower bounds, critical_path_ns and resource_bound_ns.
    """
    problems = []
    span: dict[int, tuple[int, int]] = {}
    by_lane: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    for ev in trace.events:
        tid = ev.task.id
        if tid in span:
            problems.append(f"task {tid} is scheduled twice")
        elif tid not in graph.tasks:
            problems.append(f"task {tid} is not in the graph")
        span[tid] = (ev.start_ns, ev.end_ns)
        by_lane.setdefault((ev.task.owner, ev.task.lane), []).append((ev.start_ns, ev.end_ns, tid))

    for tid, task in sorted(graph.tasks.items()):
        if tid not in span:
            problems.append(f"task {tid} is missing from the trace")
            continue
        start, end = span[tid]
        if end - start != task.duration_ns:
            problems.append(f"task {tid} runs {end - start} ns, not its {task.duration_ns} ns")
        for dep in task.deps:
            if dep in span and start < span[dep][1]:
                problems.append(
                    f"task {tid} starts at {start} ns, before dependency {dep} ends at "
                    f"{span[dep][1]} ns"
                )
        twin = task.twin
        if twin is not None and tid < twin and twin in span and span[twin] != span[tid]:
            problems.append(f"twins {tid} and {task.twin} do not start and end together")

    for (owner, lane), spans in sorted(by_lane.items()):
        spans.sort()
        for (_, end0, first), (start1, _, second) in zip(spans, spans[1:]):
            if start1 < end0:
                problems.append(f"tasks {first} and {second} overlap on {owner} {lane}")

    last_end = max((ev.end_ns for ev in trace.events), default=0)
    if trace.iteration_ns != last_end:
        problems.append(f"iteration_ns {trace.iteration_ns} is not the last end, {last_end}")
    bound = max(critical_path_ns(graph), resource_bound_ns(graph))
    if trace.iteration_ns < bound:
        problems.append(f"iteration_ns {trace.iteration_ns} is below the lower bound {bound}")
    return problems
