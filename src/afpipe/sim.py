"""Deterministic discrete-event simulation of pipeline schedules.

Resources: each worker group owns one compute engine (forward and backward
tasks serialize on it; the trace still labels their streams separately) and
two communication sub-lanes (send, receive) so opposite transfer directions
overlap full duplex. A send/recv pair occupies both endpoints' lanes over the
same interval.

List scheduling: among all runnable tasks, the one with the globally earliest
feasible start time is committed first; ties fall to a fixed priority:
(1) once a group's in-flight forward count reaches its one-forward-one-
backward credit, backward work is preferred over forward, otherwise forward;
(2) lower micro-batch index; (3) lower (virtual index, component) with
attention before FFN; (4) lower task id. All event arithmetic is in integer
nanoseconds, so identical graphs always produce identical traces.

A negative duration raises NegativeDuration. A dependency on an unknown task,
or tasks the ready set never reaches (a cycle), raise CycleDetected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .config import ScheduleKind
from .costs import StageTimes, staged_layer_time
from .taskgraph import (
    COMPUTE_LANE,
    RECV_LANE,
    Task,
    TaskGraph,
    TaskKind,
)


class CycleDetected(Exception):
    pass


class NegativeDuration(Exception):
    pass


@dataclass(frozen=True, slots=True)
class TraceEvent:
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


_COMPONENT_RANK = {"A": 0, "F": 1, None: 2}


def _check_tasks(graph: TaskGraph) -> None:
    for task in graph.tasks.values():
        if task.duration_ns < 0:
            raise NegativeDuration(f"task {task.id} has duration {task.duration_ns} ns")
        for dep in task.deps:
            if dep not in graph.tasks:
                raise CycleDetected(f"task {task.id} depends on unknown task {dep}")


def simulate(graph: TaskGraph) -> tuple[ScheduleTrace, SimResult]:
    """Schedule the graph and aggregate the run metrics.

    Raises CycleDetected when the ready set empties with tasks unplaced.
    """
    _check_tasks(graph)
    tasks = graph.tasks
    if not tasks:
        trace = ScheduleTrace(events=(), iteration_ns=0)
        return trace, _aggregate(graph, trace)

    # A schedulable unit is a lone task or a send/recv pair keyed by its send
    # side; the receive side is committed together with its twin.
    unit_deps: dict[int, set[int]] = {}
    for tid, task in tasks.items():
        if task.twin is not None and task.lane == RECV_LANE:
            continue
        deps = set(task.deps)
        if task.twin is not None:
            deps |= set(tasks[task.twin].deps)
        unit_deps[tid] = deps

    dependents: dict[int, list[int]] = {tid: [] for tid in tasks}
    remaining: dict[int, int] = {}
    for uid, deps in unit_deps.items():
        remaining[uid] = len(deps)
        for dep in deps:
            dependents[dep].append(uid)

    lane_free: dict[tuple[str, str], int] = {}
    start: dict[int, int] = {}
    end: dict[int, int] = {}
    fwd_started: dict[str, int] = {}
    bwd_started: dict[str, int] = {}
    ready: list[int] = sorted(uid for uid, n in remaining.items() if n == 0)

    def lanes_of(uid: int) -> list[tuple[str, str]]:
        task = tasks[uid]
        out = [(task.owner, task.lane)]
        if task.twin is not None:
            twin = tasks[task.twin]
            out.append((twin.owner, twin.lane))
        return out

    def earliest(uid: int) -> int:
        t = 0
        for dep in unit_deps[uid]:
            t = max(t, end[dep])
        for lane in lanes_of(uid):
            t = max(t, lane_free.get(lane, 0))
        return t

    def priority(task: Task) -> tuple:
        if task.lane == COMPUTE_LANE:
            inflight = fwd_started.get(task.owner, 0) - bwd_started.get(task.owner, 0)
            prefer_bwd = inflight >= graph.credits.get(task.owner, 1)
            preferred = (task.kind is TaskKind.BWD_COMPUTE) == prefer_bwd
            rank = 0 if preferred else 1
        else:
            rank = 0
        return (
            rank,
            task.microbatch,
            task.virtual_index,
            _COMPONENT_RANK.get(task.component, 2),
            task.owner,
            task.lane,
            task.id,
        )

    def commit_one(tid: int, at: int) -> None:
        task = tasks[tid]
        start[tid] = at
        end[tid] = at + task.duration_ns
        lane_free[(task.owner, task.lane)] = end[tid]
        if task.lane == COMPUTE_LANE:
            counter = bwd_started if task.kind is TaskKind.BWD_COMPUTE else fwd_started
            counter[task.owner] = counter.get(task.owner, 0) + 1
        for uid in dependents[tid]:
            remaining[uid] -= 1
            if remaining[uid] == 0:
                ready.append(uid)

    while ready:
        best = None
        best_key = None
        for uid in ready:
            key = (earliest(uid),) + priority(tasks[uid])
            if best_key is None or key < best_key:
                best, best_key = uid, key
        ready.remove(best)
        at = best_key[0]
        commit_one(best, at)
        twin = tasks[best].twin
        if twin is not None:
            commit_one(twin, at)

    if len(start) != len(tasks):
        raise CycleDetected("dependency graph contains a cycle")

    events = sorted(
        (TraceEvent(t, start[t.id], end[t.id]) for t in tasks.values()),
        key=lambda e: (e.start_ns, e.task.owner, e.task.lane, e.task.id),
    )
    trace = ScheduleTrace(events=tuple(events), iteration_ns=max(end.values()))
    return trace, _aggregate(graph, trace)


def _aggregate(graph: TaskGraph, trace: ScheduleTrace) -> SimResult:
    iteration = trace.iteration_ns / 1e9
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
    exposed = exposed_comm(trace) + embedded_ns / 1e9

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

