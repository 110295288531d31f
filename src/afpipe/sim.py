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
The first are the committed queue's neighbours, listed once per plan. The
loop refreshes each touched queue inline: it re-keys the queue's head and
pushes it when the key has changed. Superseded heap entries are skipped when
popped. A queue may be touched twice in one commit, and the touched queues
come in no set order; neither matters. A second refresh finds the key it
just pushed and pushes nothing. Live keys (start, rank, unit) are unique, so
the order of the pushes cannot change which unit the heap yields. A commit
costs a few heap operations, one per queue it touches, instead of a scan of
every ready unit. With AFPIPE_LOG=DEBUG, logger afpipe.sim logs each run's
units, commits, heap pushes, stale pops and peak heap size; each simulate's
wall time of plan, run and metrics, with whether the plan was built or
reused and whether the run ran or hit the memo; and each timeline build's
event count and wall time.

Plan and run: nothing above but the start times reads a duration, and a
task holds none: graph.keys names its entry of graph.table. So a
SchedulePlan, built once per graph, holds the checked tasks, the units in
tie-break order, their queues, lanes and 1F1B counters, the dependents, the
initial dependency counts and the credits. SchedulePlan.run takes each
task's duration, as durations_ns reads it from a table, and returns each
unit's start and the makespan. SchedulePlan.chain_ns takes the same
durations and returns the longest dependency chain over the units, a lower
bound on run's makespan that ignores the lanes; the topological order it
walks is built by its first call and kept.

A Retimer keeps one graph and its plan and runs the plan under the table of
any graph that shares the kept graph's tasks: the graphs of one topology
(taskgraph.Topology), which differ only in table and total_flops. A table
reaches a run only through its durations over the graph's distinct keys, so
runs are memoized on those. simulate is a new Retimer's one run under the
graph's table, and its metrics come straight from the run: the units of a
queue share their lanes, so per queue their starts and durations give each
owner's first activity and compute time and the spans whose union sets the
exposed communication, a send/recv pair being one span. The trace it
returns builds its timeline, one TraceEvent per task, only when its events
are read, as by trace_io.write_trace or check_schedule; sweep and compare
never read them. sweep and compare run every schedule of a call on one
Retimer, so each topology is planned once and re-timed per point; the
metrics, which read the point's table and total_flops, are computed per
point. critical_path_ns is a plan and one chain. The allocator re-times one
Retimer per experiment under each split's table, and its exact oracle skips
a split whose chain already exceeds the best time found.

check_schedule lists what a trace breaks of the scheduler's invariants.

Errors: a negative table entry raises NegativeDuration; a dependency on an
unknown task, or tasks the ready set never reaches (a cycle), CycleDetected;
keys that do not give every task one table entry, or twins that are not one
send and one receive side naming each other, GraphConstructionError; a
makespan or sum of task times too large for a float in seconds,
MakespanOverflow.
"""

from __future__ import annotations

import operator
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .config import ScheduleKind
from .costs import StageTimes, staged_layer_time
from .placement import ATTN, FFN
from .taskgraph import (
    COMPUTE_LANE, RECV_LANE, GraphConstructionError, Table, Task, TaskGraph, TaskKind,
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


def _debug(message: str, *args) -> None:
    """Log message % args at DEBUG on logger afpipe.sim."""
    # Imported here, not at the top: a cold start that never logs, such as a
    # library import, would otherwise pay for importing logging.
    import logging

    logging.getLogger("afpipe.sim").debug(message, *args)


class TraceEvent(NamedTuple):
    task: Task
    start_ns: int
    end_ns: int


class ScheduleTrace:
    """A schedule's events in timeline order, (start, owner, lane, id), and
    its makespan, iteration_ns.

    ScheduleTrace(events, iteration_ns) holds the events it is given. The
    trace simulate returns holds its run instead and builds the events when
    they are first read, then drops the run. Two traces are equal when their
    events and iteration_ns are.
    """

    __slots__ = ("_events", "_run", "iteration_ns")

    def __init__(self, events: tuple[TraceEvent, ...], iteration_ns: int):
        self._events = events
        self._run: tuple | None = None
        self.iteration_ns = iteration_ns

    @classmethod
    def _of_run(cls, tasks: tuple[Task, ...], unit_tasks: list[tuple[int, ...]],
                starts: list[int], durations: list[int], makespan: int) -> ScheduleTrace:
        trace = cls((), makespan)
        trace._run = (tasks, unit_tasks, starts, durations)
        return trace

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        if self._run is not None:
            begin = time.perf_counter()
            self._events = _timeline(*self._run)
            self._run = None
            _debug("timeline: %d events in %.3f ms",
                   len(self._events), (time.perf_counter() - begin) * 1e3)
        return self._events

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleTrace):
            return NotImplemented
        return self.iteration_ns == other.iteration_ns and self.events == other.events

    def __repr__(self) -> str:
        return f"ScheduleTrace(events={self.events!r}, iteration_ns={self.iteration_ns!r})"


@dataclass(frozen=True)
class SimResult:
    iteration_time: float
    bubble_warmup: float
    bubble_fraction: float
    exposed_comm: float
    mfu: float
    per_group_busy: dict[str, float]


_COMPONENT_RANK = {ATTN: 0, FFN: 1, None: 2}


def durations_ns(keys: Iterable[tuple], table: Table) -> list[int]:
    """The duration (ns) that table gives each of keys: the one reader of a table's durations.

    A negative entry raises NegativeDuration, a key with none GraphConstructionError.
    """
    ns = {}
    for key, (duration, _) in table.items():
        if duration < 0:
            raise NegativeDuration(f"duration key {key!r} has duration {duration} ns")
        ns[key] = duration
    try:
        return list(map(ns.__getitem__, keys))
    except KeyError as missing:
        raise GraphConstructionError(f"duration key {missing} is not in the table") from None


def _check_keys(graph: TaskGraph) -> None:
    if len(graph.keys) != len(graph.tasks):
        raise GraphConstructionError(f"{len(graph.keys)} duration keys for {len(graph)} tasks")


def _check_task(tasks: dict[int, Task], tid: int, lane: str,
                deps: tuple[int, ...], twin_id: int | None) -> None:
    for dep in deps:
        if dep not in tasks:
            raise CycleDetected(f"task {tid} depends on unknown task {dep}")
    if twin_id is not None:
        twin = tasks.get(twin_id)
        paired = twin is not None and twin.twin == tid
        if not paired or (twin.lane == RECV_LANE) == (lane == RECV_LANE):
            raise GraphConstructionError(
                f"task {tid} and its twin {twin_id} are not a send/recv pair"
            )


class _Queue:
    """Ready units of one shape: their tasks have the same (owner, lane, kind).

    So they occupy the same lanes and share a 1F1B rank class. Parked units
    were ready by the time all those lanes are free, so each can start exactly
    then and they are ordered by ordinal alone; pending units are ready later
    and are ordered by (ready_ns, ordinal). A commit from this queue frees its
    lanes, so it re-keys its neighbours, the queues that share one of them.
    """

    __slots__ = ("lanes", "counters", "units", "sides", "lane", "other", "owner", "bwd",
                 "neighbors", "parked", "pending", "key", "stamp")

    def __init__(self, lanes: tuple[int, ...], counters: tuple[int, ...]):
        # Per task of a unit: the lane it occupies and the compute counter it
        # bumps, 2 * owner + 1 for backward compute, 2 * owner for forward,
        # -1 for none. The first task's counter is the units' rank class: the
        # owner's credit ranks compute units; others rank 0.
        self.lanes = lanes
        self.counters = counters
        self.units: list[int] = []  # every unit of this shape, in unit order
        # Per task of a unit, the task indices of that side of every unit, in
        # units order: set by the plan once every unit is queued.
        self.sides: tuple[tuple[int, ...], ...] = ()
        # What run reads of them. A unit is one task or a send/recv pair, so
        # lane and other are its two lanes, or its one lane twice. Then the
        # rank class's owner, -1 for rank 0 (run's last preference slot, which
        # never prefers backward), and whether the class is backward.
        self.lane, self.other = lanes[0], lanes[-1]
        self.owner = counters[0] >> 1 if counters[0] >= 0 else -1
        self.bwd = counters[0] >= 0 and counters[0] & 1 == 1
        # The distinct queues that share a lane with this one, itself first:
        # set by the plan once every queue exists.
        self.neighbors: tuple[_Queue, ...] = ()
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
    queue of each unit (lanes, 1F1B counters and neighbours) and the units of
    each queue, each task's lane and counter, the owner of each lane, the
    units that depend on each task, each unit's dependency count and each
    owner's credit. None of these reads a duration, so one plan schedules the
    graph under any durations of its tasks: run() is the scheduler loop.
    run() resets and reuses the plan's queues, so one plan runs one schedule
    at a time.
    """

    def __init__(self, graph: TaskGraph):
        _check_keys(graph)
        tasks = graph.tasks
        # graph.keys names one table entry per task, in this order.
        self.tasks = ordered = tuple(tasks.values())
        index = dict(zip(tasks, range(len(ordered))))
        # A schedulable unit is a lone task or a send/recv pair keyed by its
        # send side; the receive side is committed together with its twin.
        # Units are numbered in tie-break order, so the heap compares ints only.
        # Each task is unpacked once, which costs about as much as reading
        # five NamedTuple fields by name, and checked. An entry of order is
        # the tie-break key up to the unique task id, then the task index,
        # deps and twin, which the sort never compares. It holds no enum: a
        # tuple of ints, strings and such tuples stops being tracked by the
        # cyclic collector, so later collections skip it.
        order = []
        for k, (tid, _, owner, lane, deps, mb, _, vi, component, _, twin) in enumerate(ordered):
            _check_task(tasks, tid, lane, deps, twin)
            if twin is None or lane != RECV_LANE:
                order.append(
                    (mb, vi, _COMPONENT_RANK.get(component, 2), owner, lane, tid, k, deps, twin)
                )
        order.sort()
        lane_index: dict[tuple[str, str], int] = {}
        owner_index: dict[str, int] = {}
        queues: dict[tuple, _Queue] = {}  # by the (owner, lane, kind) of a unit's tasks
        self.unit_tasks = unit_tasks = []  # task indices of each unit
        self.unit_queue = unit_queue = []
        self.remaining = remaining = []  # dependency count of each unit
        dependents: dict[int, list[int]] = {tid: [] for tid in tasks}
        for i, (_, _, _, owner, lane, _, k, deps, twin) in enumerate(order):
            kind = ordered[k].kind
            if twin is None:
                members = (k,)
                shape = (owner, lane, kind)
            else:
                other = tasks[twin]
                members = (k, index[twin])
                shape = (owner, lane, kind, other.owner, other.lane, other.kind)
                if other.deps != deps:  # the two sides of a pair usually share their deps
                    deps += other.deps
            if len(deps) > 1:  # a dependency named twice counts once
                deps = set(deps)
            q = queues.get(shape)
            if q is None:
                lanes, counters = [], []
                for member in map(ordered.__getitem__, members):
                    lanes.append(
                        lane_index.setdefault((member.owner, member.lane), len(lane_index))
                    )
                    counter = -1
                    if member.lane == COMPUTE_LANE:
                        group = owner_index.setdefault(member.owner, len(owner_index))
                        counter = 2 * group + (member.kind is TaskKind.BWD_COMPUTE)
                    counters.append(counter)
                q = queues[shape] = _Queue(tuple(lanes), tuple(counters))
            q.units.append(i)
            unit_tasks.append(members)
            unit_queue.append(q)
            remaining.append(len(deps))
            for dep in deps:
                dependents[dep].append(i)

        # Units, by task index: the dict keeps the order of graph.tasks.
        self.dependents = list(dependents.values())
        self.credit = [graph.credits.get(owner, 1) for owner in owner_index]
        self.lane_owners = [owner for owner, _ in lane_index]
        self.queues = tuple(queues.values())
        lane_queues: list[list[_Queue]] = [[] for _ in lane_index]
        self.owner_queues: list[list[_Queue]] = [[] for _ in owner_index]
        for q in self.queues:
            for lane in q.lanes:
                lane_queues[lane].append(q)
            if q.owner >= 0:
                self.owner_queues[q.owner].append(q)
        # Per task, the lane and the compute counter of its side of its queue:
        # a commit reads them by task, with no zip over the queue's sides.
        self.task_lane = task_lane = [0] * len(ordered)
        self.task_counter = task_counter = [0] * len(ordered)
        for q in self.queues:
            shared = [q, *(p for lane in q.lanes for p in lane_queues[lane])]
            q.neighbors = tuple(dict.fromkeys(shared))
            q.sides = tuple(zip(*map(unit_tasks.__getitem__, q.units)))
            for side, lane, counter in zip(q.sides, q.lanes, q.counters):
                for k in side:
                    task_lane[k] = lane
                    task_counter[k] = counter

    def run(self, durations: list[int]) -> tuple[list[int | None], int]:
        """Schedule every unit when its tasks take durations (ns, in tasks order).

        Returns each unit's start and the makespan. Raises CycleDetected when
        the ready set empties with tasks unplaced.
        """
        unit_tasks, unit_queue, dependents = self.unit_tasks, self.unit_queue, self.dependents
        credit, owner_queues = self.credit, self.owner_queues
        task_lane, task_counter = self.task_lane, self.task_counter
        for q in self.queues:
            q.clear()
        remaining = self.remaining[:]
        started = [0] * (2 * len(credit))  # forward, backward compute starts per owner
        # Whether each owner prefers backward: once its in-flight forward count,
        # none yet, reaches its credit. The last slot is rank 0's (_Queue.owner).
        prefer = [c <= 0 for c in credit] + [False]
        lane_free = [0] * len(self.lane_owners)
        ready_ns = [0] * len(unit_tasks)  # latest end among a unit's committed dependencies
        unit_start: list[int | None] = [None] * len(unit_tasks)
        heap: list[tuple[int, int, int, int, _Queue]] = []
        pushes = stale = peak = 0

        # Units with no dependencies are ready at 0, when every lane is free;
        # they are taken in unit order, so each parked list is already a heap.
        for i, n in enumerate(remaining):
            if n == 0:
                unit_queue[i].parked.append(i)
        touched: Iterable[_Queue] = self.queues
        while True:
            # Give the heap the head of each non-empty touched queue under its
            # current key; a queue whose key has not changed pushes nothing.
            for r in touched:
                parked, pending = r.parked, r.pending
                if not (parked or pending):
                    continue
                free, other = lane_free[r.lane], lane_free[r.other]
                if other > free:
                    free = other
                while pending and pending[0][0] <= free:
                    heappush(parked, heappop(pending)[1])
                at, i = (free, parked[0]) if parked else pending[0]
                rank = prefer[r.owner] != r.bwd  # False (0) for the preferred class
                key = (at, rank, i)
                if key != r.key:
                    pushes += 1
                    r.key, r.stamp = key, pushes
                    heappush(heap, (at, rank, i, pushes, r))

            while heap:
                if len(heap) > peak:
                    peak = len(heap)
                at, _, i, stamp, q = heappop(heap)
                if stamp == q.stamp:
                    break
                stale += 1
            else:
                break
            heappop(q.parked if q.parked else q.pending)
            q.key = None
            unit_start[i] = at
            # Besides q's neighbours, the commit touches the owner's queues when
            # it flips the owner's preference and the queues of units it readies.
            touched = [*q.neighbors]
            for k in unit_tasks[i]:
                lane_free[task_lane[k]] = finish = at + durations[k]
                counter = task_counter[k]
                if counter >= 0:
                    started[counter] += 1
                    owner = counter >> 1
                    bwd = started[2 * owner] - started[2 * owner + 1] >= credit[owner]
                    if bwd != prefer[owner]:  # the owner's queues change rank
                        prefer[owner] = bwd
                        touched += owner_queues[owner]
                for j in dependents[k]:
                    if finish > ready_ns[j]:
                        ready_ns[j] = finish
                    remaining[j] -= 1
                    if remaining[j] == 0:
                        # Pending if ready after its lanes' free times so far; when
                        # a later side of this commit frees them later, the refresh
                        # parks it.
                        p = unit_queue[j]
                        ready = ready_ns[j]
                        if ready <= lane_free[p.lane] or ready <= lane_free[p.other]:
                            heappush(p.parked, j)
                        else:
                            heappush(p.pending, (ready, j))
                        touched.append(p)

        _debug("simulate: %d units, %d commits, %d heap pushes, %d stale pops, peak heap %d",
               len(unit_tasks), pushes - stale, pushes, stale, peak)
        if None in unit_start:
            raise CycleDetected("dependency graph contains a cycle")
        # A lane is free from the end of its last task, so the latest is the makespan.
        return unit_start, max(lane_free, default=0)

    @cached_property
    def _topological_order(self) -> list[int]:
        """The units, each after every unit it depends on; short when some lie on a cycle."""
        unit_tasks, dependents = self.unit_tasks, self.dependents
        remaining = self.remaining[:]
        order = [i for i, n in enumerate(remaining) if n == 0]
        for i in order:  # the loop reaches the units appended while it runs
            for k in unit_tasks[i]:
                for j in dependents[k]:
                    remaining[j] -= 1
                    if remaining[j] == 0:
                        order.append(j)
        return order

    def chain_ns(self, durations: list[int]) -> int:
        """The longest dependency chain when tasks take durations (ns, in tasks order).

        Lanes are ignored, so it is a lower bound on run's makespan. A
        send/recv pair is one unit that starts after the union of its two
        sides' dependencies, as run starts it; so when the twins' deps differ
        the chain can exceed a task-by-task longest path. The topological
        order is built by the first call and kept. Raises CycleDetected when
        some unit lies on a cycle.
        """
        unit_tasks, dependents = self.unit_tasks, self.dependents
        order = self._topological_order
        if len(order) < len(unit_tasks):
            raise CycleDetected("dependency graph contains a cycle")
        ready = [0] * len(unit_tasks)  # the longest chain ending before each unit
        longest = 0
        for i in order:
            at = ready[i]
            for k in unit_tasks[i]:
                end = at + durations[k]
                if end > longest:
                    longest = end
                for j in dependents[k]:
                    if end > ready[j]:
                        ready[j] = end
        return longest


class Retimer:
    """Schedules the graphs of one topology on one kept SchedulePlan.

    It keeps one graph, its plan and its distinct duration keys. A point of
    that topology reaches a run only through ns(table), its table's
    durations over those keys, so runs are memoized on ns: a point whose
    table gives every key the durations of an earlier point's is a memo
    hit. simulate remembers its last two runs; makespan_ns remembers every
    makespan. simulate(graph) plans graph unless it shares the kept graph's
    tasks and keys (build_task_graph(..., like=retimer.graph) builds such a
    graph for a point of the kept topology). A graph of another topology
    replaces the kept one, so at most one plan is alive. The metrics read the
    point's table, total_flops and cluster, so simulate computes them every
    call.
    makespan_ns and chain_ns re-time the kept graph under ns alone, for the
    allocator; they keep no starts.

    counts gathers "plans" (plans built), "calls" (runs asked for) and
    "retimed" (plan runs; the other calls hit the memo).
    """

    def __init__(self, graph: TaskGraph | None = None, counts: Counter | None = None):
        self.counts = Counter() if counts is None else counts
        self.graph: TaskGraph | None = None
        if graph is not None:
            self._keep(graph)

    def _keep(self, graph: TaskGraph) -> None:
        if self.graph is not None:
            # Queues list each other as neighbours; unlinked, the dropped plan
            # is freed now, not by a later cyclic collection. It cannot run
            # again, and nothing but this retimer holds it.
            for q in self.plan.queues:
                q.neighbors = ()
        self.graph = self.plan = None  # the kept plan goes before the next is built
        self.plan = SchedulePlan(graph)
        self.graph = graph
        column: dict[tuple, int] = {}
        # Each task's distinct key, numbered in order of first use.
        self.columns = [column.setdefault(key, len(column)) for key in graph.keys]
        self.keys = tuple(column)
        self.runs: dict[tuple[int, ...], tuple[list[int | None], int]] = {}  # simulate's last two
        self.makespans: dict[tuple[int, ...], int] = {}
        self.chains: dict[tuple[int, ...], int] = {}
        self.counts["plans"] += 1

    def ns(self, table: Table) -> tuple[int, ...]:
        """The durations (ns) that table gives the kept graph's distinct keys."""
        return tuple(durations_ns(self.keys, table))

    def durations(self, ns: tuple[int, ...]) -> list[int]:
        """Each task's duration (ns, in tasks order) when its distinct key takes ns."""
        return list(map(ns.__getitem__, self.columns))

    def makespan_ns(self, ns: tuple[int, ...]) -> int:
        """The makespan of the plan's run under ns: one plan run per distinct ns."""
        self.counts["calls"] += 1
        if ns not in self.makespans:
            self.makespans[ns] = self.plan.run(self.durations(ns))[1]
            self.counts["retimed"] += 1
        return self.makespans[ns]

    def chain_ns(self, ns: tuple[int, ...]) -> int:
        """The longest dependency chain under ns (SchedulePlan.chain_ns), memoized on ns."""
        if ns not in self.chains:
            self.chains[ns] = self.plan.chain_ns(self.durations(ns))
        return self.chains[ns]

    def simulate(self, graph: TaskGraph) -> tuple[ScheduleTrace, SimResult]:
        """Schedule graph under its table and aggregate the run metrics.

        The trace builds its events only when they are read. Raises
        CycleDetected when the ready set empties with tasks unplaced.
        """
        begin = time.perf_counter()
        built = (self.graph is None or graph.tasks is not self.graph.tasks
                 or graph.keys is not self.graph.keys)
        if built:
            self._keep(graph)
        planned = time.perf_counter()
        ns = self.ns(graph.table)
        durations = self.durations(ns)
        self.counts["calls"] += 1
        ran = ns not in self.runs
        if ran:
            # A run's starts cost a list as long as the units, so only the
            # last two stay: enough for the two kinds that share a topology
            # and alternate point by point.
            if len(self.runs) == 2:
                del self.runs[next(iter(self.runs))]
            self.runs[ns] = self.plan.run(durations)
            self.counts["retimed"] += 1
        starts, makespan = self.runs[ns]
        timed = time.perf_counter()
        result = _metrics(graph, self.plan, starts, durations, makespan)
        _debug("simulate wall: plan %.3f ms (%s), run %.3f ms (%s), metrics %.3f ms",
               (planned - begin) * 1e3, "built" if built else "reused",
               (timed - planned) * 1e3, "ran" if ran else "memo hit",
               (time.perf_counter() - timed) * 1e3)
        trace = ScheduleTrace._of_run(self.plan.tasks, self.plan.unit_tasks, starts, durations,
                                      makespan)
        return trace, result


def simulate(graph: TaskGraph) -> tuple[ScheduleTrace, SimResult]:
    """Schedule the graph under its table and aggregate the run metrics: a new plan's run.

    The trace builds its events only when they are read. Raises
    CycleDetected when the ready set empties with tasks unplaced.
    """
    return Retimer().simulate(graph)


def _timeline(tasks: tuple[Task, ...], unit_tasks: list[tuple[int, ...]],
              starts: list[int], durations: list[int]) -> tuple[TraceEvent, ...]:
    """One event per task of a run, ordered by (start, owner, lane, id)."""
    # With rank[k] the rank of task k under (owner, lane, id), that order is
    # the order of the ints start * n + rank[k], which sort without a tuple
    # per task. by_rank lists the task indices by rank: stable sorts on id,
    # then lane, then owner cost half of one sort on (owner, lane, id) tuples.
    n = len(tasks)
    by_rank = sorted(range(n), key=[t.id for t in tasks].__getitem__)
    by_rank.sort(key=[t.lane for t in tasks].__getitem__)
    by_rank.sort(key=[t.owner for t in tasks].__getitem__)
    rank = sorted(range(n), key=by_rank.__getitem__)  # the inverse permutation
    events = []
    for key in sorted([
        begin * n + rank[k] for begin, members in zip(starts, unit_tasks) for k in members
    ]):
        at = key // n
        k = by_rank[key % n]
        events.append(TraceEvent(tasks[k], at, at + durations[k]))
    return tuple(events)


def _metrics(graph: TaskGraph, plan: SchedulePlan, starts: list[int],
             durations: list[int], makespan: int) -> SimResult:
    """The run metrics of plan's run: unit starts and makespan under durations.

    Units of one queue share their lanes, so each queue's first start,
    compute time and spans come from its units' starts and durations at
    once. A send/recv pair is one communication span.
    """
    iteration = seconds(makespan)
    if not plan.tasks:
        return SimResult(0.0, 0.0, 0.0, 0.0, 0.0, {})

    lane_owners = plan.lane_owners
    first_activity: dict[str, int] = {}
    busy: dict[str, int] = {}
    comm_spans: list[tuple[int, int]] = []
    compute_spans: list[tuple[int, int]] = []
    for q in plan.queues:
        begins = list(map(starts.__getitem__, q.units))
        first = min(begins)
        # Per task of the units: its durations, in q.units order.
        sides = [list(map(durations.__getitem__, side)) for side in q.sides]
        comm_sides = []
        for lane, counter, side in zip(q.lanes, q.counters, sides):
            owner = lane_owners[lane]
            earliest = first_activity.get(owner)
            if earliest is None or first < earliest:
                first_activity[owner] = first
            if counter >= 0:
                busy[owner] = busy.get(owner, 0) + sum(side)
                compute_spans += zip(begins, map(operator.add, begins, side))
            else:
                comm_sides.append(side)
        if comm_sides:
            longest = comm_sides[0] if len(comm_sides) == 1 else map(max, *comm_sides)
            comm_spans += zip(begins, map(operator.add, begins, longest))
    # Exposure inside task durations; no afpipe or naive table has any, so a
    # table of zeros skips the per-task sum.
    embedded = {key: exposed_ns for key, (_, exposed_ns) in graph.table.items()}
    embedded_ns = sum(map(embedded.__getitem__, graph.keys)) if any(embedded.values()) else 0

    # Warmup bubble: the longest any group waits before its first activity.
    bubble_warmup = max(first_activity.values()) / 1e9

    compute_owners = [o for o in first_activity if busy.get(o, 0) > 0]
    if compute_owners and makespan > 0:
        fraction = 1.0 - sum(busy[o] for o in compute_owners) / (len(compute_owners) * makespan)
        fraction = min(max(fraction, 0.0), 1.0)
    else:
        fraction = 0.0

    mfu = 0.0
    if graph.total_flops > 0 and iteration > 0 and graph.world_gpus > 0 and graph.gpu_peak > 0:
        mfu = graph.total_flops / (iteration * graph.world_gpus * graph.gpu_peak)
        mfu = min(max(mfu, 0.0), 1.0)

    return SimResult(
        iteration_time=iteration,
        bubble_warmup=bubble_warmup,
        bubble_fraction=fraction,
        exposed_comm=_exposed_ns(comm_spans, compute_spans) / 1e9 + seconds(embedded_ns),
        mfu=mfu,
        per_group_busy={o: busy.get(o, 0) / 1e9 for o in sorted(first_activity)},
    )


def _merge(intervals: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The union of intervals as disjoint [start, end] pairs, in order."""
    merged: list[list[int]] = []
    last = None
    for s, e in sorted(intervals):
        if last is not None and s <= last[1]:
            if e > last[1]:
                last[1] = e
        else:
            last = [s, e]
            merged.append(last)
    return merged


def _exposed_ns(comm_spans: Iterable[tuple[int, int]],
                compute_spans: Iterable[tuple[int, int]]) -> int:
    """How long some comm span runs while no compute span does (ns).

    A zero-length span adds nothing to either union, so none is filtered out.
    """
    comm, compute = _merge(comm_spans), _merge(compute_spans)
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
    return exposed


def exposed_comm(trace: ScheduleTrace) -> float:
    """Seconds during which communication runs while every compute engine idles."""
    comm_spans: list[tuple[int, int]] = []
    compute_spans: list[tuple[int, int]] = []
    for task, start, end in trace.events:
        (compute_spans if task.lane == COMPUTE_LANE else comm_spans).append((start, end))
    return _exposed_ns(comm_spans, compute_spans) / 1e9


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
    """Longest dependency chain ignoring resource contention (a lower bound).

    The graph's plan's chain_ns under its table: a send/recv pair counts the
    union of its two sides' dependencies.
    """
    plan = SchedulePlan(graph)
    return plan.chain_ns(durations_ns(graph.keys, graph.table))


def lane_counts(graph: TaskGraph) -> tuple[tuple[tuple, ...], list[list[int]]]:
    """The distinct keys of graph and how many tasks of each (owner, lane) read each."""
    _check_keys(graph)
    keys = tuple(dict.fromkeys(graph.keys))
    column = {key: i for i, key in enumerate(keys)}
    lanes: dict[tuple[str, str], list[int]] = {}
    for task, key in zip(graph.tasks.values(), graph.keys):
        lanes.setdefault((task.owner, task.lane), [0] * len(keys))[column[key]] += 1
    return keys, list(lanes.values())


def lane_bound_ns(rows: list[list[int]], ns: Sequence[int]) -> int:
    """Max over (owner, lane) of summed durations.

    rows are lane_counts' counts and ns the durations of its distinct keys.
    """
    return max((sum(map(operator.mul, ns, row)) for row in rows), default=0)


def resource_bound_ns(graph: TaskGraph) -> int:
    """Max over (owner, lane) of summed durations (a second lower bound)."""
    keys, rows = lane_counts(graph)
    return lane_bound_ns(rows, durations_ns(keys, graph.table))


def check_schedule(graph: TaskGraph, trace: ScheduleTrace) -> list[str]:
    """The scheduler invariants that trace breaks on graph; empty when it keeps them all.

    Every task runs exactly once, for its duration, starting no earlier than
    each dependency ends; no two tasks overlap on one (owner, lane); send/recv
    twins start and end together; iteration_ns is the last end and is at
    least both lower bounds, critical_path_ns and resource_bound_ns.
    """
    bound = max(critical_path_ns(graph), resource_bound_ns(graph))
    duration = dict(zip(graph.tasks, durations_ns(graph.keys, graph.table)))
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
        if end - start != duration[tid]:
            problems.append(f"task {tid} runs {end - start} ns, not its {duration[tid]} ns")
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
    if trace.iteration_ns < bound:
        problems.append(f"iteration_ns {trace.iteration_ns} is below the lower bound {bound}")
    return problems
