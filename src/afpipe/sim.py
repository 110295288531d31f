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
order above, keyed (start, rank, unit). A queue's key can fall only when a
unit is added to it, when its owner's preference flips or when its own head
is committed:
  * a unit starts no earlier than each of its lanes is free, so lane free
    times only grow. A unit that was ready by the time its lanes were free
    stays so (parked): it starts exactly when they are next free, and within
    its queue its tie-break alone orders it. A unit ready later (pending) is
    ordered by (ready time, tie-break) until its lanes' free time reaches it,
    and keeps its key then. So a commit on a lane a queue shares can only
    raise the queue's key;
  * a ready unit's dependencies have all ended, so its ready time is fixed;
  * the 1F1B rank changes only when the group commits compute.
So a commit re-keys the committed queue, the queues of the group whose
preference it flips and the non-empty queues it adds ready units to; a unit
it readies into an empty queue is that queue's head, keyed and pushed at
once. Every other key stays, at most its queue's true key, as in the lazy
greedy of Minoux (1978): an entry of a queue's last push is current when it
is popped if both of the queue's lanes are free by its start, and is
otherwise re-keyed and the heap popped again. One refresh loop re-keys: it
keys each touched queue's head and pushes it when the key has changed.
Superseded entries are skipped when popped; they and the re-keyed entries
are the stale pops, so the pushes are the commits plus the stale pops. A
queue may be touched twice in one commit, and the touched queues come in no
set order; neither matters. A second refresh finds the key it just pushed
and pushes nothing. Live keys are unique, so the order of the pushes cannot
change which unit the heap yields. A commit costs a few heap operations
instead of a scan of every ready unit. With AFPIPE_LOG=DEBUG, logger
afpipe.sim logs each run's units, commits, heap pushes, stale pops and peak
heap size; each simulate's wall time of plan, run and metrics, with whether
the plan was built or reused and whether the run ran or hit the memo; for
each plan of two or more copies, its units, template units, micro-batches
and wall time; and each timeline build's event count and wall time.

Plan and run: nothing above but the start times reads a duration, and a task
holds none: graph.keys names its entry of graph.table. So a SchedulePlan is
built once per walk (taskgraph.Walk, the graph's tasks, keys and credits)
and keeps it. It holds the template's units in tie-break order, their
queues, lanes and 1F1B counters, the initial dependency counts, a commit
record per unit (each of its tasks' lane, counter and dependents) and the
walk's credits. A walk is its template (Walk.template) repeated copies
times: the walk numbers tasks micro-batch by micro-batch and the tie-break
order is micro-batch-major. So a plan is its template's, checked task by
task, run walk.copies times, the way a modulo schedule repeats one kernel
over its iterations: task m * size + k is copy m of template task k, and
unit m * units + u copy m of template unit u. A serial topology also makes
each micro-batch's first unit wait for the last task of the one before: that
task's dependent one copy on, the plan's link. A hand-built walk is its own
template, one copy. No plan array grows with the copies, and no part of
plan, run or metrics reads a Task or key beyond the template's: a built
walk's tasks are walked only when graph.tasks is first read, and the metrics
take the exposure inside task durations as the copies times the template
keys' sum. The timeline order ranks each task by its plan lane, (owner,
lane), and then its id, copy m of a template id's rank being m * size plus
that rank, and the Retimer counts keys and lanes over the template.
SchedulePlan.run takes each template task's duration, as durations_ns reads
it from a table and every copy repeats, and returns each unit's start and
the makespan; only the counts, ready times and starts it writes span every
copy. SchedulePlan._heads, its forward pass, takes the same durations and
returns each unit's head and the longest dependency chain over the units, a
lower bound on run's makespan that ignores the lanes. It walks the template,
in a topological order built by its first call and kept, and multiplies the
template's chain by the copies when the link chains them.
SchedulePlan.head_tail_ns adds to that pass what the chain misses when the
copies are not linked (Carlier's heads and tails): every copy of a template
unit starts after the unit's head, the copies queue on the unit's lanes for
its longest task each, and the last still has the unit's tail to run. So the
largest head + (copies - 1) * side + tail over the template's units bounds
the makespan too; at one copy, or when linked, it is the chain.

Ownership runs one way: a plan keeps its walk, and a Retimer and the traces
of its runs keep the plan, so each fact of a walk is kept in one place. A
Retimer keeps one plan and runs it under the table of any graph of the
plan's walk: the graphs of one topology (taskgraph.Topology), which differ
only in table, total_flops and cluster numbers. A table reaches a run only
through its durations over the walk's distinct keys, so runs are memoized on
those. simulate is a new Retimer's one run under the graph's table, and its
metrics come straight from the run and from columns the plan builds once
from its template (SchedulePlan._metric_columns): each compute task with its
unit, each unit that communicates with its one or two communication tasks,
and each owner's units and compute tasks. Each copy's row of unit starts
gives its compute and communication spans, whose union sets the exposed
communication, a send/recv pair being one span as long as its longer side;
an owner's first activity is the least start of its units and its compute
time the copies times its compute tasks' sum. exposed_comm, the one
definition of exposed communication, takes those spans and the table's
exposure inside task durations, and counts the time comm covers beyond
compute as |comm ∪ compute| - |compute|. The trace it returns holds the
plan, the unit starts and the template's durations, and keeps them: its
timeline (ScheduleTrace.timeline) is ordered once from the template and the
run, and trace_io.write_trace and check_schedule read it and build no
TraceEvent. Its events, one TraceEvent per task of the plan's walk, are a
cache built from that timeline only when they are read, and reading them
keeps the run. sweep and compare read neither. compare and sweep keep one
Retimer per schedule family, sweep's across its points, so each topology is
planned once and re-timed per point; the metrics, which read the point's
table and total_flops, are computed per point from the kept plan's columns.
The Retimer's one index of the distinct keys also gives three lower bounds
on a makespan under ns: chain_ns, the longest dependency chain;
head_tail_ns, the chain with a unit's copies queued on its lanes, which
reads the heads of chain_ns's pass, one per distinct ns; and lane_bound_ns,
the largest summed duration of one (owner, lane). critical_path_ns,
resource_bound_ns and check_schedule read them from a new Retimer. The
allocator re-times one Retimer per experiment under each split's table, and
its exact oracle goes best-first over the three bounds and the makespan.

check_schedule lists what a trace breaks of the scheduler's invariants.

Errors: a negative table entry raises NegativeDuration; a dependency on an
unknown task, or tasks the ready set never reaches (a cycle), CycleDetected;
keys that do not give every task one table entry, or twins that are not one
send and one receive side naming each other, GraphConstructionError; a
makespan or sum of task times too large for a float in seconds,
MakespanOverflow. A built walk's tasks are its topology's by construction
(its tasks, keys and credits are read-only), so only its template is checked.
"""

from __future__ import annotations

import operator
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .config import ScheduleKind
from .costs import StageTimes, staged_layer_time
from .placement import ATTN, FFN
from .taskgraph import (
    COMPUTE_LANE, RECV_LANE, GraphConstructionError, Table, Task, TaskGraph, TaskKind, Walk,
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
    trace simulate returns holds its run instead, and keeps it: the plan
    that ran (SchedulePlan, whose walk, lanes, task lanes and units
    _timeline_order reads), each unit's start and each template task's
    duration. timeline() gives the events' parts without building them, and
    is what trace_io and check_schedule read; it is built once, by whichever
    reads it first, from the run or from the given events. events is a
    cache: a run's trace builds them from its timeline, reading the plan's
    walk's tasks, when they are first read, and still reads the timeline
    from the run. Two traces are equal when their events and iteration_ns
    are.
    """

    __slots__ = ("_events", "_run", "_timeline", "iteration_ns")

    def __init__(self, events: tuple[TraceEvent, ...] | None, iteration_ns: int):
        self._events = events  # None until a run's events are read
        self._run: tuple[SchedulePlan, list[int], list[int]] | None = None  # plan, starts, ns
        self._timeline: tuple[tuple[Task, ...], Sequence[int], list[int], list[int]] | None = None
        self.iteration_ns = iteration_ns

    @classmethod
    def _of_run(cls, plan: SchedulePlan, starts: list[int], durations: list[int],
                makespan: int) -> ScheduleTrace:
        """The trace of plan's run: its unit starts and makespan under durations."""
        trace = cls(None, makespan)
        trace._run = (plan, starts, durations)
        return trace

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        if self._events is None:
            begin = time.perf_counter()
            _, order, begins, durations = self.timeline()
            tasks = tuple(self._run[0].walk.tasks.values())
            size = len(durations)  # the template's: task k lasts durations[k % size]
            ends = map(operator.add, begins, map(durations.__getitem__, map(size.__rmod__, order)))
            self._events = tuple(map(TraceEvent, map(tasks.__getitem__, order), begins, ends))
            _debug("timeline: %d events in %.3f ms",
                   len(self._events), (time.perf_counter() - begin) * 1e3)
        return self._events

    def timeline(self) -> tuple[tuple[Task, ...], Sequence[int], list[int], list[int]]:
        """The events' parts, (tasks, order, starts, durations), built on the first call.

        tasks are the plan's walk's template tasks and durations theirs, and
        with size = len(tasks), event i is task order[i] of the run: copy
        order[i] // size of task tasks[order[i] % size], that task with
        order[i] // size added to its micro-batch and size times as much to
        its id. It starts at starts[i] and lasts durations[order[i] % size]
        ns, as every copy of its task does. A trace of given events is its
        own template, one copy. Reading it builds no TraceEvent.
        """
        if self._timeline is None:
            if self._run is None:
                events = self._events
                self._timeline = (
                    tuple(ev.task for ev in events), range(len(events)),
                    [ev.start_ns for ev in events], [ev.end_ns - ev.start_ns for ev in events])
            else:
                plan, starts, durations = self._run
                self._timeline = (tuple(plan.walk.template.tasks.values()),
                                  *_timeline_order(plan, starts), durations)
        return self._timeline

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


def _check_keys(graph: TaskGraph | Walk) -> None:
    """Raise GraphConstructionError unless graph has one duration key per task."""
    if len(graph.keys) != len(graph.tasks):
        raise GraphConstructionError(
            f"{len(graph.keys)} duration keys for {len(graph.tasks)} tasks"
        )


class _Queue:
    """Ready units of one shape: their tasks have the same (owner, lane, kind).

    So they occupy the same lanes and share a 1F1B rank class. Parked units
    were ready by the time all those lanes are free, so each can start exactly
    then and they are ordered by ordinal alone; pending units are ready later
    and are ordered by (ready_ns, ordinal). A commit from another queue that
    shares a lane can only raise this queue's key, so it leaves the key to be
    re-checked when popped (SchedulePlan.run). No queue refers to another.
    """

    __slots__ = ("lanes", "counters", "units", "sides", "roots", "lane", "other", "owner",
                 "bwd", "parked", "pending", "key", "stamp")

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
        # Its units with no dependency in the template, which alone can be
        # ready at 0 in some copy: set by the plan with the sides.
        self.roots: list[int] = []
        # What run reads of them. A unit is one task or a send/recv pair, so
        # lane and other are its two lanes, or its one lane twice. Then the
        # rank class's owner, -1 for rank 0 (run's last preference slot, which
        # never prefers backward), and whether the class is backward.
        self.lane, self.other = lanes[0], lanes[-1]
        self.owner = counters[0] >> 1 if counters[0] >= 0 else -1
        self.bwd = counters[0] >= 0 and counters[0] & 1 == 1
        self.clear()

    def clear(self) -> None:
        """Empty the queue before a run."""
        self.parked: list[int] = []
        self.pending: list[tuple[int, int]] = []
        self.key: tuple[int, int, int] | None = None  # key of the live heap entry
        self.stamp = 0  # push number of the live heap entry


class SchedulePlan:
    """What scheduling a walk reads, except its durations; built once per walk.

    It holds the walk, the template's units in tie-break order, its queues
    (lanes and 1F1B counters) and the units and roots of each, each owner's
    queues, each task's lane, the (owner, lane) of each lane, each unit's
    dependency count and commit record, each owner's credit and the link.
    A unit's commit record holds, per task, the task index, lane and
    compute counter and its dependents, each as (unit, queue, whether the
    task is its one dependency in every copy), so a commit reads no other
    array by task; the bounds' passes read the dependents there too. None
    of these reads a duration, so one plan schedules the walk under any
    durations of its tasks: run() is the scheduler loop. The metric
    columns (_metric_columns) are built from the template by the first
    simulate that reports a run of the plan.

    SchedulePlan(walk) plans walk (taskgraph.Walk) and keeps it: it plans
    the walk's template task by task, checking its keys and each task's
    deps and twin, under the walk's credits. run and the bounds repeat the
    template over walk.copies, the walk's micro-batch count; a hand-built
    walk is its own template, one copy. Every array is the template's, so
    none grows with the copies. link is None unless the walk's topology is
    serial and has two or more copies; then it is units plus the unit of
    task 0, the last task's one dependent, which readies copy m + 1's first
    unit when copy m's last task ends.
    run() resets and reuses the plan's queues, so one plan runs one schedule
    at a time. No queue refers to another, so nothing in a plan forms a
    reference cycle: a dropped plan is freed when its last reference goes.
    """

    def __init__(self, walk: Walk):
        begin = time.perf_counter()
        self.walk = walk
        template = walk.template
        _check_keys(template)
        tasks = template.tasks
        # template.keys names one table entry per task, in this order.
        ordered = tuple(tasks.values())
        index = dict(zip(tasks, range(len(ordered))))
        # A schedulable unit is a lone task or a send/recv pair keyed by its
        # send side; the receive side is committed together with its twin.
        # Units are numbered in tie-break order, so the heap compares ints only.
        # Each task is unpacked once, which costs about as much as reading
        # five NamedTuple fields by name, and checked in task order: each
        # dependency is a task, and a twin names the task back from the other
        # side of a send/recv pair. An entry of order is the tie-break key up
        # to the unique task id, then the task index, kind, deps and twin,
        # which the sort never compares.
        order = []
        for k, (tid, kind, owner, lane, deps, mb, _, vi, component, _, twin) in enumerate(ordered):
            for dep in deps:
                if dep not in tasks:
                    raise CycleDetected(f"task {tid} depends on unknown task {dep}")
            if twin is not None:
                other = tasks.get(twin)
                if (other is None or other.twin != tid
                        or (other.lane == RECV_LANE) == (lane == RECV_LANE)):
                    raise GraphConstructionError(
                        f"task {tid} and its twin {twin} are not a send/recv pair"
                    )
                if lane == RECV_LANE:
                    continue
            order.append(
                (mb, vi, _COMPONENT_RANK.get(component, 2), owner, lane, tid, k, kind, deps, twin)
            )
        order.sort()
        units = len(order)
        # The serial link's unit, one copy on: each micro-batch's first task
        # also waits for the last task of the one before. An order entry's
        # task index is its unit's first task.
        linked = walk.copies > 1 and walk.topology.serial
        self.link = link = units + [entry[6] for entry in order].index(0) if linked else None
        lane_index: dict[tuple[str, str], int] = {}
        owner_index: dict[str, int] = {}
        queues: dict[tuple, _Queue] = {}  # by the (owner, lane, kind) of a unit's tasks
        self.unit_tasks = unit_tasks = []  # task indices of each unit
        unit_queue = []  # the queue of each unit
        self.remaining = remaining = []  # dependency count of each unit
        # The units that depend on each task, by task index, and what a commit
        # of the task reads of each: (unit, queue, whether the task is its one
        # dependency in every copy, which the link's unit is not past the first).
        targets = [[] for _ in ordered]
        for i, (_, _, _, owner, lane, _, k, kind, deps, twin) in enumerate(order):
            if twin is None:
                members = (k,)
                shape = (owner, lane, kind)
            else:
                j = index[twin]
                other = ordered[j]
                members = (k, j)
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
            target = (i, q, len(deps) == 1 and i + units != link)
            for dep in deps:
                targets[index[dep]].append(target)
        if link is not None:  # the last task's dependent one copy on
            targets[-1].append((link, unit_queue[link - units], False))

        self.credit = [walk.credits.get(owner, 1) for owner in owner_index]
        self.lanes = list(lane_index)  # (owner, lane) per lane index
        self.queues = tuple(queues.values())
        self.owner_queues: list[list[_Queue]] = [[] for _ in owner_index]
        # Per task, the lane of its side of its queue, and what a commit reads
        # of it: its index, lane, compute counter and dependents.
        self.task_lane = task_lane = [0] * len(ordered)
        record = [()] * len(ordered)
        for q in self.queues:
            if q.owner >= 0:
                self.owner_queues[q.owner].append(q)
            q.sides = tuple(zip(*map(unit_tasks.__getitem__, q.units)))
            q.roots = [u for u in q.units if remaining[u] == 0]
            for side, lane, counter in zip(q.sides, q.lanes, q.counters):
                for k in side:
                    task_lane[k] = lane
                    record[k] = (k, lane, counter, targets[k])
        self.records = [tuple(map(record.__getitem__, members)) for members in unit_tasks]
        if walk.copies > 1:
            _debug("plan: %d units from a %d-unit template x %d micro-batches in %.3f ms",
                   units * walk.copies, units, walk.copies, (time.perf_counter() - begin) * 1e3)

    def run(self, durations: list[int]) -> tuple[list[int | None], int]:
        """Schedule every unit of every copy when its tasks take durations (ns).

        durations holds the template's tasks, in tasks order, which every
        copy repeats. Unit i is copy i // units of template unit i % units.
        Returns each unit's start and the makespan. Raises CycleDetected when
        the ready set empties with tasks unplaced.
        """
        records, credit, owner_queues = self.records, self.credit, self.owner_queues
        units, copies = len(records), self.walk.copies
        # Each copy's dependency counts, and one padded copy past the end,
        # where the last copy's serial link lands: its counts start below 0,
        # so none of its units is ever ready.
        remaining = self.remaining * copies + [-1] * units
        if self.link is not None:  # every copy but the first waits for the one before
            for i in range(self.link, copies * units, units):
                remaining[i] += 1
        started = [0] * (2 * len(credit))  # forward, backward compute starts per owner
        # Whether each owner prefers backward: once its in-flight forward count,
        # none yet, reaches its credit. The last slot is rank 0's (_Queue.owner).
        prefer = [c <= 0 for c in credit] + [False]
        lane_free = [0] * len(self.lanes)
        ready_ns = [0] * len(remaining)  # latest end among a unit's committed dependencies
        unit_start: list[int | None] = [None] * (copies * units)
        heap: list[tuple[int, int, int, int, _Queue]] = []
        pushes = stale = peak = 0

        # Units with no dependencies are ready at 0, when every lane is free:
        # the queues' roots, but the link's unit past the first copy. They are
        # taken in unit order, so each parked list is already a heap.
        for q in self.queues:
            q.clear()
            q.parked = [m + u for m in range(0, copies * units, units) for u in q.roots
                        if remaining[m + u] == 0]
        touched: Iterable[_Queue] = self.queues
        while True:
            # Give the heap the head of each non-empty touched queue under its
            # current key; a queue whose key has not changed pushes nothing.
            # This is the one loop that re-keys a queue.
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
            if lane_free[q.lane] > at or lane_free[q.other] > at:
                # A commit on one of q's lanes has raised its key since the
                # push: re-key q and pop again.
                stale += 1
                touched = (q,)
                continue
            heappop(q.parked if q.parked else q.pending)
            q.key = None
            unit_start[i] = at
            # The commit touches q, the owner's queues when it flips the owner's
            # preference, and the non-empty queues it adds ready units to.
            touched = [q]
            u = i % units
            offset = i - u  # of unit i's copy; its tasks and dependents are the template's
            for k, lane, counter, deps in records[u]:
                lane_free[lane] = finish = at + durations[k]
                if counter >= 0:
                    started[counter] += 1
                    owner = counter >> 1
                    bwd = started[2 * owner] - started[2 * owner + 1] >= credit[owner]
                    if bwd != prefer[owner]:  # the owner's queues change rank
                        prefer[owner] = bwd
                        touched += owner_queues[owner]
                for d, p, single in deps:
                    j = d + offset
                    if single:
                        ready = finish
                    else:
                        if finish > ready_ns[j]:
                            ready_ns[j] = finish
                        remaining[j] -= 1
                        if remaining[j]:
                            continue
                        ready = ready_ns[j]
                    # Pending if ready after its lanes' free times so far; when
                    # a later side of this commit frees them later, a refresh
                    # parks it.
                    free, other = lane_free[p.lane], lane_free[p.other]
                    if other > free:
                        free = other
                    if p.parked or p.pending:
                        if ready <= free:
                            heappush(p.parked, j)
                        else:
                            heappush(p.pending, (ready, j))
                        touched.append(p)
                        continue
                    # The one unit of an empty queue is its head: key it here.
                    if ready <= free:
                        p.parked.append(j)
                    else:
                        p.pending.append((ready, j))
                        free = ready
                    rank = prefer[p.owner] != p.bwd
                    pushes += 1
                    p.key, p.stamp = (free, rank, j), pushes
                    heappush(heap, (free, rank, j, pushes, p))

        _debug("simulate: %d units, %d commits, %d heap pushes, %d stale pops, peak heap %d",
               len(unit_start), pushes - stale, pushes, stale, peak)
        if None in unit_start:
            raise CycleDetected("dependency graph contains a cycle")
        # A lane is free from the end of its last task, so the latest is the makespan.
        return unit_start, max(lane_free, default=0)

    @cached_property
    def _topological_order(self) -> list[int]:
        """The template's units, each after every unit it depends on; short on a cycle.

        The link lands in a padded copy whose counts start below 0, so it readies none.
        """
        records = self.records
        remaining = self.remaining + [-1] * len(records)
        order = [i for i, n in enumerate(remaining) if n == 0]
        for i in order:  # the loop reaches the units appended while it runs
            for _, _, _, targets in records[i]:
                for j, _, _ in targets:
                    remaining[j] -= 1
                    if remaining[j] == 0:
                        order.append(j)
        return order

    @cached_property
    def _metric_columns(self) -> tuple[list, ...]:
        """What _metrics reads of the template; built by the first call and kept.

        Seven columns, read off the queues, none of which reads a duration
        or grows with the copies: each compute task's unit and its task
        index; the units that hold communication, first those with one
        communication task, then those with two (a send/recv pair); the task
        of each of the former; the two sides of each of the latter; and per
        owner, (owner, the units it takes part in, its compute tasks).
        """
        compute_units, compute_tasks, lone_units, lone_tasks = [], [], [], []
        pair_units, sides, twins = [], [], []
        owned: dict[str, tuple[list[int], list[int]]] = {}
        # Per lane, its owner's units and compute tasks.
        of_lane = [owned.setdefault(owner, ([], [])) for owner, _ in self.lanes]
        for q in self.queues:
            comm = []
            for side, lane, counter in zip(q.sides, q.lanes, q.counters):
                units, tasks = of_lane[lane]
                units += q.units  # twice for a pair whose sides are one owner's
                if counter >= 0:  # a compute side
                    compute_units += q.units
                    compute_tasks += side
                    tasks += side
                else:
                    comm.append(side)
            if len(comm) == 1:
                lone_units += q.units
                lone_tasks += comm[0]
            elif comm:
                pair_units += q.units
                sides += comm[0]
                twins += comm[1]
        owners = [(owner, units, tasks) for owner, (units, tasks) in owned.items()]
        return (compute_units, compute_tasks, lone_units + pair_units, lone_tasks,
                sides, twins, owners)

    def _heads(self, durations: list[int]) -> tuple[list[int], int]:
        """The forward pass when tasks take durations (ns, as run's): each
        template unit's head and the longest dependency chain.

        A unit's head is the longest dependency chain ending at its start, the
        latest end among its dependencies; the list also holds a serial
        link's unit, one copy on. The chain ignores lanes, so it is a lower
        bound on run's makespan. A send/recv pair is one unit that starts
        after the union of its two sides' dependencies, as run starts it; so
        when the twins' deps differ the chain can exceed a task-by-task
        longest path. The pass walks the template, in a topological order
        built by the first call and kept: the copies share no dependency
        unless the link chains each behind the one before, and a serial
        template is one chain from its first unit to its last task, so the
        chain is the template's, times copies when they are linked.
        Retimer.chain_ns reads the chain, and head_tail_ns the heads of the
        same pass. Raises CycleDetected when some unit lies on a cycle.
        """
        records = self.records
        order = self._topological_order
        if len(order) < len(records):
            raise CycleDetected("dependency graph contains a cycle")
        ready = [0] * (2 * len(records))
        longest = 0
        for i in order:
            at = ready[i]
            for k, _, _, targets in records[i]:
                end = at + durations[k]
                if end > longest:
                    longest = end
                for j, _, _ in targets:
                    if end > ready[j]:
                        ready[j] = end
        return ready, longest if self.link is None else longest * self.walk.copies

    def head_tail_ns(self, durations: list[int], forward: tuple[list[int], int]) -> int:
        """A lower bound on run's makespan that sees a unit's copies queue on its lanes.

        forward is _heads(durations), the forward pass whose chain
        Retimer.chain_ns reads. For template unit u, head(u) is the longest
        chain ending at its start (forward's heads), tail(u) the longest
        chain from its start to the end, u's longest side included (one
        reverse pass), and side(u) its longest task. The bound is the largest
        head(u) + (copies - 1) * side(u) + tail(u). Each copy of u starts
        after head(u); the copies occupy the same lanes, each at least
        side(u) on its longest task's lane, and cannot overlap there; so the
        last of them starts (copies - 1) * side(u) later at the earliest,
        and it still has tail(u) to run. At one copy it equals the chain.
        A linked (serial) plan returns the chain, which already chains every
        copy.
        """
        heads, chain = forward
        if self.link is not None:
            return chain
        copies = self.walk.copies
        records = self.records
        tails = [0] * len(records)
        bound = 0
        for i in reversed(self._topological_order):
            side = tail = 0
            for k, _, _, targets in records[i]:
                duration = end = durations[k]
                if duration > side:
                    side = duration
                for j, _, _ in targets:
                    if duration + tails[j] > end:
                        end = duration + tails[j]
                if end > tail:
                    tail = end
            tails[i] = tail
            at = heads[i] + (copies - 1) * side + tail
            if at > bound:
                bound = at
        return bound


class Retimer:
    """Schedules the graphs of one walk on one kept SchedulePlan.

    It keeps one plan, which keeps its walk (walk, None before the first
    plan), and the walk's distinct duration keys. A point of that walk's
    topology reaches a run only through ns(table), its table's durations
    over those keys, so runs are memoized on ns: a point whose table gives
    every key the durations of an earlier point's is a memo hit. simulate
    remembers its last two runs; makespan_ns remembers every makespan.
    simulate(graph) plans graph.walk unless it is the kept walk, which fixes
    its tasks, keys and credits (build_task_graph(..., walk=retimer.walk)
    and dataclasses.replace give such a graph for a point of the kept
    topology). A graph of another walk replaces the kept plan, so the
    Retimer keeps at most one plan alive; a trace it returned keeps its own.
    The metrics read the point's table, total_flops and cluster, so simulate
    computes them every call.
    makespan_ns, chain_ns, head_tail_ns and lane_bound_ns time or bound
    the kept walk under ns alone, for the allocator and the bound checks;
    they keep no starts.

    counts gathers "plans" (plans built), "calls" (runs asked for) and
    "retimed" (plan runs; the other calls hit the memo).
    """

    def __init__(self, walk: Walk | None = None, counts: Counter | None = None):
        self.counts = Counter() if counts is None else counts
        self.plan: SchedulePlan | None = None
        if walk is not None:
            self._keep(walk)

    @property
    def walk(self) -> Walk | None:
        """The kept plan's walk; None before the first plan."""
        return None if self.plan is None else self.plan.walk

    def _keep(self, walk: Walk) -> None:
        self.plan = None  # the kept plan goes before the next is built
        self.plan = SchedulePlan(walk)
        column: dict[tuple, int] = {}
        # Each task's distinct key, numbered in order of first use, over the
        # template: every copy repeats its keys.
        self.columns = [column.setdefault(key, len(column)) for key in walk.template.keys]
        self.keys = tuple(column)
        self.runs: dict[tuple[int, ...], tuple[list[int | None], int]] = {}  # simulate's last two
        self.makespans: dict[tuple[int, ...], int] = {}
        self.forwards: dict[tuple[int, ...], tuple[list[int], int]] = {}  # SchedulePlan._heads
        self.head_tails: dict[tuple[int, ...], int] = {}
        self._lane_rows: list[list[int]] | None = None  # per lane, its tasks of each key
        self.counts["plans"] += 1

    def ns(self, table: Table) -> tuple[int, ...]:
        """The durations (ns) that table gives the kept walk's distinct keys."""
        return tuple(durations_ns(self.keys, table))

    def durations(self, ns: tuple[int, ...]) -> list[int]:
        """Each template task's duration (ns, in tasks order) when its distinct key takes ns.

        Every copy of a task lasts as long: task k of the walk takes entry k % size.
        """
        return list(map(ns.__getitem__, self.columns))

    def makespan_ns(self, ns: tuple[int, ...]) -> int:
        """The makespan of the plan's run under ns: one plan run per distinct ns."""
        self.counts["calls"] += 1
        if ns not in self.makespans:
            self.makespans[ns] = self.plan.run(self.durations(ns))[1]
            self.counts["retimed"] += 1
        return self.makespans[ns]

    def _forward(self, ns: tuple[int, ...]) -> tuple[list[int], int]:
        """The plan's forward pass under ns (SchedulePlan._heads), memoized on ns.

        chain_ns and head_tail_ns both read it, so they walk the template
        once per distinct ns between them.
        """
        if ns not in self.forwards:
            self.forwards[ns] = self.plan._heads(self.durations(ns))
        return self.forwards[ns]

    def chain_ns(self, ns: tuple[int, ...]) -> int:
        """The longest dependency chain under ns (SchedulePlan._heads), memoized on ns."""
        return self._forward(ns)[1]

    def head_tail_ns(self, ns: tuple[int, ...]) -> int:
        """The head-tail bound under ns (SchedulePlan.head_tail_ns), memoized on ns."""
        if ns not in self.head_tails:
            self.head_tails[ns] = self.plan.head_tail_ns(self.durations(ns), self._forward(ns))
        return self.head_tails[ns]

    def lane_bound_ns(self, ns: tuple[int, ...]) -> int:
        """The largest summed duration of one (owner, lane) under ns: a lower bound.

        The first call counts each lane's tasks per distinct key (task_lane,
        columns) over the template, each task once per copy.
        """
        if self._lane_rows is None:
            copies = self.plan.walk.copies
            self._lane_rows = [[0] * len(self.keys) for _ in self.plan.lanes]
            for lane, column in zip(self.plan.task_lane, self.columns):
                self._lane_rows[lane][column] += copies
        return max((sum(map(operator.mul, ns, row)) for row in self._lane_rows), default=0)

    def simulate(self, graph: TaskGraph) -> tuple[ScheduleTrace, SimResult]:
        """Schedule graph under its table and aggregate the run metrics.

        The trace builds its events only when they are read. Raises
        CycleDetected when the ready set empties with tasks unplaced.
        """
        begin = time.perf_counter()
        built = graph.walk is not self.walk
        if built:
            self._keep(graph.walk)
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
        return ScheduleTrace._of_run(self.plan, starts, durations, makespan), result


def simulate(graph: TaskGraph) -> tuple[ScheduleTrace, SimResult]:
    """Schedule the graph under its table and aggregate the run metrics: a new plan's run.

    The trace builds its events only when they are read. Raises
    CycleDetected when the ready set empties with tasks unplaced.
    """
    return Retimer().simulate(graph)


def _timeline_order(plan: SchedulePlan, starts: list[int]) -> tuple[list[int], list[int]]:
    """The task indices of plan's run ordered by (start, owner, lane, id), and their starts.

    starts are the run's unit starts. Task m * size + k is copy m of
    template task k, whose id is the template's plus m * size
    (taskgraph.Walk).
    """
    # A task's rank under (owner, lane, id) is its lane's rank times n plus
    # its id's rank, m * size plus its template id's rank; so that order is
    # the order of the ints start * width + rank, which sort without a tuple
    # per task and decode by % and //.
    lanes, task_lane, unit_tasks, walk = plan.lanes, plan.task_lane, plan.unit_tasks, plan.walk
    ids, copies = list(walk.template.tasks), walk.copies  # the template's ids, in task order
    size, units = len(ids), len(unit_tasks)
    n = copies * size
    by_lane = sorted(range(len(lanes)), key=lanes.__getitem__)
    # Each lane's rank (the inverse of by_lane) times n.
    lane_base = [r * n for r in sorted(range(len(lanes)), key=by_lane.__getitem__)]
    by_id = sorted(range(size), key=ids.__getitem__)
    rank = [0] * size  # of each template task in copy 0
    for r, k in enumerate(by_id):
        rank[k] = lane_base[task_lane[k]] + r
    width = len(lanes) * n
    keys = sorted([begin * width + m * size + rank[k] for m in range(copies)
                   for begin, members in zip(starts[m * units:(m + 1) * units], unit_tasks)
                   for k in members])
    # A key's id rank, m * size + r, is task m * size + by_id[r].
    ranks = list(map(n.__rmod__, keys))
    moved = [k - r for r, k in enumerate(by_id)]
    if any(moved):  # a built walk's ids are its task indices, so only a hand-built one moves
        ranks = list(map(operator.add, ranks, map(moved.__getitem__, map(size.__rmod__, ranks))))
    return ranks, list(map(width.__rfloordiv__, keys))


def _metrics(graph: TaskGraph, plan: SchedulePlan, starts: list[int],
             durations: list[int], makespan: int) -> SimResult:
    """The run metrics of plan's run: unit starts and makespan under durations.

    They read the plan's metric columns (SchedulePlan._metric_columns),
    which are the template's: each copy's compute and communication spans
    come from its row of unit starts and the columns' durations, which
    every copy repeats, a send/recv pair being one span as long as its
    longer side. An owner's first activity is the least start of its
    units over the copies, and its busy time the copies times its compute
    tasks' summed durations. exposed_comm unites the spans and adds the
    table's exposure inside task durations: walk.copies times the template
    keys' sum.
    """
    iteration = seconds(makespan)
    if not plan.unit_tasks:
        return SimResult(0.0, 0.0, 0.0, 0.0, 0.0, {})

    units, walk = len(plan.unit_tasks), plan.walk
    compute_units, compute_tasks, comm_units, lone_tasks, sides, twins, owners = (
        plan._metric_columns)
    take = durations.__getitem__
    compute_ns = list(map(take, compute_tasks))
    comm_ns = list(map(take, lone_tasks))
    comm_ns += map(max, map(take, sides), map(take, twins))
    # Each copy's unit starts: copy m's template unit u starts at row m's entry u.
    rows = [starts[i:i + units] for i in range(0, len(starts), units)]
    comm_spans: list[tuple[int, int]] = []
    compute_spans: list[tuple[int, int]] = []
    for row in rows:
        begins = list(map(row.__getitem__, compute_units))
        compute_spans += zip(begins, map(operator.add, begins, compute_ns))
        begins = list(map(row.__getitem__, comm_units))
        comm_spans += zip(begins, map(operator.add, begins, comm_ns))
    first = list(map(min, zip(*rows)))  # each template unit's least start over the copies
    first_activity = {owner: min(map(first.__getitem__, of)) for owner, of, _ in owners}
    busy = {owner: walk.copies * sum(map(take, tasks)) for owner, _, tasks in owners}
    # Exposure inside task durations, each copy repeating the template's keys;
    # no afpipe or naive table has any, so a table of zeros skips the sum.
    embedded = {key: exposed_ns for key, (_, exposed_ns) in graph.table.items()}
    embedded_ns = (walk.copies * sum(map(embedded.__getitem__, walk.template.keys))
                   if any(embedded.values()) else 0)

    # Warmup bubble: the longest any group waits before its first activity.
    bubble_warmup = max(first_activity.values()) / 1e9

    compute_owners = [o for o in first_activity if busy[o] > 0]
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
        # Looked up as the module global on each call, because
        # bench/tracing.py times exposed communication by patching it.
        exposed_comm=exposed_comm(comm_spans, compute_spans, embedded_ns),
        mfu=mfu,
        per_group_busy={o: busy[o] / 1e9 for o in sorted(first_activity)},
    )


def _merge(intervals: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The union of intervals as disjoint [start, end] pairs, in order.

    Sorted by start alone, which the union needs and ints compare fast, so
    tuple and list intervals mix.
    """
    merged: list[list[int]] = []
    last = None
    for s, e in sorted(intervals, key=operator.itemgetter(0)):
        if last is not None and s <= last[1]:
            if e > last[1]:
                last[1] = e
        else:
            last = [s, e]
            merged.append(last)
    return merged


def exposed_comm(comm_spans: Iterable[tuple[int, int]],
                 compute_spans: Iterable[tuple[int, int]], embedded_ns: int) -> float:
    """Exposed communication (s): how long some comm span runs while no
    compute span does, |comm ∪ compute| - |compute|, plus embedded_ns, the
    exposure inside task durations.

    The one definition of the reported SimResult.exposed_comm. Spans are
    (start, end) in ns, each iterable read once; a zero-length span adds
    nothing to either union, so none is filtered out.
    """
    compute = _merge(compute_spans)
    covered = _merge(chain(comm_spans, compute))
    exposed = sum(e - s for s, e in covered) - sum(e - s for s, e in compute)
    return exposed / 1e9 + seconds(embedded_ns)


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

    A new Retimer's chain_ns under the graph's table: a send/recv pair counts
    the union of its two sides' dependencies.
    """
    retimer = Retimer(graph.walk)
    return retimer.chain_ns(retimer.ns(graph.table))


def resource_bound_ns(graph: TaskGraph) -> int:
    """Max over (owner, lane) of summed durations (a second lower bound).

    A new Retimer's lane_bound_ns under the graph's table. It builds a plan,
    so a malformed graph raises the plan's errors.
    """
    retimer = Retimer(graph.walk)
    return retimer.lane_bound_ns(retimer.ns(graph.table))


def check_schedule(graph: TaskGraph, trace: ScheduleTrace) -> list[str]:
    """The scheduler invariants that trace breaks on graph; empty when it keeps them all.

    Every task runs exactly once, for its duration, starting at 0 or later
    and no earlier than each dependency ends; no two tasks overlap on one
    (owner, lane); send/recv twins start and end together; iteration_ns is
    the last end and is at least each lower bound: the dependency chain
    (critical_path_ns), the lane bound (resource_bound_ns) and the head-tail
    bound (SchedulePlan.head_tail_ns).

    It reads the trace's timeline() and so builds no TraceEvent; the
    dependencies, twins and durations it checks against are graph's.
    """
    retimer = Retimer(graph.walk)  # one plan for the bounds and the durations
    ns = retimer.ns(graph.table)
    bound = max(retimer.chain_ns(ns), retimer.lane_bound_ns(ns), retimer.head_tail_ns(ns))
    duration = dict(zip(graph.tasks, retimer.durations(ns) * retimer.walk.copies))
    tasks, order, starts, durations = trace.timeline()
    size = len(tasks)
    problems = []
    span: dict[int, tuple[int, int]] = {}
    by_lane: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    ends = []
    for k, start in zip(order, starts):
        # This event is copy k // size of template task k % size (ScheduleTrace.timeline).
        task = tasks[k % size]
        tid, end = task.id + k // size * size, start + durations[k % size]
        if tid in span:
            problems.append(f"task {tid} is scheduled twice")
        elif tid not in graph.tasks:
            problems.append(f"task {tid} is not in the graph")
        span[tid] = (start, end)
        by_lane.setdefault((task.owner, task.lane), []).append((start, end, tid))
        ends.append(end)

    for tid, task in sorted(graph.tasks.items()):
        if tid not in span:
            problems.append(f"task {tid} is missing from the trace")
            continue
        start, end = span[tid]
        if start < 0:
            problems.append(f"task {tid} starts at {start} ns, before 0")
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

    last_end = max(ends, default=0)
    if trace.iteration_ns != last_end:
        problems.append(f"iteration_ns {trace.iteration_ns} is not the last end, {last_end}")
    if trace.iteration_ns < bound:
        problems.append(f"iteration_ns {trace.iteration_ns} is below the lower bound {bound}")
    return problems
