"""Reference list scheduler and run metrics: what sim.simulate replaced.

simulate_scan re-evaluates, on every commit, the earliest start and the
priority of every ready unit and takes the minimum of (earliest start, 1F1B
rank, micro-batch, virtual index, component rank, owner, lane, task id). Its
time grows with the square of the task count, so it lives here only as the
gate that the heap scheduler in afpipe.sim must match trace for trace.

_aggregate computes a SimResult from a trace's events, as simulate did before
it read the metrics straight from the run; simulate must match it exactly.
It splits the events into communication and compute spans, one span per
event, and measures their exposed communication with its own sweep over the
span ends (exposed_ns), not through sim.exposed_comm, whose union identity
|comm ∪ compute| - |compute| it thereby checks.
"""

from __future__ import annotations

from afpipe.sim import (
    _COMPONENT_RANK,
    CycleDetected,
    ScheduleTrace,
    SimResult,
    TraceEvent,
    _check_keys,
    seconds,
)
from afpipe.taskgraph import (
    COMPUTE_LANE, RECV_LANE, GraphConstructionError, Task, TaskGraph, TaskKind,
)


def _check_task(tasks: dict[int, Task], tid: int, lane: str,
                deps: tuple[int, ...], twin_id: int | None) -> None:
    """The checks SchedulePlan makes of each task, in the same order and words."""
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


def simulate_scan(graph: TaskGraph) -> tuple[ScheduleTrace, SimResult]:
    _check_keys(graph)
    tasks = graph.tasks
    for task in tasks.values():
        _check_task(tasks, task.id, task.lane, task.deps, task.twin)
    # Read straight from the table, not through afpipe.sim.durations_ns.
    duration = {tid: graph.table[key][0] for tid, key in zip(tasks, graph.keys)}
    if not tasks:
        trace = ScheduleTrace(events=(), iteration_ns=0)
        return trace, _aggregate(graph, trace)

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
        end[tid] = at + duration[tid]
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
    iteration = seconds(trace.iteration_ns)
    if not trace.events:
        return SimResult(0.0, 0.0, 0.0, 0.0, 0.0, {})

    first_activity: dict[str, int] = {}
    busy: dict[str, int] = {}
    comm_spans: list[tuple[int, int]] = []
    compute_spans: list[tuple[int, int]] = []
    for task, start, end in trace.events:
        owner = task.owner
        cur = first_activity.get(owner)
        if cur is None or start < cur:
            first_activity[owner] = start
        if task.lane == COMPUTE_LANE:
            busy[owner] = busy.get(owner, 0) + (end - start)
        (compute_spans if task.lane == COMPUTE_LANE else comm_spans).append((start, end))
    embedded_ns = sum(graph.table[key][1] for key in graph.keys)  # inside task durations

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

    mfu = 0.0
    if graph.total_flops > 0 and iteration > 0 and graph.world_gpus > 0 and graph.gpu_peak > 0:
        mfu = graph.total_flops / (iteration * graph.world_gpus * graph.gpu_peak)
        mfu = min(max(mfu, 0.0), 1.0)

    return SimResult(
        iteration_time=iteration,
        bubble_warmup=bubble_warmup,
        bubble_fraction=fraction,
        exposed_comm=exposed_ns(comm_spans, compute_spans) / 1e9 + seconds(embedded_ns),
        mfu=mfu,
        per_group_busy={o: busy.get(o, 0) / 1e9 for o in sorted(first_activity)},
    )


def exposed_ns(comm_spans, compute_spans) -> int:
    """How long some comm span and no compute span is active (ns).

    A sweep over the span ends: each time point adds +1 for every span that
    starts there and -1 for every span that ends there, per side, and the
    gap up to the next point counts when the comm count is positive and the
    compute count zero. Each iterable is read once.
    """
    steps: dict[int, list[int]] = {}
    for side, spans in enumerate((comm_spans, compute_spans)):
        for start, end in spans:
            steps.setdefault(start, [0, 0])[side] += 1
            steps.setdefault(end, [0, 0])[side] -= 1
    exposed = comm = compute = 0
    last = None
    for t in sorted(steps):
        if comm > 0 and compute == 0:
            exposed += t - last
        comm += steps[t][0]
        compute += steps[t][1]
        last = t
    return exposed
