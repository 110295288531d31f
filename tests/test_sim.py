import logging
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from task_critical_path import critical_path_tasks
from test_scheduler_reference import _assert_same_schedule, _random_graph

from afpipe.allocator import canonical_allocation, default_allocation
from afpipe.config import (
    ClusterConfig, Experiment, ModelConfig, ScheduleKind, Workload, load_experiment,
)
from afpipe.costs import StageTimes, staged_layer_time
from afpipe.sim import (
    CycleDetected,
    NegativeDuration,
    SchedulePlan,
    ScheduleTrace,
    check_schedule,
    critical_path_ns,
    durations_ns,
    exposed_comm,
    resource_bound_ns,
    simulate,
    warmup_bubble_analytic,
)
from afpipe.taskgraph import (
    COMPUTE_LANE,
    GraphConstructionError,
    RECV_LANE,
    SEND_LANE,
    Task,
    TaskGraph,
    TaskKind,
    build_task_graph,
)
from afpipe.trace_io import export_trace_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UNIFORM = StageTimes(t_attn=1e-3, t_ffn=1e-3, t_a2a=1e-3, t_m2n=1e-3, t_p2p=0.0)


def _graph(pairs):
    """A graph of (task, duration_ns) pairs; each task's table key is its id."""
    g = TaskGraph(schedule_kind=ScheduleKind.AFPIPE)
    g.tasks = {t.id: t for t, _ in pairs}
    g.keys = [t.id for t, _ in pairs]
    g.table = {t.id: (ns, 0) for t, ns in pairs}
    g.owners = tuple(sorted({t.owner for t in g.tasks.values()}))
    g.credits = {o: 1 for o in g.owners}
    return g


def _compute(tid, owner, dur_ns, deps=(), kind=TaskKind.FWD_COMPUTE, mb=0):
    return Task(id=tid, kind=kind, owner=owner, lane=COMPUTE_LANE,
                deps=deps, microbatch=mb), dur_ns


def _experiment(kind, layers, depth, stages, microbatches=4, gpus=2, nics=2, ep=2):
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


def _build(kind, layers, depth, stages, microbatches=4, times=UNIFORM):
    exp = _experiment(kind, layers, depth, stages, microbatches)
    alloc = None
    if kind is ScheduleKind.AFPIPE:
        alloc = canonical_allocation(exp.cluster, 1, 1)
    return build_task_graph(exp, alloc, times=times)


def test_single_task():
    trace, result = simulate(_graph([_compute(0, "A0", 5_000)]))
    assert result.iteration_time == 5e-6
    assert result.bubble_fraction == 0.0
    assert trace.events[0].start_ns == 0


def test_two_independent_tasks_serialize_on_one_engine():
    g = _graph([_compute(0, "A0", 3_000), _compute(1, "A0", 4_000)])
    trace, result = simulate(g)
    assert result.iteration_time == 7e-6
    spans = sorted((e.start_ns, e.end_ns) for e in trace.events)
    assert spans == [(0, 3_000), (3_000, 7_000)]


def test_forward_and_backward_share_the_engine():
    g = _graph([
        _compute(0, "A0", 2_000),
        _compute(1, "A0", 2_000, kind=TaskKind.BWD_COMPUTE),
    ])
    _, result = simulate(g)
    assert result.iteration_time == 4e-6


def test_empty_graph():
    trace, result = simulate(_graph([]))
    assert trace.events == ()
    assert result.iteration_time == 0.0


def test_negative_duration_rejected():
    with pytest.raises(NegativeDuration):
        simulate(_graph([_compute(0, "A0", -1)]))


def test_fewer_keys_than_tasks_rejected():
    g = _graph([_compute(0, "A0", 1), _compute(1, "A0", 1)])
    g.keys = g.keys[:1]
    with pytest.raises(GraphConstructionError, match="1 duration keys for 2 tasks"):
        simulate(g)


def test_key_missing_from_table_rejected():
    g = _graph([_compute(0, "A0", 1), _compute(1, "A0", 1)])
    del g.table[1]
    with pytest.raises(GraphConstructionError, match="duration key 1 is not in the table"):
        simulate(g)


def test_cycle_rejected():
    a = _compute(0, "A0", 1, deps=(1,))
    b = _compute(1, "A0", 1, deps=(0,))
    with pytest.raises(CycleDetected):
        simulate(_graph([a, b]))


def test_unknown_dependency_rejected_by_simulate():
    with pytest.raises(CycleDetected, match="unknown task 7"):
        simulate(_graph([_compute(0, "A0", 1, deps=(7,))]))


def test_unknown_dependency_rejected_by_critical_path():
    with pytest.raises(CycleDetected, match="unknown task 7"):
        critical_path_ns(_graph([_compute(0, "A0", 1), _compute(1, "A0", 1, deps=(0, 7))]))


def test_two_task_cycle_rejected_by_critical_path():
    g = _graph([_compute(0, "A0", 1, deps=(1,)), _compute(1, "A0", 1, deps=(0,))])
    with pytest.raises(CycleDetected, match="cycle"):
        critical_path_ns(g)


def _transfer_pair(base_id, src, dst, dur_ns, deps=(), recv_ns=None, mb=0):
    """A send/recv pair; the receive side takes recv_ns when given, else dur_ns."""
    send = Task(id=base_id, kind=TaskKind.M2N_SEND, owner=src,
                lane=SEND_LANE, deps=deps, microbatch=mb, twin=base_id + 1)
    recv = Task(id=base_id + 1, kind=TaskKind.M2N_RECV, owner=dst,
                lane=RECV_LANE, deps=deps, microbatch=mb, twin=base_id)
    return (send, dur_ns), (recv, dur_ns if recv_ns is None else recv_ns)


def test_transfer_pair_occupies_both_lanes_simultaneously():
    send, recv = _transfer_pair(0, "A0", "F0", 2_000)
    trace, _ = simulate(_graph([send, recv]))
    spans = {(e.task.owner, e.task.lane): (e.start_ns, e.end_ns) for e in trace.events}
    assert spans[("A0", SEND_LANE)] == spans[("F0", RECV_LANE)] == (0, 2_000)


def test_exposed_comm_of_lone_transfer_is_its_duration():
    send, recv = _transfer_pair(0, "A0", "F0", 2_000)
    trace, result = simulate(_graph([send, recv]))
    assert exposed_comm(trace) == 2e-6
    assert result.exposed_comm == 2e-6


def test_exposed_comm_zero_without_comm_tasks():
    trace, result = simulate(_graph([_compute(0, "A0", 1_000)]))
    assert exposed_comm(trace) == 0.0
    assert result.exposed_comm == 0.0


def test_exposed_comm_fully_overlapped_contributes_nothing():
    send, recv = _transfer_pair(1, "A0", "F0", 2_000)
    cover = _compute(0, "B0", 5_000)
    trace, _ = simulate(_graph([cover, send, recv]))
    assert exposed_comm(trace) == 0.0


def test_exposed_comm_counts_partial_overlap():
    send, recv = _transfer_pair(1, "A0", "F0", 4_000)
    cover = _compute(0, "B0", 1_000)
    trace, _ = simulate(_graph([cover, send, recv]))
    assert exposed_comm(trace) == pytest.approx(3e-6)


def test_dependency_order_and_exactly_once():
    g = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=3)
    trace, _ = simulate(g)
    seen = [e.task.id for e in trace.events]
    assert sorted(seen) == sorted(g.tasks)
    span = {e.task.id: (e.start_ns, e.end_ns) for e in trace.events}
    for task in g.tasks.values():
        for dep in task.deps:
            assert span[task.id][0] >= span[dep][1]


def test_no_overlap_per_owner_lane():
    g = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=4)
    trace, _ = simulate(g)
    assert check_schedule(g, trace) == []


def test_iteration_bounded_below_by_critical_path_and_busy_time():
    for kind in (ScheduleKind.AFPIPE, ScheduleKind.MEGATRON_1F1B, ScheduleKind.NAIVE_SEQUENTIAL):
        g = _build(kind, layers=4, depth=2, stages=2, microbatches=3)
        trace, _ = simulate(g)
        assert trace.iteration_ns >= critical_path_ns(g)
        assert trace.iteration_ns >= resource_bound_ns(g)


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
@pytest.mark.parametrize("config", ["toy.yaml", "deepseek_moe.yaml"])
def test_plan_chain_equals_task_level_longest_path(config, kind):
    # On a built graph a pair's twins share their deps, so the plan's chain
    # over units is the task-by-task longest path.
    exp = replace(load_experiment(str(CONFIGS / config)), schedule_kind=kind)
    graph = build_task_graph(exp, default_allocation(exp))
    assert critical_path_ns(graph) == critical_path_tasks(graph) > 0


def test_plan_chain_is_at_most_the_makespan_under_random_tables():
    rng = random.Random(11)
    for kind in ScheduleKind:
        g = _build(kind, layers=4, depth=2, stages=2, microbatches=4)
        plan = SchedulePlan(g)
        plan.run(durations_ns(g.keys, g.table))
        assert "_topological_order" not in vars(plan)  # only chain_ns builds it
        for _ in range(10):
            table = {key: (rng.randrange(10_000), 0) for key in g.table}
            durations = durations_ns(g.keys, table)
            makespan = plan.run(durations)[1]
            chain = plan.chain_ns(durations)
            assert chain <= makespan, kind
            assert chain == critical_path_tasks(replace(g, table=table)), kind


def test_plan_chain_starts_a_pair_after_both_sides_deps():
    # The send side waits on task 0 (1 us), the receive side on task 3
    # (5 us), and task 4 on the send side. Task by task the send ends at
    # 3 us and task 4 at 4 us; the pair starts at 5 us, as the scheduler
    # starts it, so task 4 ends at 8 us.
    send = Task(id=1, kind=TaskKind.M2N_SEND, owner="A0", lane=SEND_LANE,
                deps=(0,), microbatch=0, twin=2)
    recv = Task(id=2, kind=TaskKind.M2N_RECV, owner="F0", lane=RECV_LANE,
                deps=(3,), microbatch=0, twin=1)
    g = _graph([_compute(0, "A0", 1_000), (send, 2_000), (recv, 2_000),
                _compute(3, "F0", 5_000), _compute(4, "A0", 1_000, deps=(1,))])
    assert critical_path_tasks(g) == 7_000
    assert critical_path_ns(g) == simulate(g)[0].iteration_ns == 8_000


def test_determinism_byte_identical_traces():
    a = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=5)
    b = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=5)
    trace_a, _ = simulate(a)
    trace_b, _ = simulate(b)
    assert export_trace_json(trace_a) == export_trace_json(trace_b)


def test_warmup_bubble_closed_forms():
    base = warmup_bubble_analytic(ScheduleKind.MEGATRON_1F1B, UNIFORM, 2, 1, 1)
    af = warmup_bubble_analytic(ScheduleKind.AFPIPE, UNIFORM, 2, 1, 1)
    assert base == pytest.approx(4e-3)
    assert af == pytest.approx(1e-3)
    assert af / base == 0.25


def test_warmup_bubble_single_stage_is_zero():
    assert warmup_bubble_analytic(ScheduleKind.MEGATRON_1F1B, UNIFORM, 1, 1, 1) == 0.0
    assert warmup_bubble_analytic(ScheduleKind.AFPIPE, UNIFORM, 1, 1, 1) == 0.0


def test_warmup_bubble_halves_when_interleave_doubles():
    for kind in (ScheduleKind.MEGATRON_1F1B, ScheduleKind.AFPIPE):
        one = warmup_bubble_analytic(kind, UNIFORM, 4, 1, 2)
        two = warmup_bubble_analytic(kind, UNIFORM, 4, 2, 2)
        assert two == pytest.approx(one / 2)


def test_simulated_warmup_matches_staged_closed_form():
    # Uniform durations, no inter-stage transfer cost: measured warmup is the
    # last stage's wait, which the closed form predicts exactly.
    for kind in (ScheduleKind.MEGATRON_1F1B, ScheduleKind.CHUNKED_OVERLAP):
        for pp in (2, 3, 4):
            g = _build(kind, layers=pp, depth=pp, stages=1, microbatches=6)
            _, result = simulate(g)
            analytic = warmup_bubble_analytic(kind, UNIFORM, pp, 1, 1)
            assert abs(result.bubble_warmup - analytic) / analytic < 0.01, (kind, pp)


def test_simulated_warmup_matches_disaggregated_closed_form():
    g = _build(ScheduleKind.AFPIPE, layers=1, depth=1, stages=1, microbatches=6)
    _, result = simulate(g)
    analytic = warmup_bubble_analytic(ScheduleKind.AFPIPE, UNIFORM, 2, 1, 1)
    assert abs(result.bubble_warmup - analytic) / analytic < 0.01


def test_chunked_overlap_formulas():
    # (attn, ffn, a2a) -> (latency, exposed) with and without overlap.
    assert staged_layer_time(1.0, 2.0, 3.0, overlap=True) == (7.0, 4.0)
    assert staged_layer_time(1.0, 2.0, 0.0, overlap=True) == (3.0, 0.0)
    assert staged_layer_time(1.0, 6.0, 3.0, overlap=True) == (7.0, 0.0)
    assert staged_layer_time(1.0, 2.0, 3.0, overlap=False) == (9.0, 6.0)
    assert staged_layer_time(1.0, 2.0, 0.0, overlap=False) == (3.0, 0.0)


def test_all_kinds_converge_to_compute_bound_without_communication():
    # EP=1 zeroes the all-to-all and a huge interconnect makes the exchange
    # and transfer terms negligible; with a balanced GPU split every schedule
    # ends up within 1% of the pooled compute bound once warmup amortizes.
    model = ModelConfig(layers=2, hidden=1024, experts=8, topk=2, moe_hidden=1024)
    workload = Workload(seq_len=1024, micro_batch=1, num_microbatches=512)
    cluster = ClusterConfig(total_gpus=4, gpus_per_node=2, total_nics=4,
                            gpu_peak=1e12, ib_bw=1e14)
    alloc = canonical_allocation(cluster, 2, 2)
    total_flops = 3.0 * 512 * 2 * float(2 * 8_589_934_592)  # fwd+bwd, both halves
    bound = total_flops / (1e12 * 4)
    for kind in ScheduleKind:
        exp = Experiment(model, workload, cluster, kind,
                         pipeline_depth=2, virtual_stages=1, ep_size=1)
        g = build_task_graph(exp, alloc if kind is ScheduleKind.AFPIPE else None)
        _, result = simulate(g)
        assert abs(result.iteration_time - bound) / bound < 0.01, kind


def test_disaggregated_beats_serial_on_same_costs():
    af = _build(ScheduleKind.AFPIPE, layers=2, depth=1, stages=2, microbatches=6)
    naive = _build(ScheduleKind.NAIVE_SEQUENTIAL, layers=2, depth=1, stages=2, microbatches=6)
    _, af_result = simulate(af)
    _, naive_result = simulate(naive)
    assert af_result.iteration_time <= naive_result.iteration_time


def test_bubble_fraction_non_increasing_in_microbatches():
    fractions = []
    for n in (2, 4, 8, 16):
        g = _build(ScheduleKind.AFPIPE, layers=2, depth=2, stages=1, microbatches=n)
        _, result = simulate(g)
        fractions.append(result.bubble_fraction)
    assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_uneven_layer_count_simulates_cleanly():
    # Seven layers over depth two: group sizes {4, 3}; chunks {2, 2, 2, 1}.
    for kind in (ScheduleKind.AFPIPE, ScheduleKind.MEGATRON_1F1B):
        exp = _experiment(kind, layers=7, depth=2, stages=2, microbatches=3)
        alloc = canonical_allocation(exp.cluster, 1, 1) if kind is ScheduleKind.AFPIPE else None
        g = build_task_graph(exp, alloc)
        trace, result = simulate(g)
        assert sorted(e.task.id for e in trace.events) == sorted(g.tasks)
        assert trace.iteration_ns >= critical_path_ns(g)
        assert 0.0 <= result.bubble_fraction <= 1.0


def test_gpu_count_not_divisible_by_depth():
    # Three attention GPUs over two groups: fractional per-group capacity is
    # a modeling convenience; durations stay finite and positive.
    exp = _experiment(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, gpus=5, nics=3)
    alloc = canonical_allocation(exp.cluster, 3, 2)
    g = build_task_graph(exp, alloc)
    assert all(ns > 0 for ns in durations_ns(g.keys, g.table))
    _, result = simulate(g)
    assert result.iteration_time > 0


def test_randomized_schedules_satisfy_invariants():
    rng = random.Random(7)
    for _ in range(25):
        depth = rng.choice([1, 2, 3])
        stages = rng.choice([1, 2])
        layers = depth * stages
        kind = rng.choice(list(ScheduleKind))
        g = _build(kind, layers=layers, depth=depth, stages=stages,
                   microbatches=rng.randint(1, 5))
        trace, result = simulate(g)
        assert check_schedule(g, trace) == []
        assert 0.0 <= result.bubble_fraction <= 1.0


def _pair_schedule():
    # Task 0 on A0, then the pair 1/2 from A0 to F0, then task 3 on F0; task
    # 4 shares A0's engine with task 0.
    send, recv = _transfer_pair(1, "A0", "F0", 2_000, deps=(0,))
    g = _graph([_compute(0, "A0", 1_000), send, recv, _compute(3, "F0", 1_000, deps=(2,)),
                _compute(4, "A0", 3_000)])
    trace, _ = simulate(g)
    assert check_schedule(g, trace) == []
    return g, trace


def _moved(trace, tid, shift, stretch=0):
    events = tuple(
        ev._replace(start_ns=ev.start_ns + shift, end_ns=ev.end_ns + shift + stretch)
        if ev.task.id == tid else ev
        for ev in trace.events
    )
    return ScheduleTrace(events=events, iteration_ns=max(ev.end_ns for ev in events))


@pytest.mark.parametrize("tamper,message", [
    (lambda t: ScheduleTrace(t.events[1:], t.iteration_ns), "missing from the trace"),
    (lambda t: ScheduleTrace(t.events + t.events[-1:], t.iteration_ns), "scheduled twice"),
    (lambda t: _moved(t, 3, -500), "before dependency 2 ends"),
    (lambda t: _moved(t, 4, -1_000), "overlap on A0 compute"),
    (lambda t: _moved(t, 2, 100), "twins 1 and 2 do not start and end together"),
    (lambda t: _moved(t, 3, 0, stretch=1), "runs 1001 ns, not its 1000 ns"),
    (lambda t: ScheduleTrace(t.events, t.iteration_ns - 1), "is below the lower bound"),
    (lambda t: ScheduleTrace(t.events, t.iteration_ns + 1), "is not the last end"),
], ids=["missing", "twice", "dependency", "overlap", "twins", "duration", "bound", "last-end"])
def test_check_schedule_reports_each_violation(tamper, message):
    g, trace = _pair_schedule()
    problems = check_schedule(g, tamper(trace))
    assert any(message in p for p in problems), problems


def _scheduler_counts(caplog, graph):
    with caplog.at_level(logging.DEBUG, logger="afpipe.sim"):
        simulate(graph)
    lines = [
        r.getMessage() for r in caplog.records
        if r.name == "afpipe.sim" and r.getMessage().startswith("simulate: ")
    ]
    assert len(lines) == 1
    match = re.fullmatch(
        r"simulate: (\d+) units, (\d+) commits, (\d+) heap pushes, (\d+) stale pops, "
        r"peak heap (\d+)", lines[0])
    assert match, lines[0]
    fields = ("units", "commits", "heap pushes", "stale pops", "peak heap")
    return dict(zip(fields, map(int, match.groups())))


def test_simulate_logs_scheduler_counts_at_debug(caplog):
    g = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=4)
    counts = _scheduler_counts(caplog, g)
    pairs = sum(1 for t in g.tasks.values() if t.twin is not None) // 2
    assert counts["units"] == counts["commits"] == len(g.tasks) - pairs
    assert counts["heap pushes"] == counts["commits"] + counts["stale pops"]
    assert 1 <= counts["peak heap"] <= counts["heap pushes"]


def test_simulate_logs_stage_wall_times_and_the_timeline_build_at_debug(caplog):
    g = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=4)
    with caplog.at_level(logging.DEBUG, logger="afpipe.sim"):
        trace, _ = simulate(g)
        after_simulate = [r.getMessage() for r in caplog.records if r.name == "afpipe.sim"]
        trace.events
        trace.events
    lines = [r.getMessage() for r in caplog.records if r.name == "afpipe.sim"]
    ms = r"\d+\.\d{3} ms"
    walls = [m for m in lines if m.startswith("simulate wall: ")]
    assert len(walls) == 1
    # A lone simulate builds its plan and runs it.
    assert re.fullmatch(f"simulate wall: plan {ms} \\(built\\), run {ms} \\(ran\\), metrics {ms}",
                        walls[0]), walls
    # The timeline is built, and logged, once, when the events are first read.
    timelines = [m for m in lines if m.startswith("timeline: ")]
    assert not any(m.startswith("timeline: ") for m in after_simulate)
    assert len(timelines) == 1
    assert re.fullmatch(f"timeline: {len(g)} events in {ms}", timelines[0]), timelines


def test_heap_work_per_unit_does_not_grow_with_microbatches(caplog):
    # A scan over the ready set costs more per commit as more micro-batches
    # are in flight; the heap pushes a bounded number of queue heads.
    ratios = []
    for microbatches in (4, 64):
        caplog.clear()
        g = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=microbatches)
        counts = _scheduler_counts(caplog, g)
        ratios.append(counts["heap pushes"] / counts["units"])
    assert max(ratios) <= 2.0, ratios


# The scheduler's heap work on three graphs of the bundled configs at 4
# micro-batches: (units, commits, heap pushes, stale pops, peak heap). A
# rewrite of the loop must commit the same units in the same order and do the
# same heap work, not only give the same schedule.
HEAP_WORK_PINS = {
    ("deepseek_moe.yaml", ScheduleKind.AFPIPE): (888, 888, 891, 3, 5),
    ("toy.yaml", ScheduleKind.MEGATRON_1F1B): (56, 56, 65, 9, 5),
    ("toy.yaml", ScheduleKind.NAIVE_SEQUENTIAL): (128, 128, 128, 0, 1),
}


@pytest.mark.parametrize("config,kind", list(HEAP_WORK_PINS), ids=lambda v: getattr(v, "value", v))
def test_heap_work_is_pinned(caplog, config, kind):
    base = load_experiment(str(CONFIGS / config))
    exp = replace(base, schedule_kind=kind,
                  workload=replace(base.workload, num_microbatches=4))
    counts = _scheduler_counts(caplog, build_task_graph(exp, default_allocation(exp)))
    fields = ("units", "commits", "heap pushes", "stale pops", "peak heap")
    assert tuple(map(counts.__getitem__, fields)) == HEAP_WORK_PINS[(config, kind)]


def test_pair_sides_free_their_lanes_apart_and_a_pair_waits_on_its_second_lane():
    # Pair 0/1 (G2 -> G1) sends for 3 ns and receives for 10, so task 4,
    # after the send side, starts at 3 and task 5, after the receive side, at
    # 10. Pair 2/3 (G0 -> G1) is ready at 0 with G0's send lane free, but
    # waits for G1's receive lane, its second, until 10. Pair 8/9, readied at
    # 5 by task 4, waits on that lane again, until pair 2/3 frees it at 16.
    g = _graph([
        *_transfer_pair(0, "G2", "G1", 3, recv_ns=10),
        *_transfer_pair(2, "G0", "G1", 4, recv_ns=6, mb=1),
        _compute(4, "G2", 2, deps=(0,)),
        _compute(5, "G1", 2, deps=(1,)),
        _compute(6, "G0", 2, deps=(2,)),
        _compute(7, "G1", 2, deps=(3,)),
        *_transfer_pair(8, "G2", "G1", 1, deps=(4,), recv_ns=2, mb=2),
    ])
    trace, _ = simulate(g)
    spans = {ev.task.id: (ev.start_ns, ev.end_ns) for ev in trace.events}
    assert spans == {0: (0, 3), 1: (0, 10), 2: (10, 14), 3: (10, 16), 4: (3, 5), 5: (10, 12),
                     6: (14, 16), 7: (16, 18), 8: (16, 17), 9: (16, 18)}
    assert trace.iteration_ns == 18
    _assert_same_schedule(g)


def test_random_graphs_with_independent_pair_sides_match_the_scan():
    # _random_graph gives both sides of a pair one duration; a fresh table
    # over its per-task keys gives each side its own.
    rng = random.Random(13)
    uneven = 0
    for _ in range(150):
        g = _random_graph(rng)
        g.table = {key: (rng.randint(0, 6), 0) for key in g.table}
        uneven += any(t.twin is not None and g.table[t.id] != g.table[t.twin]
                      for t in g.tasks.values())
        _assert_same_schedule(g)
    assert uneven > 100


@pytest.mark.parametrize("recv_lane,recv_twin", [
    (SEND_LANE, 0),  # two send sides
    (RECV_LANE, 5),  # a receive side that names another task
    (None, None),  # no receive side
], ids=["two-send-sides", "one-sided", "unknown-twin"])
def test_malformed_twins_rejected(recv_lane, recv_twin):
    tasks = [(Task(id=0, kind=TaskKind.M2N_SEND, owner="A0", lane=SEND_LANE,
                   deps=(), microbatch=0, twin=1), 1)]
    if recv_lane is not None:
        tasks.append((Task(id=1, kind=TaskKind.M2N_RECV, owner="F0", lane=recv_lane,
                           deps=(), microbatch=0, twin=recv_twin), 1))
    with pytest.raises(GraphConstructionError, match="not a send/recv pair"):
        simulate(_graph(tasks))
