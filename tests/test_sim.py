import gc
import logging
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from task_critical_path import critical_path_tasks
from task_lane_bound import lane_bound_tasks
from task_timeline import timeline_of, timeline_tasks
from hand_built import hand_built
from test_scheduler_reference import _assert_same_schedule, _random_graph, _random_tables
from timed_graph import UNIFORM, timed_graph

from afpipe import sim
from afpipe.allocator import (
    AllocatorParams, allocate, brute_force_oracle, canonical_allocation, default_allocation,
)
from afpipe.config import (
    ClusterConfig, Experiment, ModelConfig, ScheduleKind, Workload, load_experiment,
)
from afpipe.costs import staged_layer_time
from afpipe.report import run_schedule
from afpipe.sim import (
    CycleDetected,
    NegativeDuration,
    Retimer,
    SchedulePlan,
    ScheduleTrace,
    check_schedule,
    critical_path_ns,
    durations_ns,
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
    TaskKind,
    Walk,
    build_task_graph,
)
from afpipe.trace_io import export_trace_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def _build(kind, layers, depth, stages, microbatches=4):
    return timed_graph(_experiment(kind, layers, depth, stages, microbatches))


def test_single_task():
    trace, result = simulate(hand_built([_compute(0, "A0", 5_000)]))
    assert result.iteration_time == 5e-6
    assert result.bubble_fraction == 0.0
    assert trace.events[0].start_ns == 0


def test_two_independent_tasks_serialize_on_one_engine():
    g = hand_built([_compute(0, "A0", 3_000), _compute(1, "A0", 4_000)])
    trace, result = simulate(g)
    assert result.iteration_time == 7e-6
    spans = sorted((e.start_ns, e.end_ns) for e in trace.events)
    assert spans == [(0, 3_000), (3_000, 7_000)]


def test_forward_and_backward_share_the_engine():
    g = hand_built([
        _compute(0, "A0", 2_000),
        _compute(1, "A0", 2_000, kind=TaskKind.BWD_COMPUTE),
    ])
    _, result = simulate(g)
    assert result.iteration_time == 4e-6


def test_empty_graph():
    trace, result = simulate(hand_built([]))
    assert trace.events == ()
    assert result.iteration_time == 0.0


def test_negative_duration_rejected():
    with pytest.raises(NegativeDuration):
        simulate(hand_built([_compute(0, "A0", -1)]))


def test_fewer_keys_than_tasks_rejected():
    g = hand_built([_compute(0, "A0", 1), _compute(1, "A0", 1)])
    g = replace(g, walk=Walk(g.tasks, g.keys[:1], g.credits))
    with pytest.raises(GraphConstructionError, match="1 duration keys for 2 tasks"):
        simulate(g)


def test_key_missing_from_table_rejected():
    g = hand_built([_compute(0, "A0", 1), _compute(1, "A0", 1)])
    del g.table[1]
    with pytest.raises(GraphConstructionError, match="duration key 1 is not in the table"):
        simulate(g)


def test_cycle_rejected():
    a = _compute(0, "A0", 1, deps=(1,))
    b = _compute(1, "A0", 1, deps=(0,))
    with pytest.raises(CycleDetected):
        simulate(hand_built([a, b]))


def test_unknown_dependency_rejected_by_simulate():
    with pytest.raises(CycleDetected, match="unknown task 7"):
        simulate(hand_built([_compute(0, "A0", 1, deps=(7,))]))


def test_unknown_dependency_rejected_by_critical_path():
    with pytest.raises(CycleDetected, match="unknown task 7"):
        critical_path_ns(hand_built([_compute(0, "A0", 1), _compute(1, "A0", 1, deps=(0, 7))]))


def test_two_task_cycle_rejected_by_critical_path():
    g = hand_built([_compute(0, "A0", 1, deps=(1,)), _compute(1, "A0", 1, deps=(0,))])
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
    trace, _ = simulate(hand_built([send, recv]))
    spans = {(e.task.owner, e.task.lane): (e.start_ns, e.end_ns) for e in trace.events}
    assert spans[("A0", SEND_LANE)] == spans[("F0", RECV_LANE)] == (0, 2_000)


def test_exposed_comm_of_lone_transfer_is_its_duration():
    send, recv = _transfer_pair(0, "A0", "F0", 2_000)
    _, result = simulate(hand_built([send, recv]))
    assert result.exposed_comm == 2e-6


def test_exposed_comm_zero_without_comm_tasks():
    _, result = simulate(hand_built([_compute(0, "A0", 1_000)]))
    assert result.exposed_comm == 0.0


def test_exposed_comm_fully_overlapped_contributes_nothing():
    send, recv = _transfer_pair(1, "A0", "F0", 2_000)
    cover = _compute(0, "B0", 5_000)
    _, result = simulate(hand_built([cover, send, recv]))
    assert result.exposed_comm == 0.0


def test_exposed_comm_counts_partial_overlap():
    send, recv = _transfer_pair(1, "A0", "F0", 4_000)
    cover = _compute(0, "B0", 1_000)
    _, result = simulate(hand_built([cover, send, recv]))
    assert result.exposed_comm == pytest.approx(3e-6)


def test_every_simulate_counts_exposed_communication_through_sim_exposed_comm(monkeypatch):
    # One definition: each simulate's metrics call sim.exposed_comm once, a
    # memo hit too, through the module attribute that can be patched.
    calls = []
    original = sim.exposed_comm

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sim, "exposed_comm", counting)
    g = _build(ScheduleKind.MEGATRON_1F1B, layers=4, depth=2, stages=2, microbatches=3)
    _, result = simulate(g)
    assert len(calls) == 1
    assert result.exposed_comm == original(*calls[0]) > 0
    retimer = Retimer()
    retimer.simulate(g)
    _, hit = retimer.simulate(g)
    assert retimer.counts["calls"] == 2 and retimer.counts["retimed"] == 1
    assert len(calls) == 3
    assert hit == result


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


@pytest.mark.parametrize("microbatches", [1, 4, 32])
def test_plan_chain_is_at_most_the_makespan_under_random_tables(microbatches):
    rng = random.Random(11)
    for kind in ScheduleKind:
        g = _build(kind, layers=4, depth=2, stages=2, microbatches=microbatches)
        plan = SchedulePlan(g.walk)
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
    g = hand_built([_compute(0, "A0", 1_000), (send, 2_000), (recv, 2_000),
                _compute(3, "F0", 5_000), _compute(4, "A0", 1_000, deps=(1,))])
    assert critical_path_tasks(g) == 7_000
    assert critical_path_ns(g) == simulate(g)[0].iteration_ns == 8_000


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
@pytest.mark.parametrize("config", ["toy.yaml", "deepseek_moe.yaml"])
def test_lane_bound_equals_task_level_lane_sums(config, kind):
    exp = replace(load_experiment(str(CONFIGS / config)), schedule_kind=kind)
    graph = build_task_graph(exp, default_allocation(exp))
    assert resource_bound_ns(graph) == lane_bound_tasks(graph) > 0
    for retimed in _random_tables(random.Random(f"{kind.value}{config}"), graph):
        assert resource_bound_ns(retimed) == lane_bound_tasks(retimed)


def test_lane_bound_equals_task_level_lane_sums_on_random_graphs():
    # One Retimer bounds each graph under every table: the counts its first
    # lane_bound_ns call builds serve the later calls.
    rng = random.Random(13)
    for _ in range(200):
        graph = _random_graph(rng)
        retimer = Retimer(graph.walk)
        for retimed in [graph, *_random_tables(rng, graph)]:
            expected = lane_bound_tasks(retimed)
            assert retimer.lane_bound_ns(retimer.ns(retimed.table)) == expected
            assert resource_bound_ns(retimed) == expected


def _relisted(rng, graph):
    """graph's tasks in a random listing order under new, non-contiguous ids,
    about half of them (both sides of a pair alike) taking 0 ns."""
    ids = dict(zip(graph.tasks, rng.sample(range(10 * len(graph)), len(graph))))
    zero = {tid for tid in graph.tasks if rng.random() < 0.5}

    def ns(task):
        pair = task.id if task.twin is None else min(task.id, task.twin)
        return 0 if pair in zero else graph.table[task.id][0]

    return hand_built([
        (task._replace(id=ids[task.id], deps=tuple(ids[d] for d in task.deps),
                       twin=None if task.twin is None else ids[task.twin]), ns(task))
        for task in rng.sample(list(graph.tasks.values()), len(graph))
    ], credits=graph.credits)


def test_timeline_order_breaks_ties_by_id_on_random_graphs():
    rng = random.Random(14)
    ties = 0  # tasks that share their start and lane with another
    for _ in range(200):
        graph = _relisted(rng, _random_graph(rng))
        trace, expected = timeline_tasks(graph)
        assert timeline_of(graph, trace) == expected
        ties += len(expected) - len({event[:3] for event in expected})
    assert ties > 200


def test_only_the_lane_bound_counts_tasks_per_lane():
    g = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=3)
    retimer = Retimer()
    retimer.simulate(g)
    ns = retimer.ns(g.table)
    retimer.makespan_ns(ns)
    retimer.chain_ns(ns)
    assert retimer._lane_rows is None  # simulate, sweep and compare never pay for it
    assert retimer.lane_bound_ns(ns) == resource_bound_ns(g)


def test_a_new_topology_recounts_the_lanes():
    retimer = Retimer()
    for kind in (ScheduleKind.AFPIPE, ScheduleKind.NAIVE_SEQUENTIAL, ScheduleKind.AFPIPE):
        g = _build(kind, layers=4, depth=2, stages=2, microbatches=3)
        retimer.simulate(g)  # keeps g's plan in place of the last one
        assert retimer.lane_bound_ns(retimer.ns(g.table)) == lane_bound_tasks(g), kind


def test_check_schedule_builds_one_plan(monkeypatch):
    g = _build(ScheduleKind.AFPIPE, layers=4, depth=2, stages=2, microbatches=3)
    trace, _ = simulate(g)
    plans = []

    class CountedPlan(SchedulePlan):
        def __init__(self, walk):
            plans.append(walk)
            super().__init__(walk)

    monkeypatch.setattr("afpipe.sim.SchedulePlan", CountedPlan)
    assert check_schedule(g, trace) == []
    assert plans == [g.walk]


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
    g = hand_built([_compute(0, "A0", 1_000), send, recv, _compute(3, "F0", 1_000, deps=(2,)),
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
    (lambda t: ScheduleTrace(t.events + (t.events[-1]._replace(task=t.events[-1].task._replace(
        id=9)),), t.iteration_ns), "task 9 is not in the graph"),
    (lambda t: _moved(t, 3, -500), "before dependency 2 ends"),
    (lambda t: _moved(t, 4, -1_000), "overlap on A0 compute"),
    (lambda t: _moved(t, 2, 100), "twins 1 and 2 do not start and end together"),
    (lambda t: _moved(t, 3, 0, stretch=1), "runs 1001 ns, not its 1000 ns"),
    (lambda t: ScheduleTrace(t.events, t.iteration_ns - 1), "is below the lower bound"),
    (lambda t: ScheduleTrace(t.events, t.iteration_ns + 1), "is not the last end"),
], ids=["missing", "twice", "unknown", "dependency", "overlap", "twins", "duration", "bound", "last-end"])
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


def test_a_commit_on_a_shared_lane_outdates_a_key_that_the_pop_re_keys(caplog):
    # Pairs 0/1 (A0 -> F0) and 2/3 (B0 -> F0) share F0's receive lane, the
    # second lane of each, and both are keyed at 0. Pair 0/1 goes first (its
    # micro-batch is lower) and holds that lane until 10, so pair 2/3's entry
    # at 0 is live but outdated: its pop re-keys it to 10, one stale pop.
    g = hand_built([*_transfer_pair(0, "A0", "F0", 10), *_transfer_pair(2, "B0", "F0", 5, mb=1)])
    counts = _scheduler_counts(caplog, g)
    assert counts == {"units": 2, "commits": 2, "heap pushes": 3, "stale pops": 1,
                      "peak heap": 2}
    assert counts["heap pushes"] == counts["commits"] + counts["stale pops"]
    spans = {ev.task.id: (ev.start_ns, ev.end_ns) for ev in simulate(g)[0].events}
    assert spans == {0: (0, 10), 1: (0, 10), 2: (10, 15), 3: (10, 15)}
    _assert_same_schedule(g)


def test_a_unit_readied_into_an_empty_queue_is_keyed_pending_or_parked():
    # B0's forward queue is empty both times a unit is readied into it. Task
    # 1 is ready at 5 with B0's engine free since 0: pending, it starts at 5.
    # Task 3 is ready at 6 with the engine busy with task 1 until 25: parked,
    # it starts at 25.
    g = hand_built([
        _compute(0, "A0", 5),
        _compute(1, "B0", 20, deps=(0,)),
        _compute(2, "A0", 1, mb=1),
        _compute(3, "B0", 3, deps=(2,), mb=1),
    ])
    spans = {ev.task.id: (ev.start_ns, ev.end_ns) for ev in simulate(g)[0].events}
    assert spans == {0: (0, 5), 1: (5, 25), 2: (5, 6), 3: (25, 28)}
    _assert_same_schedule(g)


def test_a_preference_flip_re_keys_the_owners_queues_at_once():
    # G0's task 0 readies G1's backward 1 at 10, ranked 1 while G1 prefers
    # forward. G1's forward 2 then fills G1's credit, so G1 prefers backward:
    # at 10, backward 1 outranks forward 3 despite its higher micro-batch.
    # Its lane is free by 10, so only the flip itself can re-key it.
    fwd, bwd = TaskKind.FWD_COMPUTE, TaskKind.BWD_COMPUTE
    g = hand_built([
        _compute(0, "G0", 10),
        _compute(1, "G1", 5, deps=(0,), kind=bwd, mb=5),
        _compute(2, "G1", 10, kind=fwd),
        _compute(3, "G1", 5, kind=fwd, mb=1),
    ])
    spans = {ev.task.id: (ev.start_ns, ev.end_ns) for ev in simulate(g)[0].events}
    assert spans == {0: (0, 10), 1: (10, 15), 2: (0, 10), 3: (15, 20)}
    _assert_same_schedule(g)


def test_pair_sides_free_their_lanes_apart_and_a_pair_waits_on_its_second_lane():
    # Pair 0/1 (G2 -> G1) sends for 3 ns and receives for 10, so task 4,
    # after the send side, starts at 3 and task 5, after the receive side, at
    # 10. Pair 2/3 (G0 -> G1) is ready at 0 with G0's send lane free, but
    # waits for G1's receive lane, its second, until 10. Pair 8/9, readied at
    # 5 by task 4, waits on that lane again, until pair 2/3 frees it at 16.
    g = hand_built([
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
        simulate(hand_built(tasks))


def _simulate(exp):
    simulate(build_task_graph(exp, default_allocation(exp)))


def _check(exp):
    graph = build_task_graph(exp, default_allocation(exp))
    assert check_schedule(graph, simulate(graph)[0]) == []


def _retime_every_kind(exp):
    retimer = Retimer()
    for kind in ScheduleKind:
        run_schedule(exp, kind, default_allocation(exp), retimer)


@pytest.mark.parametrize("operation", [
    _simulate,
    _check,
    lambda exp: allocate(exp, AllocatorParams(trials=3, radius=1, rng_seed=0)),
    brute_force_oracle,
    _retime_every_kind,
], ids=["simulate", "check_schedule", "allocate", "brute_force_oracle", "retimer"])
def test_a_dropped_plan_leaves_no_cyclic_garbage(operation):
    # No queue refers to another, so every plan an operation builds is freed
    # by reference counting when the operation drops it.
    exp = load_experiment(str(CONFIGS / "toy.yaml"))
    operation(exp)  # first-call imports and caches are not the operation's garbage
    gc.disable()
    try:
        gc.collect()
        operation(exp)
        assert gc.collect() == 0
    finally:
        gc.enable()
