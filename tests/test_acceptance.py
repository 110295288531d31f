"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import random
import time

from timed_graph import UNIFORM, timed_graph

from afpipe.allocator import (
    AllocatorParams,
    allocate,
    brute_force_oracle,
    canonical_allocation,
    default_allocation,
    phase3_refine,
)
from afpipe.config import ClusterConfig, Experiment, ModelConfig, ScheduleKind, Workload
from afpipe.costs import (
    arithmetic_intensities,
    attention_flops,
    ffn_flops,
    m2n_comm_bytes,
    turning_points,
)
from afpipe.placement import ATTN, FFN, assign_layers, validate_partition
from afpipe.report import memory_report, run_schedule
from afpipe.sim import check_schedule, simulate, warmup_bubble_analytic
from afpipe.taskgraph import build_task_graph
from afpipe.trace_io import export_trace_json

DEEPSEEK = ModelConfig(layers=28, hidden=2048, experts=64, topk=4, moe_hidden=1408)
DESK_CLUSTER = ClusterConfig(total_gpus=16, gpus_per_node=8, total_nics=16,
                             gpu_peak=9.89e14, ib_bw=1e11)


def _passed(line: str) -> None:
    print(f"PASS  {line}")


def _small_experiment(kind, layers, depth, stages, microbatches=6):
    return Experiment(
        model=ModelConfig(layers=layers, hidden=64, experts=8, topk=2, moe_hidden=64),
        workload=Workload(seq_len=64, micro_batch=1, num_microbatches=microbatches),
        cluster=ClusterConfig(total_gpus=2, gpus_per_node=1, total_nics=2,
                              gpu_peak=1e12, ib_bw=1e10),
        schedule_kind=kind,
        pipeline_depth=depth,
        virtual_stages=stages,
        ep_size=2,
    )


def _build(exp):
    alloc = None
    if exp.schedule_kind is ScheduleKind.AFPIPE:
        alloc = canonical_allocation(exp.cluster, 1, 1)
    return build_task_graph(exp, alloc)


def test_criterion_1_warmup_bubble_quarter():
    started = time.perf_counter()
    base = warmup_bubble_analytic(ScheduleKind.MEGATRON_1F1B, UNIFORM, 2, 1, 1)
    af = warmup_bubble_analytic(ScheduleKind.AFPIPE, UNIFORM, 2, 1, 1)
    assert af / base == 0.25

    # Simulated PP=2 with one layer per stage, uniform times for both kinds.
    staged = _small_experiment(ScheduleKind.MEGATRON_1F1B, layers=2, depth=2, stages=1)
    _, staged_result = simulate(timed_graph(staged))
    assert abs(staged_result.bubble_warmup - base) / base < 0.01

    disagg = _small_experiment(ScheduleKind.AFPIPE, layers=1, depth=1, stages=1)
    _, disagg_result = simulate(timed_graph(disagg))
    assert abs(disagg_result.bubble_warmup - af) / af < 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(f"criterion 1: warmup bubble ratio 0.25 exact, simulated bubbles within "
            f"1% of both closed forms ({elapsed:.2f}s)")


def test_criterion_2_roofline_identities():
    started = time.perf_counter()
    rng = random.Random(2)
    cluster = ClusterConfig(total_gpus=4, gpus_per_node=4, total_nics=4,
                            gpu_peak=1e12, ib_bw=1e11)
    for _ in range(1000):
        m, n = rng.randint(1, 512), rng.randint(1, 512)
        i_hat, i_a, i_f = turning_points(cluster, m, n)
        assert i_a + i_f == 2.0 * i_hat
    for _ in range(1000):
        model = ModelConfig(
            layers=1,
            hidden=rng.randint(1, 8192),
            experts=64,
            topk=rng.randint(1, 16),
            moe_hidden=rng.randint(1, 8192),
            gqa_group=rng.randint(1, 16),
        )
        workload = Workload(seq_len=rng.randint(1, 65536),
                            micro_batch=rng.randint(1, 8), num_microbatches=1)
        i_attn, i_ffn = arithmetic_intensities(model, workload)
        volume = m2n_comm_bytes(model, workload)
        assert attention_flops(model, workload) == i_attn * volume
        assert ffn_flops(model, workload) == i_ffn * volume
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(f"criterion 2: turning-point sum and intensity identities exact on "
            f"1000 randomized draws each ({elapsed:.2f}s)")


def test_criterion_3_allocator_exactness():
    started = time.perf_counter()
    rng = random.Random(20260810)
    instances = 0
    for _ in range(20):
        depth = rng.choice([1, 2])
        stages = rng.choice([1, 2])
        model = ModelConfig(
            layers=depth * stages,
            hidden=rng.choice([256, 512, 1024]),
            experts=rng.choice([4, 8, 16]),
            topk=rng.choice([1, 2, 4]),
            moe_hidden=rng.choice([256, 512, 1408]),
            gqa_group=rng.choice([1, 2, 4]),
        )
        workload = Workload(seq_len=rng.choice([512, 1024, 2048, 4096]),
                            micro_batch=1, num_microbatches=rng.choice([2, 3, 4]))
        total_gpus = rng.randint(2, 16)
        total_nics = rng.randint(2, 16)
        cluster = ClusterConfig(total_gpus=total_gpus,
                                gpus_per_node=rng.choice([1, 2, 4, 8]),
                                total_nics=total_nics,
                                gpu_peak=rng.choice([1e12, 1e13]),
                                ib_bw=rng.choice([1e9, 1e10, 1e11]))
        exp = Experiment(model, workload, cluster, ScheduleKind.AFPIPE,
                         pipeline_depth=depth, virtual_stages=stages,
                         ep_size=rng.choice([1, 2, 4]))
        _, oracle_time = brute_force_oracle(exp)
        params = AllocatorParams(radius=max(total_gpus, total_nics),
                                 trials=10_000, epsilon=0.0, rng_seed=7)
        report = allocate(exp, params)
        assert report.t_star == oracle_time, (
            f"allocate {report.t_star} != oracle {oracle_time} on W={total_gpus}, "
            f"NICs={total_nics}")
        instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 20
    assert elapsed < 60.0
    _passed(f"criterion 3: search equals exhaustive-simulation minimum exactly on "
            f"{instances} randomized instances ({elapsed:.1f}s)")


def test_criterion_4_placement():
    plan = assign_layers(8, 2, ATTN)
    assert plan.groups == ((0, (0, 2, 4, 6)), (1, (1, 3, 5, 7)))

    checked = 0
    for layers in range(1, 65):
        for depth in range(1, layers + 1):
            assert validate_partition(assign_layers(layers, depth, FFN), layers) == []
            checked += 1
    rng = random.Random(4)
    for _ in range(200):
        layers = rng.randint(65, 256)
        depth = rng.randint(1, layers)
        assert validate_partition(assign_layers(layers, depth, ATTN), layers) == []
        checked += 1
    _passed(f"criterion 4: worked 8/2 example and disjoint-cover/size-balance over "
            f"{checked} (layers, depth) pairs up to 256 layers")


def criterion_5_experiments():
    """The 100 randomized experiments of criterion 5."""
    rng = random.Random(5)
    for _ in range(100):
        depth = rng.choice([1, 2, 3])
        stages = rng.choice([1, 2])
        kind = rng.choice(list(ScheduleKind))
        yield _small_experiment(kind, layers=depth * stages, depth=depth, stages=stages,
                                microbatches=rng.randint(1, 5))


def test_criterion_5_schedule_validity_and_determinism():
    for exp in criterion_5_experiments():
        graph = _build(exp)
        trace, result = simulate(graph)

        # Exactly once, dependency order, resource exclusivity, twins and
        # both lower bounds.
        assert check_schedule(graph, trace) == []

        repeat, _ = simulate(_build(exp))
        assert export_trace_json(repeat) == export_trace_json(trace), "byte-identical"
    _passed("criterion 5: exclusivity, dependency order, exactly-once, critical-path "
            "bound, and byte-identical determinism on 100 randomized experiments")


def _desk_experiment(**kw):
    base = dict(model=DEEPSEEK,
                workload=Workload(seq_len=8192, micro_batch=1, num_microbatches=8),
                cluster=DESK_CLUSTER,
                schedule_kind=ScheduleKind.AFPIPE,
                pipeline_depth=2, virtual_stages=14, ep_size=16)
    base.update(kw)
    return Experiment(**base)


def test_criterion_6a_a2a_share_monotone_in_ep():
    shares = []
    for ep in (1, 2, 4, 8, 16):
        exp = _desk_experiment(schedule_kind=ScheduleKind.MEGATRON_1F1B, ep_size=ep)
        graph = build_task_graph(exp)
        _, result = simulate(graph)
        embedded_ns = sum(graph.table[key][1] for key in graph.keys)
        per_stage_a2a = embedded_ns / 1e9 / exp.pipeline_depth
        shares.append(per_stage_a2a / result.iteration_time)
    assert shares == sorted(shares)
    assert shares[0] < shares[-1]
    _passed(f"criterion 6a: all-to-all share of staged-baseline iteration rises "
            f"monotonically over EP 1..16 ({['%.3f' % s for s in shares]})")


def test_criterion_6b_attention_share_non_decreasing_in_seq_len():
    shares = []
    for seq_len in (4096, 8192, 16384, 32768):
        exp = _desk_experiment(
            workload=Workload(seq_len=seq_len, micro_batch=1, num_microbatches=4))
        report = allocate(exp, AllocatorParams(radius=16, trials=600,
                                               epsilon=0.0, rng_seed=7))
        shares.append(report.best.attn_gpus / exp.cluster.total_gpus)
    assert shares == sorted(shares)
    _passed(f"criterion 6b: optimal attention GPU share non-decreasing over "
            f"4K..32K sequences ({shares})")


def test_criterion_6c_speedup_in_communication_bound_regime():
    exp = _desk_experiment()
    alloc = default_allocation(exp)
    _, af = run_schedule(exp, ScheduleKind.AFPIPE, alloc)
    _, staged = run_schedule(exp, ScheduleKind.MEGATRON_1F1B, alloc)
    ratio = staged.iteration_time / af.iteration_time
    assert ratio > 1.0
    _passed(f"criterion 6c: disaggregated speedup {ratio:.2f}x over the staged "
            f"baseline at 100 GB/s NICs")


def test_criterion_6d_virtual_stage_sweep_until_oom():
    exp0 = _desk_experiment()
    alloc = default_allocation(exp0)
    capacity = 12e9
    iterations, ooms = [], []
    for stages in (1, 2, 4, 7, 14, 28):
        exp = dataclasses.replace(exp0, pipeline_depth=28 // stages, virtual_stages=stages)
        _, result = run_schedule(exp, ScheduleKind.AFPIPE, alloc)
        iterations.append(result.iteration_time)
        ooms.append(any(entry["oom"] for entry in memory_report(exp, alloc, capacity).values()))
    assert ooms[0] is False and ooms[-1] is True
    assert sum(1 for a, b in zip(ooms, ooms[1:]) if a != b) == 1, "single transition"
    pre_oom = [t for t, o in zip(iterations, ooms) if not o]
    assert all(b < a for a, b in zip(pre_oom, pre_oom[1:])), "throughput improves"
    _passed(f"criterion 6d: throughput improves with virtual stages until the memory "
            f"check fires (capacity {capacity / 1e9:.0f} GB, OOM flags {ooms})")


def test_criterion_7_exposed_communication_ordering():
    exp = _desk_experiment()
    alloc = default_allocation(exp)
    _, af = run_schedule(exp, ScheduleKind.AFPIPE, alloc)
    _, chunked = run_schedule(exp, ScheduleKind.CHUNKED_OVERLAP, alloc)
    _, staged = run_schedule(exp, ScheduleKind.MEGATRON_1F1B, alloc)
    assert af.exposed_comm <= chunked.exposed_comm <= staged.exposed_comm
    _passed(f"criterion 7: exposed communication ordering holds "
            f"({af.exposed_comm:.4f} <= {chunked.exposed_comm:.4f} <= "
            f"{staged.exposed_comm:.4f} s)")


def test_criterion_8_refinement_properties():
    exp = Experiment(
        model=ModelConfig(layers=2, hidden=512, experts=8, topk=2, moe_hidden=512),
        workload=Workload(seq_len=1024, micro_batch=1, num_microbatches=3),
        cluster=ClusterConfig(total_gpus=8, gpus_per_node=2, total_nics=8,
                              gpu_peak=1e12, ib_bw=1e10),
        schedule_kind=ScheduleKind.AFPIPE,
        pipeline_depth=2, virtual_stages=1, ep_size=2,
    )
    from afpipe.allocator import af_iteration_profile

    profile = af_iteration_profile(exp)
    seed = canonical_allocation(exp.cluster, 1, 1)  # deliberately poor start
    for restart in range(100):
        params = AllocatorParams(radius=3, trials=30, rng_seed=restart)
        best, best_time, improvements, trace = phase3_refine(seed, params, profile, exp.cluster)
        assert best_time <= trace[0][1], "never worse than the seed"
        accepted = [trace[0][1]]
        for _, t in trace[1:]:
            if t < accepted[-1]:
                accepted.append(t)
        assert accepted == sorted(accepted, reverse=True)
        assert len(accepted) - 1 == improvements
        assert best_time == accepted[-1]
        again = phase3_refine(seed, params, profile, exp.cluster)
        assert again == (best, best_time, improvements, trace), "seed-reproducible"
    _passed("criterion 8: accept-only-improvement monotonicity and seed "
            "reproducibility over 100 random restarts")
