import logging
import os
import re
from collections import Counter
from dataclasses import replace

import pytest

from afpipe.allocator import (
    Allocation,
    AllocatorParams,
    NoFeasible,
    SearchSpaceTooLarge,
    IterationProfile,
    _shaped_size,
    af_iteration_profile,
    allocate,
    analytic_bottleneck,
    brute_force_oracle,
    canonical_allocation,
    default_allocation,
    enumerate_feasible,
    phase1_min_bottleneck,
    phase2_tiebreak,
    phase3_refine,
)
from afpipe.config import (
    ClusterConfig,
    Experiment,
    ModelConfig,
    ScheduleKind,
    Workload,
    load_experiment,
)
from afpipe.costs import layer_costs
from afpipe.sim import resource_bound_ns, simulate
from afpipe.taskgraph import build_task_graph

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _cluster(W, nics, gpus_per_node):
    return ClusterConfig(total_gpus=W, gpus_per_node=gpus_per_node, total_nics=nics,
                         gpu_peak=1e12, ib_bw=1e10)


def _experiment(W=4, nics=4, layers=2, depth=2, stages=1, seq=1024, hidden=512,
                topk=2, moe_hidden=512, peak=1e12, ib=1e10, microbatches=3, ep=2,
                gpus_per_node=2):
    return Experiment(
        model=ModelConfig(layers=layers, hidden=hidden, experts=8, topk=topk,
                          moe_hidden=moe_hidden),
        workload=Workload(seq_len=seq, micro_batch=1, num_microbatches=microbatches),
        cluster=ClusterConfig(total_gpus=W, gpus_per_node=gpus_per_node, total_nics=nics,
                              gpu_peak=peak, ib_bw=ib),
        schedule_kind=ScheduleKind.AFPIPE,
        pipeline_depth=depth,
        virtual_stages=stages,
        ep_size=ep,
    )


def _brute_force_allocations(total_gpus, total_nics, node_size_max):
    """Independent enumeration: try every 8-tuple and keep the valid ones."""
    found = set()
    for attn_gpus in range(1, total_gpus):
        ffn_gpus = total_gpus - attn_gpus
        for m in range(1, attn_gpus + 1):
            for mu in range(1, node_size_max + 1):
                if m * mu != attn_gpus:
                    continue
                for n in range(1, ffn_gpus + 1):
                    for nu in range(1, node_size_max + 1):
                        if n * nu != ffn_gpus:
                            continue
                        for attn_nics in range(1, total_nics):
                            found.add((attn_gpus, ffn_gpus, m, n, mu, nu,
                                       attn_nics, total_nics - attn_nics))
    return found


def test_enumerate_smallest_split():
    cands = enumerate_feasible(_cluster(2, 2, 1))
    assert Allocation(1, 1, 1, 1, 1, 1, 1, 1) in cands


def test_enumerate_unsplittable_nics():
    with pytest.raises(NoFeasible):
        enumerate_feasible(_cluster(2, 1, 8))


def test_enumerate_without_node_shapes():
    with pytest.raises(NoFeasible):
        enumerate_feasible(_cluster(4, 4, 0))


def test_enumerate_matches_independent_count():
    # One candidate per distinct (M, M_a) of the shape-expanded brute force,
    # with the densest shape, standing for all of that split's shapes.
    for total_gpus, total_nics, node_size_max in ((4, 4, 8), (9, 5, 2), (12, 3, 4)):
        cluster = _cluster(total_gpus, total_nics, node_size_max)
        cands = enumerate_feasible(cluster)
        expected = _brute_force_allocations(total_gpus, total_nics, node_size_max)
        splits = sorted({(t[0], t[6]) for t in expected})
        assert [(c.attn_gpus, c.attn_nics) for c in cands] == splits
        for c in cands:
            assert c == canonical_allocation(cluster, c.attn_gpus, c.attn_nics)
        assert _shaped_size(cands, node_size_max) == len(expected)


def test_enumerate_canonical_order():
    cands = enumerate_feasible(_cluster(6, 4, 4))
    keys = [c.sort_key() for c in cands]
    assert keys == sorted(keys)


def test_enumerate_respects_node_size_cap():
    for c in enumerate_feasible(_cluster(16, 4, 4)):
        assert c.attn_gpus_per_node <= 4
        assert c.ffn_gpus_per_node <= 4
        assert c.attn_nodes * c.attn_gpus_per_node == c.attn_gpus
        assert c.ffn_nodes * c.ffn_gpus_per_node == c.ffn_gpus


def test_enumerate_equal_nics():
    cands = enumerate_feasible(_cluster(4, 4, 8), equal_nics=True)
    assert all(c.attn_nics == c.ffn_nics == 2 for c in cands)
    with pytest.raises(NoFeasible):
        enumerate_feasible(_cluster(4, 5, 8), equal_nics=True)


@pytest.mark.parametrize("attn_gpus, attn_nics", [(0, 2), (4, 2), (2, 0), (2, 4), (2, 5)],
                         ids=["no-attn-gpu", "no-ffn-gpu", "no-attn-nic", "no-ffn-nic",
                              "negative-ffn-nics"])
def test_canonical_allocation_rejects_a_side_left_empty(attn_gpus, attn_nics):
    with pytest.raises(NoFeasible, match="leaves no split"):
        canonical_allocation(_cluster(4, 4, 2), attn_gpus, attn_nics)


def test_canonical_allocation_enforces_the_equal_nic_rule():
    assert canonical_allocation(_cluster(4, 4, 2), 1, 2, equal_nics=True).ffn_nics == 2
    with pytest.raises(NoFeasible, match="^equal NIC split gives each side 2 NICs"):
        canonical_allocation(_cluster(4, 4, 2), 1, 1, equal_nics=True)
    with pytest.raises(NoFeasible, match="^equal NIC split requires an even NIC count, got 5$"):
        canonical_allocation(_cluster(4, 5, 2), 1, 2, equal_nics=True)


@pytest.mark.parametrize("equal_nics", [False, True])
def test_phase3_candidates_stay_in_the_enumerated_splits(equal_nics):
    exp = _experiment(W=6, nics=4)
    splits = set(enumerate_feasible(exp.cluster, equal_nics))
    seed = min(splits, key=Allocation.sort_key)
    params = AllocatorParams(trials=60, radius=5, rng_seed=2)
    *_, trace = phase3_refine(seed, params, af_iteration_profile(exp), exp.cluster, equal_nics)
    assert {cand for cand, _ in trace} <= splits


def test_conservation_invariants():
    for c in enumerate_feasible(_cluster(9, 7, 8)):
        assert c.attn_gpus + c.ffn_gpus == 9
        assert c.attn_nics + c.ffn_nics == 7
        assert min(c.attn_gpus, c.ffn_gpus, c.attn_nics, c.ffn_nics) >= 1


def test_phase1_single_candidate():
    exp = _experiment(W=2, nics=2, gpus_per_node=1)
    cands = enumerate_feasible(exp.cluster)
    t_star, band = phase1_min_bottleneck(cands, exp, epsilon=0.0)
    assert band == cands
    costs = layer_costs(exp.model, exp.workload, exp.ep_size)
    assert t_star == analytic_bottleneck(cands[0], exp, costs)


def test_phase1_matches_exhaustive_minimum():
    exp = _experiment(W=4, nics=4)
    cands = enumerate_feasible(exp.cluster)
    t_star, band = phase1_min_bottleneck(cands, exp, epsilon=0.0)
    costs = layer_costs(exp.model, exp.workload, exp.ep_size)
    exhaustive = min(analytic_bottleneck(c, exp, costs) for c in cands)
    assert t_star == exhaustive
    assert all(analytic_bottleneck(c, exp, costs) == t_star for c in band)


def test_phase1_symmetric_costs_keep_balanced_split():
    # seq == hidden == k * moe_hidden makes attention and FFN FLOPs equal.
    exp = _experiment(W=4, nics=4, seq=1024, hidden=1024, topk=2, moe_hidden=1024)
    cands = enumerate_feasible(exp.cluster)
    _, band = phase1_min_bottleneck(cands, exp, epsilon=0.0)
    assert any(c.attn_gpus == c.ffn_gpus == 2 for c in band)


def test_phase2_single_element():
    exp = _experiment()
    only = canonical_allocation(exp.cluster, 1, 1)
    assert phase2_tiebreak([only], exp) is only


def test_phase2_equal_objectives_keep_canonical_first():
    # Both sides deep in the compute-bound regime: every NIC split attains
    # the same roofline sum, so the canonically first candidate wins.
    exp = _experiment(ib=1e15)
    a = canonical_allocation(exp.cluster, 2, 1)
    b = canonical_allocation(exp.cluster, 2, 2)
    assert phase2_tiebreak([a, b], exp) is a


def test_phase2_prefers_nic_shift_to_starved_side():
    # Attention compute-bound, FFN network-bound: moving a NIC from the
    # attention side to the FFN side raises attainable throughput.
    # Hand evaluation with I_attn = 2560, I_ffn = 64, P = 1e12, B = 1e9, M = N = 2:
    #   split (Ma=2, Mf=2): min(2e12, 5.12e12) + min(2e12, 1.28e11) = 2.128e12
    #   split (Ma=1, Mf=3): min(2e12, 2.56e12) + min(2e12, 1.92e11) = 2.192e12
    exp = _experiment(W=4, nics=4, seq=256, hidden=1024, topk=1, moe_hidden=32,
                      peak=1e12, ib=1e9)
    balanced = canonical_allocation(exp.cluster, 2, 2)
    ffn_lifted = canonical_allocation(exp.cluster, 2, 1)
    assert phase2_tiebreak([balanced, ffn_lifted], exp) is ffn_lifted


def test_phase3_zero_trials_returns_seed():
    exp = _experiment()
    seed = default_allocation(exp)
    profile = af_iteration_profile(exp)
    best, t, improvements, trace = phase3_refine(
        seed, AllocatorParams(trials=0, radius=2), profile, exp.cluster)
    assert best == seed
    assert t == profile(seed)
    assert improvements == 0
    assert len(trace) == 1


def test_phase3_zero_radius_never_moves():
    exp = _experiment()
    seed = default_allocation(exp)
    profile = af_iteration_profile(exp)
    best, _, improvements, trace = phase3_refine(
        seed, AllocatorParams(trials=10, radius=0), profile, exp.cluster)
    assert best == seed
    assert improvements == 0
    assert len(trace) == 11


def test_phase3_accepts_only_improvements():
    exp = _experiment()
    profile = af_iteration_profile(exp)
    seed = canonical_allocation(exp.cluster, 1, 1)  # deliberately lopsided
    best, t, _, trace = phase3_refine(
        seed, AllocatorParams(trials=50, radius=2, rng_seed=3), profile, exp.cluster)
    assert t <= profile(seed)
    accepted = [time for _, time in trace[:1]]
    for _, time in trace[1:]:
        if time < accepted[-1]:
            accepted.append(time)
    assert accepted == sorted(accepted, reverse=True)
    assert t == accepted[-1]


def test_phase3_reproducible_from_seed():
    exp = _experiment()
    profile = af_iteration_profile(exp)
    seed = default_allocation(exp)
    params = AllocatorParams(trials=25, radius=3, rng_seed=11)
    first = phase3_refine(seed, params, profile, exp.cluster)
    second = phase3_refine(seed, params, profile, exp.cluster)
    assert first == second


def test_allocate_symmetric_toy_is_balanced():
    exp = _experiment(W=2, nics=2, layers=2, depth=1, stages=2, seq=1024,
                      hidden=1024, topk=2, moe_hidden=1024, gpus_per_node=1)
    report = allocate(exp, AllocatorParams(trials=20, radius=1, rng_seed=0))
    assert report.best.attn_gpus == report.best.ffn_gpus == 1
    assert report.best.attn_nics == report.best.ffn_nics == 1


def test_allocate_matches_brute_force_on_toy():
    exp = _experiment(W=6, nics=4)
    _, oracle_time = brute_force_oracle(exp)
    report = allocate(exp, AllocatorParams(trials=2000, radius=6, epsilon=0.0, rng_seed=1))
    assert report.t_star == oracle_time


def test_allocate_report_consistency():
    exp = _experiment(W=4, nics=4)
    report = allocate(exp, AllocatorParams(trials=30, radius=2, rng_seed=5))
    profile = af_iteration_profile(exp)
    assert report.t_star == profile(report.best)
    assert report.phase1_set_size >= 1
    assert report.objective_trace[0][0] == report.seed_alloc
    # GPU and NIC conservation hold for every candidate ever profiled.
    for cand, _ in report.objective_trace:
        assert cand.attn_gpus + cand.ffn_gpus == 4
        assert cand.attn_nics + cand.ffn_nics == 4
        assert cand.attn_nodes * cand.attn_gpus_per_node == cand.attn_gpus
        assert cand.ffn_nodes * cand.ffn_gpus_per_node == cand.ffn_gpus


def test_oracle_cap():
    exp = _experiment(W=8, nics=8)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_oracle(exp, cap=3)


def test_oracle_propagates_infeasible():
    exp = _experiment(W=2, nics=2)
    object.__setattr__(exp.cluster, "total_nics", 1)
    with pytest.raises(NoFeasible):
        brute_force_oracle(exp)


def test_longer_sequences_shift_gpus_to_attention():
    # Three-point sweep against the exhaustive oracle: the optimal attention
    # GPU share must not shrink as sequences grow (attention compute is
    # quadratic in s, FFN linear).
    shares = []
    for seq in (1024, 4096, 16384):
        exp = _experiment(W=8, nics=4, seq=seq, hidden=512, topk=4, moe_hidden=704,
                          microbatches=3, gpus_per_node=2)
        best, _ = brute_force_oracle(exp)
        shares.append(best.attn_gpus / 8)
    assert shares == sorted(shares)


def test_canonical_allocation_prefers_dense_nodes():
    cluster = _cluster(16, 4, 8)
    alloc = canonical_allocation(cluster, 12, 2)
    assert (alloc.attn_nodes, alloc.attn_gpus_per_node) == (2, 6)
    alloc = canonical_allocation(cluster, 7, 2)
    assert (alloc.attn_nodes, alloc.attn_gpus_per_node) == (1, 7)
    alloc = canonical_allocation(cluster, 13, 2)
    assert (alloc.attn_nodes, alloc.attn_gpus_per_node) == (13, 1)


def _reference_profile(exp):
    """Builds and simulates every split it profiles, memoized on the split."""
    af_exp = replace(exp, schedule_kind=ScheduleKind.AFPIPE)
    cache = {}

    def profile(alloc):
        key = (alloc.attn_gpus, alloc.ffn_gpus, alloc.attn_nics, alloc.ffn_nics)
        if key not in cache:
            cache[key] = simulate(build_task_graph(af_exp, alloc))[1].iteration_time
        return cache[key]

    return profile


# The deepseek config runs 2 of its 8 micro-batches: the split-independent
# topology re-timing relies on is the same at any count, and 2 keep 1F1B
# interleaving while the 1,644 reference simulations stay within seconds.
# allocate and brute_force_oracle are functions of the profile values; they
# are compared on the 8/8 cluster, where their re-timing costs least.
@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("config,microbatches", [("toy.yaml", None), ("deepseek_moe.yaml", 2)])
def test_retimed_profile_equals_simulation(config, microbatches, depth):
    base = load_experiment(os.path.join(CONFIGS, config))
    if microbatches is not None:
        base = replace(base, workload=replace(base.workload, num_microbatches=microbatches))
    for total in (8, 16):
        exp = replace(base, pipeline_depth=depth,
                      cluster=replace(base.cluster, total_gpus=total, total_nics=total))
        reference = _reference_profile(exp)
        counts = Counter()
        profile = af_iteration_profile(exp, counts)
        cands = enumerate_feasible(exp.cluster)
        splits = {(c.attn_gpus, c.attn_nics): c for c in cands}
        for alloc in splits.values():
            assert profile(alloc) == reference(alloc), alloc
        assert counts == {"calls": len(splits), "retimed": len(splits), "plans": 1}
        if total != 8:
            continue

        best = min(cands, key=reference)  # the first of the minima, in canonical order
        assert brute_force_oracle(exp) == (best, reference(best))
        for seed in range(6):
            params = AllocatorParams(radius=4, trials=50, rng_seed=seed)
            report = allocate(exp, params)
            expected = phase3_refine(report.seed_alloc, params, reference, exp.cluster)
            assert report.objective_trace == expected[3]


def test_profile_plans_once_when_created_and_memoizes_on_the_split():
    exp = _experiment()
    counts = Counter()
    profile = IterationProfile(exp, counts)
    assert counts == {"plans": 1}
    alloc = canonical_allocation(exp.cluster, 2, 1)
    assert profile(alloc) == profile(alloc) == _reference_profile(exp)(alloc)
    assert counts == {"plans": 1, "calls": 2, "retimed": 1}


def test_profile_of_no_microbatches_is_zero():
    # Config validation rejects 0 micro-batches, so it is set past it.
    exp = _experiment()
    exp = replace(exp, workload=replace(exp.workload, num_microbatches=0))
    alloc = canonical_allocation(exp.cluster, 2, 2)
    assert simulate(build_task_graph(exp, alloc))[1].iteration_time == 0.0
    assert af_iteration_profile(exp)(alloc) == 0.0


def _profile_log(caplog, run):
    """run()'s result, and the verb and counts of the one afpipe.allocator line it logs."""
    with caplog.at_level(logging.DEBUG, logger="afpipe.allocator"):
        result = run()
    lines = [r.getMessage() for r in caplog.records if r.name == "afpipe.allocator"]
    assert len(lines) == 1
    match = re.fullmatch(r"(\w+): (\d+) profile calls, (\d+) splits re-timed, "
                         r"(\d+) splits pruned, (\d+) plan builds", lines[0])
    assert match, lines[0]
    return result, match.group(1), tuple(map(int, match.groups()[1:]))


def test_allocate_and_oracle_log_profile_counts_at_debug(caplog):
    exp = _experiment(W=6, nics=4)
    params = AllocatorParams(trials=40, radius=2, rng_seed=3)
    report, verb, counts = _profile_log(caplog, lambda: allocate(exp, params))
    splits = {(a.attn_gpus, a.attn_nics) for a, _ in report.objective_trace}
    assert (verb, counts) == ("allocate", (params.trials + 1, len(splits), 0, 1))

    caplog.clear()
    (_, best_time), verb, counts = _profile_log(caplog, lambda: brute_force_oracle(exp))
    cands = enumerate_feasible(exp.cluster)
    bounds = [resource_bound_ns(build_task_graph(exp, c)) / 1e9 for c in cands]
    retimed = sum(bound <= best_time for bound in bounds)
    assert 0 < retimed < len(cands)
    assert (verb, counts) == ("brute_force_oracle", (retimed, retimed, len(cands) - retimed, 1))


def _sized(config, total, depth=None, **workload):
    """configs/<config> on a total/total GPU/NIC cluster, workload fields replaced."""
    exp = load_experiment(os.path.join(CONFIGS, config))
    return replace(
        exp,
        pipeline_depth=exp.pipeline_depth if depth is None else depth,
        workload=replace(exp.workload, **workload),
        cluster=replace(exp.cluster, total_gpus=total, total_nics=total),
    )


def _expanded(exp, equal_nics=False):
    """The shape-expanded candidates, canonically ordered, from the independent enumeration."""
    cluster = exp.cluster
    cands = sorted(
        (Allocation(*t) for t in _brute_force_allocations(
            cluster.total_gpus, cluster.total_nics, cluster.gpus_per_node)),
        key=Allocation.sort_key,
    )
    if equal_nics:
        cands = [c for c in cands if c.attn_nics == cluster.total_nics // 2]
    return cands


# The sequence lengths of the benchmark's oracle pool (deepseek, 8/8, 4 micro-batches).
SEQ_LENS = (2048, 4096, 8192, 16384, 32768)


@pytest.mark.parametrize("config", ["toy.yaml", "deepseek_moe.yaml"])
def test_pruned_oracle_equals_exhaustive_reference(config):
    # ib_bw = 1e20 rounds every exchange to 0 ns, so the NIC splits of a GPU split tie.
    for seq, ib in [*((seq, None) for seq in SEQ_LENS), (8192, 1e20)]:
        exp = _sized(config, 8, seq_len=seq, num_microbatches=4)
        if ib is not None:
            exp = replace(exp, cluster=replace(exp.cluster, ib_bw=ib))
        reference = _reference_profile(exp)
        for equal_nics in (False, True):
            best = min(_expanded(exp, equal_nics), key=reference)  # the first of the minima
            assert brute_force_oracle(exp, equal_nics=equal_nics) == (best, reference(best)), seq


def test_pruned_oracle_keeps_least_sort_key_on_equal_times():
    # One micro-batch on 5 GPUs: the splits M=3 and M=4 (5 NICs each) take
    # the same time, and the later one has the smaller lane bound, so it is
    # re-timed first; the canonically first must still win.
    exp = replace(_experiment(W=5, nics=10, seq=1024, hidden=512, topk=1, moe_hidden=256,
                              ib=1e12, microbatches=1, gpus_per_node=4),
                  model=ModelConfig(layers=2, hidden=512, experts=4, topk=1, moe_hidden=256))
    reference = _reference_profile(exp)
    first, later = canonical_allocation(exp.cluster, 3, 5), canonical_allocation(exp.cluster, 4, 5)
    assert reference(first) == reference(later) == min(map(reference, _expanded(exp)))
    bound = {c: resource_bound_ns(build_task_graph(exp, c)) for c in (first, later)}
    assert bound[later] < bound[first]
    assert brute_force_oracle(exp) == (first, reference(first))


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_lane_bound_equals_resource_bound(depth):
    for config, microbatches in (("toy.yaml", 4), ("deepseek_moe.yaml", 2)):
        exp = _sized(config, 8, depth=depth, num_microbatches=microbatches)
        profile = IterationProfile(exp)
        for alloc in enumerate_feasible(exp.cluster):
            graph = build_task_graph(exp, alloc)
            assert profile.lane_bound_ns(alloc) == resource_bound_ns(graph)


def test_shaped_sizes_match_expanded_enumeration():
    # phase1_set_size and the oracle's cap count every node shape of a split.
    for W, nics, gpn in ((4, 4, 2), (6, 4, 2), (9, 5, 4), (12, 6, 8), (16, 3, 1)):
        exp = _experiment(W=W, nics=nics, gpus_per_node=gpn, microbatches=1)
        expanded = _expanded(exp)
        costs = layer_costs(exp.model, exp.workload, exp.ep_size)
        scores = [analytic_bottleneck(c, exp, costs) for c in expanded]
        params = AllocatorParams(trials=0)
        band = [t for t in scores if t <= min(scores) * (1.0 + params.epsilon)]
        assert allocate(exp, params).phase1_set_size == len(band)

        brute_force_oracle(exp, cap=len(expanded))
        with pytest.raises(SearchSpaceTooLarge, match=f"^{len(expanded)} candidates"):
            brute_force_oracle(exp, cap=len(expanded) - 1)
