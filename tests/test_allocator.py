import pytest

from afpipe.allocator import (
    Allocation,
    AllocatorParams,
    NoFeasible,
    SearchSpaceTooLarge,
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
from afpipe.config import ClusterConfig, Experiment, ModelConfig, ScheduleKind, Workload
from afpipe.costs import layer_costs


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
    cands = enumerate_feasible(2, 2, node_size_max=1)
    assert Allocation(1, 1, 1, 1, 1, 1, 1, 1) in cands


def test_enumerate_unsplittable_nics():
    with pytest.raises(NoFeasible):
        enumerate_feasible(2, 1)


def test_enumerate_matches_independent_count():
    cands = enumerate_feasible(4, 4, node_size_max=8)
    expected = _brute_force_allocations(4, 4, 8)
    got = {(c.attn_gpus, c.ffn_gpus, c.attn_nodes, c.ffn_nodes,
            c.attn_gpus_per_node, c.ffn_gpus_per_node, c.attn_nics, c.ffn_nics)
           for c in cands}
    assert got == expected
    assert len(cands) == len(expected)


def test_enumerate_canonical_order():
    cands = enumerate_feasible(6, 4, node_size_max=4)
    keys = [c.sort_key() for c in cands]
    assert keys == sorted(keys)


def test_enumerate_respects_node_size_cap():
    for c in enumerate_feasible(16, 4, node_size_max=4):
        assert c.attn_gpus_per_node <= 4
        assert c.ffn_gpus_per_node <= 4
        assert c.attn_nodes * c.attn_gpus_per_node == c.attn_gpus
        assert c.ffn_nodes * c.ffn_gpus_per_node == c.ffn_gpus


def test_enumerate_equal_nics():
    cands = enumerate_feasible(4, 4, node_size_max=8, equal_nics=True)
    assert all(c.attn_nics == c.ffn_nics == 2 for c in cands)
    with pytest.raises(NoFeasible):
        enumerate_feasible(4, 5, equal_nics=True)


def test_conservation_invariants():
    for c in enumerate_feasible(9, 7, node_size_max=8):
        assert c.attn_gpus + c.ffn_gpus == 9
        assert c.attn_nics + c.ffn_nics == 7
        assert min(c.attn_gpus, c.ffn_gpus, c.attn_nics, c.ffn_nics) >= 1


def test_phase1_single_candidate():
    exp = _experiment(W=2, nics=2, gpus_per_node=1)
    cands = enumerate_feasible(2, 2, node_size_max=1)
    t_star, band = phase1_min_bottleneck(cands, exp, epsilon=0.0)
    assert band == cands
    costs = layer_costs(exp.model, exp.workload, exp.ep_size)
    assert t_star == analytic_bottleneck(cands[0], exp, costs)


def test_phase1_matches_exhaustive_minimum():
    exp = _experiment(W=4, nics=4)
    cands = enumerate_feasible(4, 4, node_size_max=2)
    t_star, band = phase1_min_bottleneck(cands, exp, epsilon=0.0)
    costs = layer_costs(exp.model, exp.workload, exp.ep_size)
    exhaustive = min(analytic_bottleneck(c, exp, costs) for c in cands)
    assert t_star == exhaustive
    assert all(analytic_bottleneck(c, exp, costs) == t_star for c in band)


def test_phase1_symmetric_costs_keep_balanced_split():
    # seq == hidden == k * moe_hidden makes attention and FFN FLOPs equal.
    exp = _experiment(W=4, nics=4, seq=1024, hidden=1024, topk=2, moe_hidden=1024)
    cands = enumerate_feasible(4, 4, node_size_max=2)
    _, band = phase1_min_bottleneck(cands, exp, epsilon=0.0)
    assert any(c.attn_gpus == c.ffn_gpus == 2 for c in band)


def test_phase2_single_element():
    exp = _experiment()
    only = canonical_allocation(1, 1, 4, 4, 2)
    assert phase2_tiebreak([only], exp) is only


def test_phase2_equal_objectives_keep_canonical_first():
    # Both sides deep in the compute-bound regime: every NIC split attains
    # the same roofline sum, so the canonically first candidate wins.
    exp = _experiment(ib=1e15)
    a = canonical_allocation(2, 1, 4, 4, 2)
    b = canonical_allocation(2, 2, 4, 4, 2)
    assert phase2_tiebreak([a, b], exp) is a


def test_phase2_prefers_nic_shift_to_starved_side():
    # Attention compute-bound, FFN network-bound: moving a NIC from the
    # attention side to the FFN side raises attainable throughput.
    # Hand evaluation with I_attn = 2560, I_ffn = 64, P = 1e12, B = 1e9, M = N = 2:
    #   split (Ma=2, Mf=2): min(2e12, 5.12e12) + min(2e12, 1.28e11) = 2.128e12
    #   split (Ma=1, Mf=3): min(2e12, 2.56e12) + min(2e12, 1.92e11) = 2.192e12
    exp = _experiment(W=4, nics=4, seq=256, hidden=1024, topk=1, moe_hidden=32,
                      peak=1e12, ib=1e9)
    balanced = canonical_allocation(2, 2, 4, 4, 2)
    ffn_lifted = canonical_allocation(2, 1, 4, 4, 2)
    assert phase2_tiebreak([balanced, ffn_lifted], exp) is ffn_lifted


def test_phase3_zero_trials_returns_seed():
    exp = _experiment()
    seed = default_allocation(exp)
    profile = af_iteration_profile(exp)
    best, t, improvements, trace = phase3_refine(
        seed, AllocatorParams(trials=0, radius=2), profile, 4, 4, 2)
    assert best == seed
    assert t == profile(seed)
    assert improvements == 0
    assert len(trace) == 1


def test_phase3_zero_radius_never_moves():
    exp = _experiment()
    seed = default_allocation(exp)
    profile = af_iteration_profile(exp)
    best, _, improvements, trace = phase3_refine(
        seed, AllocatorParams(trials=10, radius=0), profile, 4, 4, 2)
    assert best == seed
    assert improvements == 0
    assert len(trace) == 11


def test_phase3_accepts_only_improvements():
    exp = _experiment()
    profile = af_iteration_profile(exp)
    seed = canonical_allocation(1, 1, 4, 4, 2)  # deliberately lopsided
    best, t, _, trace = phase3_refine(
        seed, AllocatorParams(trials=50, radius=2, rng_seed=3), profile, 4, 4, 2)
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
    first = phase3_refine(seed, params, profile, 4, 4, 2)
    second = phase3_refine(seed, params, profile, 4, 4, 2)
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
    alloc = canonical_allocation(12, 2, 16, 4, node_size_max=8)
    assert (alloc.attn_nodes, alloc.attn_gpus_per_node) == (2, 6)
    alloc = canonical_allocation(7, 2, 16, 4, node_size_max=8)
    assert (alloc.attn_nodes, alloc.attn_gpus_per_node) == (1, 7)
    alloc = canonical_allocation(13, 2, 16, 4, node_size_max=8)
    assert (alloc.attn_nodes, alloc.attn_gpus_per_node) == (13, 1)
