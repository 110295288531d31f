"""GPU/NIC allocation search for the disaggregated pipeline.

Three phases:
  1. enumerate every feasible split of W GPUs and M_tot NICs and keep the
     set minimizing the analytic bottleneck max(T_a, T_f) (plus an epsilon
     band);
  2. break ties by the roofline objective: the summed attainable throughput
     of both sides under their NIC-lifted bandwidths (the MFU numerator at a
     fixed bottleneck);
  3. seeded local refinement that perturbs (M, M_a), re-derives node shapes
     canonically, profiles the candidate with the pipeline simulator, and
     accepts strict improvements.

The search space stays small at cluster scale (GPU splits x NIC splits x
node shapes), so exact enumeration replaces an integer-programming solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .config import Experiment, ScheduleKind
from .costs import LayerCosts, arithmetic_intensities, layer_costs, roofline_attainable, stage_times
# Unused here, but bench/tracing.py patches allocator.assign_layers.
from .placement import assign_layers  # noqa: F401
from .sim import simulate
from .taskgraph import build_task_graph


class NoFeasible(Exception):
    pass


class SearchSpaceTooLarge(Exception):
    pass


@dataclass(frozen=True)
class Allocation:
    """A full GPU/NIC split: M+N=W GPUs, M_a+M_f=M_tot NICs, M=m*mu, N=n*nu."""

    attn_gpus: int
    ffn_gpus: int
    attn_nodes: int
    ffn_nodes: int
    attn_gpus_per_node: int
    ffn_gpus_per_node: int
    attn_nics: int
    ffn_nics: int

    def sort_key(self) -> tuple:
        return (
            self.attn_gpus,
            self.attn_nics,
            self.attn_nodes,
            self.attn_gpus_per_node,
            self.ffn_nodes,
            self.ffn_gpus_per_node,
        )


@dataclass(frozen=True)
class AllocatorParams:
    radius: int = 2
    trials: int = 64
    epsilon: float = 1e-3  # relative band width retained after phase 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.radius < 0 or self.trials < 0 or not self.epsilon >= 0:  # rejects NaN too
            raise ValueError("radius, trials, and epsilon must be >= 0")


@dataclass
class AllocationReport:
    best: Allocation
    t_star: float
    phase1_set_size: int
    seed_alloc: Allocation
    refine_improvements: int
    objective_trace: list[tuple[Allocation, float]] = field(default_factory=list)


def _factorizations(count: int, node_size_max: int) -> list[tuple[int, int]]:
    """(nodes, gpus_per_node) pairs with nodes*gpn == count, ascending nodes."""
    return [
        (count // gpn, gpn)
        for gpn in range(min(count, node_size_max), 0, -1)
        if count % gpn == 0
    ]


def largest_node_shape(count: int, node_size_max: int) -> tuple[int, int]:
    """Canonical shape: the densest packing, i.e. the largest feasible mu."""
    for gpn in range(min(count, node_size_max), 0, -1):
        if count % gpn == 0:
            return count // gpn, gpn
    raise ValueError(f"no node shape for {count} GPUs")


def canonical_allocation(
    attn_gpus: int,
    attn_nics: int,
    total_gpus: int,
    total_nics: int,
    node_size_max: int = 8,
) -> Allocation:
    m, mu = largest_node_shape(attn_gpus, node_size_max)
    n, nu = largest_node_shape(total_gpus - attn_gpus, node_size_max)
    return Allocation(
        attn_gpus=attn_gpus,
        ffn_gpus=total_gpus - attn_gpus,
        attn_nodes=m,
        ffn_nodes=n,
        attn_gpus_per_node=mu,
        ffn_gpus_per_node=nu,
        attn_nics=attn_nics,
        ffn_nics=total_nics - attn_nics,
    )


def enumerate_feasible(
    total_gpus: int,
    total_nics: int,
    node_size_max: int = 8,
    equal_nics: bool = False,
) -> list[Allocation]:
    """Every allocation satisfying the split constraints, canonically ordered.

    Order: ascending attention GPUs, then attention NICs, then node count,
    then GPUs per node (mirrored on the FFN side).
    """
    if total_gpus < 2 or total_nics < 2:
        raise NoFeasible(
            f"cannot split {total_gpus} GPUs / {total_nics} NICs into two groups"
        )
    if equal_nics and total_nics % 2 != 0:
        raise NoFeasible(f"equal NIC split requires an even NIC count, got {total_nics}")
    nic_splits = [total_nics // 2] if equal_nics else range(1, total_nics)
    out: list[Allocation] = []
    for attn_gpus in range(1, total_gpus):
        attn_shapes = _factorizations(attn_gpus, node_size_max)
        ffn_shapes = _factorizations(total_gpus - attn_gpus, node_size_max)
        for attn_nics in nic_splits:
            for m, mu in attn_shapes:
                for n, nu in ffn_shapes:
                    out.append(
                        Allocation(
                            attn_gpus=attn_gpus,
                            ffn_gpus=total_gpus - attn_gpus,
                            attn_nodes=m,
                            ffn_nodes=n,
                            attn_gpus_per_node=mu,
                            ffn_gpus_per_node=nu,
                            attn_nics=attn_nics,
                            ffn_nics=total_nics - attn_nics,
                        )
                    )
    if not out:
        raise NoFeasible("empty feasible set")
    out.sort(key=Allocation.sort_key)
    return out


def analytic_bottleneck(alloc: Allocation, exp: Experiment, costs: LayerCosts) -> float:
    """max(T_a, T_f) from exp's forward per-layer costs; scale factors cancel."""
    t = stage_times(costs, alloc, exp.cluster, exp.pipeline_depth)
    return max(t.t_attn, t.t_ffn)


def phase1_min_bottleneck(
    cands: list[Allocation], exp: Experiment, epsilon: float
) -> tuple[float, list[Allocation]]:
    """Minimize the bottleneck stage; keep everything within (1+eps)*T_star."""
    if not cands:
        raise NoFeasible("no candidates to evaluate")
    costs = layer_costs(exp.model, exp.workload, exp.ep_size)
    scored = [(analytic_bottleneck(c, exp, costs), c) for c in cands]
    t_star = min(t for t, _ in scored)
    band = [c for t, c in scored if t <= t_star * (1.0 + epsilon)]
    return t_star, band


def phase2_tiebreak(band: list[Allocation], exp: Experiment) -> Allocation:
    """Among bottleneck ties, maximize summed attainable roofline throughput.

    Each side attains min(P * gpus, I * nics * B_IB); shifting a NIC to the
    side still below its compute roof raises the sum, which is the MFU
    numerator once the bottleneck time is fixed. Ties keep canonical order.
    """
    if not band:
        raise NoFeasible("empty tie-break set")
    i_attn, i_ffn = arithmetic_intensities(exp.model, exp.workload)
    peak, ib = exp.cluster.gpu_peak, exp.cluster.ib_bw
    best = None
    best_obj = None
    for cand in band:
        obj = roofline_attainable(i_attn, peak * cand.attn_gpus, cand.attn_nics * ib)
        obj += roofline_attainable(i_ffn, peak * cand.ffn_gpus, cand.ffn_nics * ib)
        if best_obj is None or obj > best_obj:
            best, best_obj = cand, obj
    return best


def phase3_refine(
    seed: Allocation,
    params: AllocatorParams,
    profile,
    total_gpus: int,
    total_nics: int,
    node_size_max: int = 8,
    equal_nics: bool = False,
) -> tuple[Allocation, float, int, list[tuple[Allocation, float]]]:
    """Exactly `trials` random perturbations of (M, M_a), keeping strict wins.

    Node shapes are re-derived canonically after clipping, so every candidate
    stays feasible. Fully reproducible from the params' seed.
    """
    rng = random.Random(params.rng_seed)
    best = seed
    best_time = profile(seed)
    trace = [(seed, best_time)]
    improvements = 0
    for _ in range(params.trials):
        d_gpu = rng.randint(-params.radius, params.radius)
        d_nic = rng.randint(-params.radius, params.radius)
        gpus = min(max(best.attn_gpus + d_gpu, 1), total_gpus - 1)
        nics = min(max(best.attn_nics + d_nic, 1), total_nics - 1)
        if equal_nics:
            nics = total_nics // 2
        cand = canonical_allocation(gpus, nics, total_gpus, total_nics, node_size_max)
        t = profile(cand)
        trace.append((cand, t))
        if t < best_time:
            best, best_time = cand, t
            improvements += 1
    return best, best_time, improvements, trace


def af_iteration_profile(exp: Experiment):
    """Deterministic profile function: simulated disaggregated iteration time.

    Memoized on the (M, N, M_a, M_f) split, which fully determines the
    simulated durations.
    """
    af_exp = replace(exp, schedule_kind=ScheduleKind.AFPIPE)
    cache: dict[tuple[int, int, int, int], float] = {}

    def profile(alloc: Allocation) -> float:
        key = (alloc.attn_gpus, alloc.ffn_gpus, alloc.attn_nics, alloc.ffn_nics)
        if key not in cache:
            _, result = simulate(build_task_graph(af_exp, alloc))
            cache[key] = result.iteration_time
        return cache[key]

    return profile


def allocate(
    exp: Experiment,
    params: AllocatorParams | None = None,
    equal_nics: bool = False,
) -> AllocationReport:
    """Run all three phases; the profile oracle is the pipeline simulator."""
    params = params or AllocatorParams()
    cands = enumerate_feasible(
        exp.cluster.total_gpus, exp.cluster.total_nics, exp.cluster.gpus_per_node, equal_nics
    )
    _, band = phase1_min_bottleneck(cands, exp, params.epsilon)
    seed = phase2_tiebreak(band, exp)
    profile = af_iteration_profile(exp)
    best, t_star, improvements, trace = phase3_refine(
        seed,
        params,
        profile,
        exp.cluster.total_gpus,
        exp.cluster.total_nics,
        exp.cluster.gpus_per_node,
        equal_nics,
    )
    return AllocationReport(
        best=best,
        t_star=t_star,
        phase1_set_size=len(band),
        seed_alloc=seed,
        refine_improvements=improvements,
        objective_trace=trace,
    )


def brute_force_oracle(
    exp: Experiment,
    cap: int = 100_000,
    equal_nics: bool = False,
) -> tuple[Allocation, float]:
    """Profile every feasible allocation; exact argmin, canonical tie-break."""
    cands = enumerate_feasible(
        exp.cluster.total_gpus, exp.cluster.total_nics, exp.cluster.gpus_per_node, equal_nics
    )
    if len(cands) > cap:
        raise SearchSpaceTooLarge(f"{len(cands)} candidates exceed the cap of {cap}")
    profile = af_iteration_profile(exp)
    best = None
    best_time = None
    for cand in cands:
        t = profile(cand)
        if best_time is None or t < best_time:
            best, best_time = cand, t
    return best, best_time


def default_allocation(exp: Experiment, equal_nics: bool = False) -> Allocation:
    """Analytic seed (phases 1 and 2 only); the CLI default when none is given."""
    cands = enumerate_feasible(
        exp.cluster.total_gpus, exp.cluster.total_nics, exp.cluster.gpus_per_node, equal_nics
    )
    _, band = phase1_min_bottleneck(cands, exp, AllocatorParams().epsilon)
    return phase2_tiebreak(band, exp)
