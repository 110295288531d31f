"""GPU/NIC allocation search for the disaggregated pipeline.

Three phases:
  1. enumerate every feasible split (M, M_a) of W GPUs and M_tot NICs and
     keep the set minimizing the analytic bottleneck max(T_a, T_f) (plus an
     epsilon band);
  2. break ties by the roofline objective: the summed attainable throughput
     of both sides under their NIC-lifted bandwidths (the MFU numerator at a
     fixed bottleneck);
  3. seeded local refinement that perturbs (M, M_a), re-derives node shapes
     canonically, profiles the candidate with the pipeline simulator, and
     accepts strict improvements.

No objective reads a node shape, so a split is one candidate, carrying the
densest shape on each side (canonical_allocation). The search space is then
GPU splits x NIC splits, small enough at cluster scale for exact enumeration
to replace an integer-programming solver. The phase-1 set size and the
oracle's cap still count every (split, attention shape, FFN shape) triple,
summed from shape counts without building the copies.

Profiling plans once and re-times per split: the disaggregated task graph's
tasks, dependencies, owners, lanes and credits do not depend on the split,
only five task durations do. So one graph and its sim.SchedulePlan are
built per experiment, and each new split only derives its durations
(taskgraph.visit_times and afpipe_durations, as build_task_graph does) and
runs the plan: the same scheduler loop simulate runs, giving the same
makespan.

brute_force_oracle is exact without running every split. The plan fixes how
many tasks of each duration key sit on each (owner, lane), and no two tasks
on one lane overlap, so each lane's summed duration is a lower bound on a
split's makespan (sim.resource_bound_ns, with no graph). The oracle visits
splits in bound order and runs the plan only while the bound is at most the
best time found: every split it skips takes longer than that time, so the
argmin and its canonical tie-break are those of the exhaustive search.

With AFPIPE_LOG=DEBUG, logger afpipe.allocator logs each allocate and
brute_force_oracle run's profile calls, splits re-timed, splits pruned and
plan builds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace

from .config import Experiment, ScheduleKind
from .costs import LayerCosts, arithmetic_intensities, layer_costs, roofline_attainable, stage_times
from .sim import SchedulePlan, seconds
from .taskgraph import afpipe_durations, build_task_graph, visit_times
# Unused here, but bench/tracing.py patches allocator.assign_layers and
# allocator.simulate.
from .placement import assign_layers  # noqa: F401
from .sim import simulate  # noqa: F401


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


def _shape_count(count: int, node_size_max: int) -> int:
    """How many (nodes, gpus_per_node) pairs with gpus_per_node <= node_size_max hold count GPUs."""
    return sum(1 for gpn in range(1, min(count, node_size_max) + 1) if count % gpn == 0)


def _shaped_size(cands: list[Allocation], node_size_max: int) -> int:
    """How many (split, attention shape, FFN shape) triples the splits in cands stand for."""
    return sum(
        _shape_count(c.attn_gpus, node_size_max) * _shape_count(c.ffn_gpus, node_size_max)
        for c in cands
    )


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
    """One allocation per feasible split (M, M_a), canonically ordered.

    Each carries canonical_allocation's densest node shapes, the shape that
    sorts first among a split's shapes. No objective reads the shape, so the
    other shapes are not built; _shaped_size counts them. Order: ascending
    attention GPUs, then attention NICs.
    """
    if total_gpus < 2 or total_nics < 2:
        raise NoFeasible(
            f"cannot split {total_gpus} GPUs / {total_nics} NICs into two groups"
        )
    if equal_nics and total_nics % 2 != 0:
        raise NoFeasible(f"equal NIC split requires an even NIC count, got {total_nics}")
    if node_size_max < 1:
        raise NoFeasible(f"no node shape has at most {node_size_max} GPUs per node")
    nic_splits = [total_nics // 2] if equal_nics else range(1, total_nics)
    return [
        canonical_allocation(attn_gpus, attn_nics, total_gpus, total_nics, node_size_max)
        for attn_gpus in range(1, total_gpus)
        for attn_nics in nic_splits
    ]


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


class _Retimer:
    """One experiment's afpipe SchedulePlan, re-timed per split.

    The first split whose durations are asked for builds the graph and its
    plan; every split then runs that plan under its own durations. keys
    holds each task's afpipe_durations key in plan order, and lanes the
    (key, task count) pairs of each (owner, lane). Plans built are counted
    in counts["plans"].
    """

    def __init__(self, exp: Experiment, counts: Counter):
        self.exp = replace(exp, schedule_kind=ScheduleKind.AFPIPE)
        self.costs = layer_costs(self.exp.model, self.exp.workload, self.exp.ep_size)
        self.counts = counts
        self.plan: SchedulePlan | None = None
        self.keys: list[tuple] = []
        self.lanes: list[tuple[tuple[tuple, int], ...]] = []

    def durations(self, alloc: Allocation) -> dict[tuple, int]:
        """alloc's task durations (ns) by afpipe_durations key."""
        times = visit_times(self.exp, self.costs, alloc)
        if self.plan is None:
            self.plan = SchedulePlan(build_task_graph(self.exp, times=times))
            self.keys = [(t.kind, t.component) for t in self.plan.tasks]
            lanes: dict[tuple[str, str], Counter] = {}
            for task, key in zip(self.plan.tasks, self.keys):
                lanes.setdefault((task.owner, task.lane), Counter())[key] += 1
            self.lanes = [tuple(lane.items()) for lane in lanes.values()]
            self.counts["plans"] += 1
        return afpipe_durations(times)

    def lane_bound_ns(self, durations: dict[tuple, int]) -> int:
        """The largest summed duration of one (owner, lane): sim.resource_bound_ns."""
        return max(
            (sum(durations[key] * n for key, n in lane) for lane in self.lanes), default=0
        )

    def makespan_ns(self, durations: dict[tuple, int]) -> int:
        return self.plan.run([durations[key] for key in self.keys])[1]


def af_iteration_profile(exp: Experiment, counts: Counter | None = None):
    """Deterministic profile function: simulated disaggregated iteration time.

    Memoized on the (M, N, M_a, M_f) split, which fully determines the
    simulated durations. The first split profiled builds the afpipe graph
    and its SchedulePlan; every split, that one included, is re-timed: its
    five task durations come from the experiment's one LayerCosts through
    visit_times and afpipe_durations, which build_task_graph also uses, and
    the plan runs under them. The plan reads only what the split does not
    change (ids, deps, twins, owners, lanes, kinds, micro-batch, virtual
    index, component and credits), so a profile equals
    simulate(build_task_graph(exp, alloc))[1].iteration_time exactly.

    counts, when given, gathers "calls", "retimed" (cache misses) and
    "plans" (plans built).
    """
    counts = Counter() if counts is None else counts
    retimer = _Retimer(exp, counts)
    cache: dict[tuple[int, int, int, int], float] = {}

    def profile(alloc: Allocation) -> float:
        counts["calls"] += 1
        key = (alloc.attn_gpus, alloc.ffn_gpus, alloc.attn_nics, alloc.ffn_nics)
        if key not in cache:
            cache[key] = seconds(retimer.makespan_ns(retimer.durations(alloc)))
            counts["retimed"] += 1
        return cache[key]

    return profile


def _log_profile(verb: str, counts: Counter) -> None:
    # Imported here, as in sim.SchedulePlan.run: a cold start that never
    # logs would otherwise pay for importing logging.
    import logging

    logging.getLogger("afpipe.allocator").debug(
        "%s: %d profile calls, %d splits re-timed, %d splits pruned, %d plan builds",
        verb, counts["calls"], counts["retimed"], counts["pruned"], counts["plans"],
    )


def _candidates(exp: Experiment, equal_nics: bool) -> list[Allocation]:
    """enumerate_feasible over exp's cluster."""
    cluster = exp.cluster
    return enumerate_feasible(
        cluster.total_gpus, cluster.total_nics, cluster.gpus_per_node, equal_nics
    )


def allocate(
    exp: Experiment,
    params: AllocatorParams | None = None,
    equal_nics: bool = False,
) -> AllocationReport:
    """Run all three phases; the profile oracle is the pipeline simulator."""
    params = params or AllocatorParams()
    _, band = phase1_min_bottleneck(_candidates(exp, equal_nics), exp, params.epsilon)
    seed = phase2_tiebreak(band, exp)
    counts = Counter()
    profile = af_iteration_profile(exp, counts)
    best, t_star, improvements, trace = phase3_refine(
        seed,
        params,
        profile,
        exp.cluster.total_gpus,
        exp.cluster.total_nics,
        exp.cluster.gpus_per_node,
        equal_nics,
    )
    _log_profile("allocate", counts)
    return AllocationReport(
        best=best,
        t_star=t_star,
        phase1_set_size=_shaped_size(band, exp.cluster.gpus_per_node),
        seed_alloc=seed,
        refine_improvements=improvements,
        objective_trace=trace,
    )


def brute_force_oracle(
    exp: Experiment,
    cap: int = 100_000,
    equal_nics: bool = False,
) -> tuple[Allocation, float]:
    """Exact argmin of the profiled time over every feasible split, canonical tie-break.

    cap bounds the (split, attention shape, FFN shape) count. Splits are
    visited by ascending lane bound, canonical order among equal bounds, and
    the plan runs only while the bound is at most the best time so far; the
    splits left take longer than the best, so the result is that of
    profiling every split. Times are compared as the profile returns them,
    makespan / 1e9.
    """
    cands = _candidates(exp, equal_nics)
    size = _shaped_size(cands, exp.cluster.gpus_per_node)
    if size > cap:
        raise SearchSpaceTooLarge(f"{size} candidates exceed the cap of {cap}")
    counts = Counter()
    retimer = _Retimer(exp, counts)
    bounded = []
    for cand in cands:
        durations = retimer.durations(cand)
        bounded.append((seconds(retimer.lane_bound_ns(durations)), cand, durations))
    # Stable: equal bounds keep the canonical order of cands.
    bounded.sort(key=lambda entry: entry[0])
    best = None
    best_time = None
    retimed = 0
    for bound, cand, durations in bounded:
        if best_time is not None and bound > best_time:
            break
        t = seconds(retimer.makespan_ns(durations))
        if best_time is None or t < best_time or (
            t == best_time and cand.sort_key() < best.sort_key()
        ):
            best, best_time = cand, t
        retimed += 1
    counts.update(calls=retimed, retimed=retimed, pruned=len(cands) - retimed)
    _log_profile("brute_force_oracle", counts)
    return best, best_time


def default_allocation(exp: Experiment, equal_nics: bool = False) -> Allocation:
    """Analytic seed (phases 1 and 2 only); the CLI default when none is given."""
    _, band = phase1_min_bottleneck(_candidates(exp, equal_nics), exp, AllocatorParams().epsilon)
    return phase2_tiebreak(band, exp)
