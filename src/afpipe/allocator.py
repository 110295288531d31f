"""GPU/NIC allocation search for the disaggregated pipeline.

Three phases:
  1. enumerate every feasible split (M, M_a) of W GPUs and M_tot NICs and
     keep the set minimizing the analytic bottleneck max(T_a, T_f) (plus an
     epsilon band);
  2. break ties by the roofline objective: the summed attainable throughput
     of both sides under their NIC-lifted bandwidths (the MFU numerator at a
     fixed bottleneck);
  3. seeded local refinement that perturbs (M, M_a), clips it into the
     counts phase 1 walks, re-derives node shapes canonically, profiles the
     candidate with the pipeline simulator, and accepts strict improvements.

split_ranges states every rule on a split (1..W-1 GPUs and 1..M_tot-1 NICs
a side, M_tot/2 of an even count under equal_nics); canonical_allocation,
the one place a split is built, raises NoFeasible for any split they deny.

No objective reads a node shape, so a split is one candidate, carrying the
densest shape on each side (canonical_allocation). The search space is then
GPU splits x NIC splits, small enough at cluster scale for exact enumeration
to replace an integer-programming solver. The phase-1 set size and the
oracle's cap still count every (split, attention shape, FFN shape) triple,
summed from shape counts without building the copies. One cached tuple
per GPU count, _node_shapes, lists a side's shapes densest first for both.

Profiling plans once and re-times per duration table: a graph is its walk
(taskgraph.Walk: its tasks, keys and credits) plus the duration table it
was built under (TaskGraph.table), and a split changes only the table. So
one profile object (IterationProfile) per experiment walks its topology
once (Walk.of), one micro-batch of it (Walk.template), and keeps the walk's
sim.SchedulePlan in a sim.Retimer, which runs the plan once per distinct
table. The table reads the NICs only through min(M_a, M_f), so the splits
(M, M_a) and (M, M_tot - M_a) share one run. Phase 3 and brute_force_oracle
both re-time through it.

brute_force_oracle is exact without running every split. It goes
best-first (Land and Doig's branch and bound) over a ladder of lower bounds
on a split's makespan, each read by the profile's Retimer from the split's
durations over the graph's distinct keys; a split's key is the largest
price read so far, so each rung can only tighten it:
  * the lane bound (Retimer.lane_bound_ns). The graph fixes how many tasks
    of each distinct key sit on each (owner, lane), and no two tasks on one
    lane overlap, so each lane's summed duration bounds the makespan;
  * the dependency chain (Retimer.chain_ns), which pipeline fill sets at
    few micro-batches, where the lane bound is far below the makespan;
  * the head-tail bound (Retimer.head_tail_ns, after Carlier's heads and
    tails): a unit's copies each start after its head, queue on its lanes
    for its longest task each, and the last still has its tail to run;
  * the makespan itself (Retimer.makespan_ns), one plan run.
One heap holds a split's best price so far, keyed with its canonical
index. The least is popped: a time is the answer, and a bound is replaced
by the larger of it and the next rung's price. Every split left in the heap
takes at least its key, so the argmin and its canonical tie-break are those
of the exhaustive search.

With AFPIPE_LOG=DEBUG, logger afpipe.allocator logs each allocate and
brute_force_oracle run's profile calls, splits re-timed (plan runs, one per
distinct table; the other calls hit the memo), splits pruned (never timed
by the oracle) and plan builds. The oracle adds a second line: how many
splits the lane bound, the chain and the head-tail bound each priced last,
and how many were timed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache
from heapq import heapify, heappop, heappush

from .config import ClusterConfig, Experiment, ScheduleKind
from .costs import (
    LayerCosts, arithmetic_intensities, layer_costs, roofline_attainable, stage_times,
)
from .sim import Retimer, seconds
from .taskgraph import Walk, duration_table, graph_topology, visit_times
# Unused here, but bench/tracing.py patches allocator.assign_layers,
# allocator.simulate and allocator.build_task_graph.
from .placement import assign_layers  # noqa: F401
from .sim import simulate  # noqa: F401
from .taskgraph import build_task_graph  # noqa: F401


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


@cache
def _node_shapes(count: int, gpus_per_node: int) -> tuple[tuple[int, int], ...]:
    """Each (nodes, GPUs per node) holding count GPUs, at most gpus_per_node a node, densest first.

    The one list of node shapes, made once per GPU count: canonical_allocation
    takes the first and _shaped_size counts them.
    """
    return tuple((count // gpn, gpn) for gpn in range(min(count, gpus_per_node), 0, -1)
                 if count % gpn == 0)


def _shaped_size(cands: list[Allocation], gpus_per_node: int) -> int:
    """How many (split, attention shape, FFN shape) triples the splits in cands stand for."""
    return sum(len(_node_shapes(c.attn_gpus, gpus_per_node))
               * len(_node_shapes(c.ffn_gpus, gpus_per_node)) for c in cands)


def split_ranges(cluster: ClusterConfig, equal_nics: bool = False) -> tuple[range, range]:
    """The attention-side GPU and NIC counts a split of cluster may take.

    Each side keeps at least one GPU and one NIC, so attention takes 1..W-1
    GPUs and 1..M_tot-1 NICs; equal_nics gives each side M_tot/2 NICs of an
    even count. Raises NoFeasible when the cluster has no split at all.
    """
    total_gpus, total_nics = cluster.total_gpus, cluster.total_nics
    if total_gpus < 2 or total_nics < 2:
        raise NoFeasible(f"cannot split {total_gpus} GPUs / {total_nics} NICs into two groups")
    if cluster.gpus_per_node < 1:
        raise NoFeasible(f"no node shape has at most {cluster.gpus_per_node} GPUs per node")
    if equal_nics and total_nics % 2 != 0:
        raise NoFeasible(f"equal NIC split requires an even NIC count, got {total_nics}")
    half = total_nics // 2
    return range(1, total_gpus), range(half, half + 1) if equal_nics else range(1, total_nics)


def canonical_allocation(
    cluster: ClusterConfig, attn_gpus: int, attn_nics: int, equal_nics: bool = False
) -> Allocation:
    """The split (attn_gpus, attn_nics) of cluster, each side in its densest node shape.

    The one place a split is built: raises NoFeasible for any split that
    split_ranges does not admit.
    """
    gpus, nics = split_ranges(cluster, equal_nics)
    if attn_gpus not in gpus:
        raise NoFeasible(f"attention GPU count {attn_gpus} leaves no split")
    if attn_nics not in nics and equal_nics:
        raise NoFeasible(f"equal NIC split gives each side {nics[0]} NICs, got {attn_nics}")
    if attn_nics not in nics:
        raise NoFeasible(f"attention NIC count {attn_nics} leaves no split")
    m, mu = _node_shapes(attn_gpus, cluster.gpus_per_node)[0]
    n, nu = _node_shapes(cluster.total_gpus - attn_gpus, cluster.gpus_per_node)[0]
    return Allocation(
        attn_gpus=attn_gpus,
        ffn_gpus=cluster.total_gpus - attn_gpus,
        attn_nodes=m,
        ffn_nodes=n,
        attn_gpus_per_node=mu,
        ffn_gpus_per_node=nu,
        attn_nics=attn_nics,
        ffn_nics=cluster.total_nics - attn_nics,
    )


def enumerate_feasible(cluster: ClusterConfig, equal_nics: bool = False) -> list[Allocation]:
    """One allocation per feasible split (M, M_a), canonically ordered.

    Each carries canonical_allocation's densest node shapes, the shape that
    sorts first among a split's shapes. No objective reads the shape, so the
    other shapes are not built; _shaped_size counts them. Order: ascending
    attention GPUs, then attention NICs.
    """
    gpus, nics = split_ranges(cluster, equal_nics)
    return [
        canonical_allocation(cluster, attn_gpus, attn_nics, equal_nics)
        for attn_gpus in gpus
        for attn_nics in nics
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
    numerator once the bottleneck time is fixed. Ties keep canonical order:
    max returns the first maximal candidate of band.
    """
    if not band:
        raise NoFeasible("empty tie-break set")
    i_attn, i_ffn = arithmetic_intensities(exp.model, exp.workload)
    peak, ib = exp.cluster.gpu_peak, exp.cluster.ib_bw
    return max(band, key=lambda cand: (
        roofline_attainable(i_attn, peak * cand.attn_gpus, cand.attn_nics * ib)
        + roofline_attainable(i_ffn, peak * cand.ffn_gpus, cand.ffn_nics * ib)))


def phase3_refine(
    seed: Allocation,
    params: AllocatorParams,
    profile,
    cluster: ClusterConfig,
    equal_nics: bool = False,
) -> tuple[Allocation, float, int, list[tuple[Allocation, float]]]:
    """Exactly `trials` random perturbations of (M, M_a), keeping strict wins.

    Each perturbed count is clipped into the range enumerate_feasible walks
    (split_ranges) and node shapes are re-derived canonically, so every
    candidate stays feasible. Fully reproducible from the params' seed.
    """
    gpus, nics = split_ranges(cluster, equal_nics)
    radius = params.radius
    rng = random.Random(params.rng_seed)
    best = seed
    best_time = profile(seed)
    trace = [(seed, best_time)]
    improvements = 0
    for _ in range(params.trials):
        attn_gpus = min(max(best.attn_gpus + rng.randint(-radius, radius), gpus[0]), gpus[-1])
        attn_nics = min(max(best.attn_nics + rng.randint(-radius, radius), nics[0]), nics[-1])
        cand = canonical_allocation(cluster, attn_gpus, attn_nics, equal_nics)
        t = profile(cand)
        trace.append((cand, t))
        if t < best_time:
            best, best_time = cand, t
            improvements += 1
    return best, best_time, improvements, trace


class IterationProfile:
    """Simulated afpipe iteration time of each split of one experiment's cluster.

    Creating one walks the experiment's afpipe topology (Walk.of) and
    keeps the walk's plan in a Retimer (retimer): a split changes only the
    graph's table. durations(alloc) builds the split's table from the one
    LayerCosts through visit_times and duration_table, as build_task_graph
    does, and reads its durations over the walk's distinct keys
    (Retimer.ns). That tuple is all that the retimer reads of a split: the
    lane bound (lane_bound_ns), the dependency chain (chain_ns), the
    head-tail bound (head_tail_ns) and the plan run (makespan_ns). It
    memoizes the chain, the head-tail bound and the run on the tuple, so
    mirrored NIC splits share one of each. A call is the run's makespan in
    seconds, so it equals the iteration_time of
    simulate(build_task_graph(exp, alloc)) exactly.

    counts, when given, gathers the retimer's "calls", "retimed" (plan runs:
    distinct tables) and "plans" (plans built).
    """

    def __init__(self, exp: Experiment, counts: Counter | None = None):
        self.exp = replace(exp, schedule_kind=ScheduleKind.AFPIPE)
        self.costs = layer_costs(self.exp.model, self.exp.workload, self.exp.ep_size)
        self.retimer = Retimer(Walk.of(graph_topology(self.exp)), counts)

    def durations(self, alloc: Allocation) -> tuple[int, ...]:
        """The durations (ns) of the walk's distinct keys under alloc's table."""
        return self.retimer.ns(duration_table(self.exp, visit_times(self.exp, self.costs, alloc)))

    def __call__(self, alloc: Allocation) -> float:
        return seconds(self.retimer.makespan_ns(self.durations(alloc)))


# allocate profiles through this module attribute, which the benchmark's
# tracer (bench/tracing.py) wraps to count profile calls.
af_iteration_profile = IterationProfile


def _debug(message: str, *args) -> None:
    """Log message % args at DEBUG on logger afpipe.allocator."""
    # Imported here, as in sim._debug: a cold start that never
    # logs would otherwise pay for importing logging.
    import logging

    logging.getLogger("afpipe.allocator").debug(message, *args)


def _log_profile(verb: str, counts: Counter) -> None:
    _debug("%s: %d profile calls, %d splits re-timed, %d splits pruned, %d plan builds",
           verb, counts["calls"], counts["retimed"], counts["pruned"], counts["plans"])


def allocate(
    exp: Experiment,
    params: AllocatorParams | None = None,
    equal_nics: bool = False,
) -> AllocationReport:
    """Run all three phases; the profile oracle is the pipeline simulator."""
    params = params or AllocatorParams()
    cands = enumerate_feasible(exp.cluster, equal_nics)
    _, band = phase1_min_bottleneck(cands, exp, params.epsilon)
    seed = phase2_tiebreak(band, exp)
    counts = Counter()
    profile = af_iteration_profile(exp, counts)
    best, t_star, improvements, trace = phase3_refine(
        seed, params, profile, exp.cluster, equal_nics
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

    cap bounds the (split, attention shape, FFN shape) count. Each split's
    durations are read once. The search is best-first over a ladder of
    prices of a split: its lane bound, its dependency chain, its head-tail
    bound and, last, its time. One heap holds an entry per split, keyed
    (price, canonical index), the price being the largest read so far and
    the index following (attn_gpus, attn_nics), as enumerate_feasible does.
    The least entry is popped. If its price is the split's time, that split
    is the answer: every other split takes at least its own key, which is at
    least that time, and at an equal time its index is later. Otherwise the
    split's next rung is priced and the split pushed back under the larger
    of its key and that price. The head-tail rung is skipped when
    chain + (copies - 1) * max(ns) is at most the key, since then the
    head-tail bound cannot raise it. So the result is that of profiling
    every split. Times and bounds are compared in seconds, ns / 1e9, as the
    profile returns times.
    """
    cands = enumerate_feasible(exp.cluster, equal_nics)
    size = _shaped_size(cands, exp.cluster.gpus_per_node)
    if size > cap:
        raise SearchSpaceTooLarge(f"{size} candidates exceed the cap of {cap}")
    profile = IterationProfile(exp)
    retimer = profile.retimer
    copies = retimer.walk.copies
    # Each rung a lower bound on a split's makespan, but the last, which is its makespan.
    ladder = (retimer.lane_bound_ns, retimer.chain_ns, retimer.head_tail_ns, retimer.makespan_ns)
    head_tail, timed = 2, 3
    heap = []
    for index, cand in enumerate(cands):
        ns = profile.durations(cand)
        heap.append((seconds(retimer.lane_bound_ns(ns)), index, 0, ns))
    heapify(heap)
    while True:
        key, index, level, ns = heappop(heap)
        if level == timed:
            break
        level += 1
        if (level == head_tail
                and seconds(retimer.chain_ns(ns) + (copies - 1) * max(ns, default=0)) <= key):
            level += 1
        heappush(heap, (max(key, seconds(ladder[level](ns))), index, level, ns))
    retimer.counts["pruned"] = len(cands) - retimer.counts["calls"]
    _log_profile("brute_force_oracle", retimer.counts)
    last = Counter(entry[2] for entry in heap)
    _debug("brute_force_oracle: %d splits last priced by the lane bound, %d by the chain, "
           "%d by the head-tail bound, %d timed", last[0], last[1], last[2], last[timed] + 1)
    return cands[index], key


def default_allocation(exp: Experiment, equal_nics: bool = False) -> Allocation:
    """Analytic seed (phases 1 and 2 only); the CLI default when none is given."""
    cands = enumerate_feasible(exp.cluster, equal_nics)
    _, band = phase1_min_bottleneck(cands, exp, AllocatorParams().epsilon)
    return phase2_tiebreak(band, exp)
