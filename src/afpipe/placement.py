"""Interleaved layer-to-group assignment and per-GPU memory estimates.

Group g of a component owns layers {g, g+p, g+2p, ...}: every p-th occurrence
of that component across depth. Attention groups replicate their layers over
the group's GPUs (data parallel); FFN groups shard experts across theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import ModelConfig, Workload

ATTN = "A"
FFN = "F"
OPTIMIZER_BYTES_PER_PARAM = 8.0  # an fp32 moment pair
PARAM_BYTES_PER_ELEMENT = 2


class InvalidDepth(ValueError):
    pass


@dataclass(frozen=True)
class PlacementPlan:
    component: str  # "A" or "F"
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    pipeline_depth: int
    virtual_stages: int  # layers held by the largest group
    # The final layer's output embedding lives with that layer's FFN block;
    # recorded here, cost-free in this version.
    output_embedding_group: int | None = None


@dataclass(frozen=True)
class MemoryEstimate:
    param_bytes: float
    optimizer_bytes: float
    activation_bytes: float
    total: float


def assign_layers(num_layers: int, depth: int, component: str) -> PlacementPlan:
    """Build the interleaved plan; group g gets {g, g+depth, ...} below L."""
    if component not in (ATTN, FFN):
        raise ValueError(f"component must be '{ATTN}' or '{FFN}', got {component!r}")
    if depth < 1 or depth > num_layers:
        raise InvalidDepth(f"depth must satisfy 1 <= depth <= layers, got depth={depth}, layers={num_layers}")
    groups = tuple((g, tuple(range(g, num_layers, depth))) for g in range(depth))
    return PlacementPlan(
        component=component,
        groups=groups,
        pipeline_depth=depth,
        virtual_stages=len(groups[0][1]),
        output_embedding_group=(num_layers - 1) % depth if component == FFN else None,
    )


def credit(num_layers: int, group: int, component: str) -> int:
    """1F1B credit of a group: how many micro-batches it may hold in flight.

    It counts the forward visits at or after the group's first one in the
    chain A0 F0 A1 F1 ... (2L visits; group g of attention first appears at
    2g, of FFN at 2g + 1), and is at least one.
    """
    return max(1, 2 * num_layers - (2 * group + (0 if component == ATTN else 1)))


def validate_partition(plan: PlacementPlan, num_layers: int) -> list[str]:
    """Check disjoint cover of [0, L) and group sizes differing by at most 1."""
    violations: list[str] = []
    seen: set[int] = set()
    for _, layers in plan.groups:
        for layer in layers:
            if layer in seen:
                violations.append(f"duplicate layer {layer}")
            seen.add(layer)
            if not 0 <= layer < num_layers:
                violations.append(f"layer {layer} out of range [0, {num_layers})")
    for layer in range(num_layers):
        if layer not in seen:
            violations.append(f"uncovered layer {layer}")
    sizes = [len(layers) for _, layers in plan.groups]
    if sizes and max(sizes) - min(sizes) > 1:
        violations.append(f"group sizes differ by more than one: {sizes}")
    return violations


def memory_estimate(
    plan: PlacementPlan, model: ModelConfig, workload: Workload, alloc
) -> MemoryEstimate:
    """Per-GPU memory for the plan's largest group.

    Attention parameters (QKV and output projections, H^2*(2+2/g) + H^2
    elements per layer) are replicated on every GPU of the group; FFN expert
    parameters (E*2*H*D_e elements per layer) are sharded evenly across the
    group's GPUs. Each parameter takes PARAM_BYTES_PER_ELEMENT bytes, plus
    OPTIMIZER_BYTES_PER_PARAM of optimizer state. Activations count one
    hidden-state tensor per assigned layer per in-flight micro-batch, at
    most the group's 1F1B credit.
    """
    layers = plan.virtual_stages
    h, g = model.hidden, model.gqa_group
    if plan.component == ATTN:
        per_layer_elems = Fraction(2 * (g + 1), g) * h * h + h * h
        param_elems = float(layers * per_layer_elems)
    else:
        gpus_per_group = alloc.ffn_gpus / plan.pipeline_depth
        per_layer_elems = model.experts * 2 * h * model.moe_hidden
        param_elems = layers * per_layer_elems / gpus_per_group

    param_bytes = param_elems * PARAM_BYTES_PER_ELEMENT
    optimizer_bytes = param_elems * OPTIMIZER_BYTES_PER_PARAM

    hidden_bytes = model.bytes_per_element * workload.micro_batch * workload.seq_len * h
    num_layers = sum(len(group_layers) for _, group_layers in plan.groups)
    in_flight = min(workload.num_microbatches, credit(num_layers, 0, plan.component))
    activation_bytes = float(layers * hidden_bytes * in_flight)

    return MemoryEstimate(
        param_bytes=param_bytes,
        optimizer_bytes=optimizer_bytes,
        activation_bytes=activation_bytes,
        total=param_bytes + optimizer_bytes + activation_bytes,
    )


def oom_check(estimate: MemoryEstimate, capacity_bytes: float) -> bool:
    """True iff the estimate exceeds capacity; an exact fit is allowed."""
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    return estimate.total > capacity_bytes
