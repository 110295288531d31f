"""Closed-form compute, communication, and roofline model.

All per-layer quantities are forward-pass, per micro-batch. FLOPs and bytes
are kept as exact integers (or `Fraction` where a formula is not integral) so
the intensity identities C_a = I_attn * V and C_f = I_ffn * V hold exactly;
times are 64-bit floats. Integer arithmetic is arbitrary precision, so the
counts cannot overflow or wrap.

The closed forms, with symbols (L, H, E, k, D_e, g, s, b, e):

    C_a = b * (s*H^2*(2 + 2/g) + 4*s^2*H)        attention GEMMs + score/AV
    C_f = 4 * b * k * s * H * D_e                two grouped GEMMs on k*s tokens
    V   = e * b * s * k * H                      one direction of token exchange
    I_attn = (H*(2 + 2/g) + 4*s) / (2*k)         with e = 2
    I_ffn  = 2 * D_e

Gate/router FLOPs, normalization, and activation functions are ignored; only
inter-node (IB) bandwidth is costed, NVLink transfers are treated as free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .config import ClusterConfig, ModelConfig, Workload

Number = Union[int, Fraction]

# Backward compute costs this multiple of the forward pass.
BACKWARD_MULTIPLIER = 2.0


@dataclass(frozen=True)
class CostBreakdown:
    """Per-layer costs plus the intensities and turning points they imply."""

    attn_flops: Number
    ffn_flops: Number
    comm_bytes: Number
    i_attn: Number
    i_ffn: Number
    turning_point: float
    eff_turn_attn: float
    eff_turn_ffn: float


@dataclass(frozen=True)
class StageTimes:
    """Seconds per layer for the five schedule building blocks."""

    t_attn: float
    t_ffn: float
    t_a2a: float
    t_m2n: float
    t_p2p: float


@dataclass(frozen=True)
class LayerCosts:
    """Raw per-layer, per-micro-batch costs consumed by stage_times."""

    attn_flops: Number
    ffn_flops: Number
    m2n_bytes: Number
    a2a_bytes_per_gpu: Number
    hidden_bytes: Number


def _exact(x: Number) -> Number:
    """Collapse integral-valued Fractions back to int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def attention_flops(model: ModelConfig, workload: Workload) -> Number:
    """b*(s*H^2*(2+2/g) + 4*s^2*H); exact (int unless g does not divide)."""
    s, h, g, b = workload.seq_len, model.hidden, model.gqa_group, workload.micro_batch
    return _exact(b * (Fraction(2 * (g + 1), g) * s * h * h + 4 * s * s * h))


def ffn_flops(model: ModelConfig, workload: Workload) -> int:
    """4*b*k*s*H*D_e."""
    return 4 * workload.micro_batch * model.topk * workload.seq_len * model.hidden * model.moe_hidden


def m2n_comm_bytes(model: ModelConfig, workload: Workload) -> int:
    """One direction of the attention<->FFN token exchange: e*b*s*k*H."""
    return (
        model.bytes_per_element
        * workload.micro_batch
        * workload.seq_len
        * model.topk
        * model.hidden
    )


def ep_a2a_bytes_per_gpu(model: ModelConfig, workload: Workload, ep_size: int) -> Number:
    """Expected per-GPU all-to-all volume under expert parallelism.

    ((EP-1)/EP) * e*b*s*k*H: each GPU exchanges the share of routed tokens
    whose experts live on other ranks. EP=1 keeps everything local.
    """
    if ep_size < 1:
        raise ValueError(f"ep_size must be >= 1, got {ep_size}")
    return _exact(Fraction(ep_size - 1, ep_size) * m2n_comm_bytes(model, workload))


def arithmetic_intensities(model: ModelConfig, workload: Workload) -> tuple[Number, Number]:
    """(I_attn, I_ffn) as exact rationals; equals C/V when e = 2."""
    h, g, k = model.hidden, model.gqa_group, model.topk
    s = workload.seq_len
    i_attn = Fraction(Fraction(2 * (g + 1), g) * h + 4 * s, 2 * k)
    return _exact(i_attn), 2 * model.moe_hidden


def turning_points(cluster: ClusterConfig, attn_nodes: int, ffn_nodes: int) -> tuple[float, float, float]:
    """System turning point P/B_IB and the per-component effective pair.

    The split scales each side's compute roof by its node share while both
    sides see the same balanced bandwidth, so the effective points are
    2m/(m+n) and 2n/(m+n) times the system point. The FFN value is computed
    as the complement so the sum identity 2*I_hat holds exactly in floats.
    """
    if attn_nodes < 1 or ffn_nodes < 1:
        raise ValueError("node counts must be >= 1")
    i_hat = cluster.gpu_peak / cluster.ib_bw
    i_attn = 2.0 * attn_nodes / (attn_nodes + ffn_nodes) * i_hat
    i_ffn = 2.0 * i_hat - i_attn
    return i_hat, i_attn, i_ffn


def roofline_attainable(intensity: Number, peak_flops: float, bandwidth: float) -> float:
    """Attainable throughput min(P, I*B) in FLOPs/s."""
    return min(float(peak_flops), float(intensity) * float(bandwidth))


def backward_scale(flops_fwd: Number, multiplier: float = BACKWARD_MULTIPLIER) -> float:
    """Backward-pass FLOPs as a multiple of forward FLOPs."""
    if flops_fwd < 0:
        raise ValueError("forward FLOPs must be >= 0")
    return float(flops_fwd) * multiplier


def layer_costs(model: ModelConfig, workload: Workload, ep_size: int = 1) -> LayerCosts:
    return LayerCosts(
        attn_flops=attention_flops(model, workload),
        ffn_flops=ffn_flops(model, workload),
        m2n_bytes=m2n_comm_bytes(model, workload),
        a2a_bytes_per_gpu=ep_a2a_bytes_per_gpu(model, workload, ep_size),
        hidden_bytes=model.bytes_per_element * workload.micro_batch * workload.seq_len * model.hidden,
    )


def stage_times(costs: LayerCosts, alloc, cluster: ClusterConfig, pipeline_depth: int = 1) -> StageTimes:
    """Stage latencies: each side is the max of its compute and network time.

    `costs` carries whatever scale the caller wants (per layer, per group, or
    per iteration); `alloc` supplies the GPU counts (M, N) and NIC counts
    (M_a, M_f). The exchange between groups is gated by the slower side's
    NICs; dispatch and combine directions are full duplex and do not contend.
    """
    peak, ib = cluster.gpu_peak, cluster.ib_bw
    t_attn = max(
        float(costs.attn_flops) / (peak * alloc.attn_gpus),
        float(costs.m2n_bytes) / (alloc.attn_nics * ib),
    )
    t_ffn = max(
        float(costs.ffn_flops) / (peak * alloc.ffn_gpus),
        float(costs.m2n_bytes) / (alloc.ffn_nics * ib),
    )
    per_gpu_bw = cluster.total_nics * ib / cluster.total_gpus
    t_a2a = float(costs.a2a_bytes_per_gpu) / per_gpu_bw
    t_m2n = float(costs.m2n_bytes) / (min(alloc.attn_nics, alloc.ffn_nics) * ib)
    t_p2p = float(costs.hidden_bytes) / ((cluster.total_nics / pipeline_depth) * ib)
    return StageTimes(t_attn=t_attn, t_ffn=t_ffn, t_a2a=t_a2a, t_m2n=t_m2n, t_p2p=t_p2p)


def staged_layer_time(attn: float, ffn: float, a2a: float, overlap: bool) -> tuple[float, float]:
    """(latency, exposed all-to-all) of one layer in a staged baseline.

    Both exchanges (dispatch and combine) take `a2a` each. Without overlap
    they sit on the critical path; with operator-level overlap only the part
    not hidden behind expert compute, max(0, 2*a2a - ffn), does.
    """
    if overlap:
        return attn + max(ffn, 2.0 * a2a), max(0.0, 2.0 * a2a - ffn)
    return attn + ffn + 2.0 * a2a, 2.0 * a2a


def cost_breakdown(
    model: ModelConfig,
    workload: Workload,
    cluster: ClusterConfig,
    attn_nodes: int,
    ffn_nodes: int,
) -> CostBreakdown:
    """Assemble the per-layer breakdown with exact intensity identities.

    Intensities here are the exact ratios C/V (so the identities hold for any
    bytes_per_element); they coincide with arithmetic_intensities when e = 2.
    """
    c_a = attention_flops(model, workload)
    c_f = ffn_flops(model, workload)
    v = m2n_comm_bytes(model, workload)
    i_hat, eff_a, eff_f = turning_points(cluster, attn_nodes, ffn_nodes)
    return CostBreakdown(
        attn_flops=c_a,
        ffn_flops=c_f,
        comm_bytes=v,
        i_attn=_exact(Fraction(c_a) / v),
        i_ffn=_exact(Fraction(c_f, v)),
        turning_point=i_hat,
        eff_turn_attn=eff_a,
        eff_turn_ffn=eff_f,
    )
