import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afpipe.config import ClusterConfig, ModelConfig, Workload
from afpipe.costs import (
    arithmetic_intensities,
    attention_flops,
    cost_breakdown,
    ep_a2a_bytes_per_gpu,
    ffn_flops,
    layer_costs,
    m2n_comm_bytes,
    roofline_attainable,
    stage_times,
    turning_points,
)


def _model(**kw):
    base = dict(layers=4, hidden=1024, experts=16, topk=2, moe_hidden=512, gqa_group=8)
    base.update(kw)
    return ModelConfig(**base)


def _workload(**kw):
    base = dict(seq_len=1024, micro_batch=1, num_microbatches=4)
    base.update(kw)
    return Workload(**base)


class _Alloc:
    def __init__(self, attn_gpus, ffn_gpus, attn_nics, ffn_nics):
        self.attn_gpus = attn_gpus
        self.ffn_gpus = ffn_gpus
        self.attn_nics = attn_nics
        self.ffn_nics = ffn_nics


# Frozen expected values computed by direct evaluation of the closed forms
# with exact rational arithmetic, independently of the implementation.

def test_attention_flops_value():
    assert attention_flops(_model(), _workload()) == 6_710_886_400


def test_attention_flops_zero_seq():
    assert attention_flops(_model(), _workload(seq_len=0)) == 0


def test_attention_flops_linear_in_batch():
    one = attention_flops(_model(), _workload(micro_batch=1))
    two = attention_flops(_model(), _workload(micro_batch=2))
    assert two == 2 * one


def test_ffn_flops_value():
    assert ffn_flops(_model(), _workload()) == 4_294_967_296


def test_ffn_flops_no_routing():
    assert ffn_flops(_model(topk=0), _workload()) == 0


def test_ffn_flops_unit_case():
    m = _model(hidden=1, topk=1, moe_hidden=1)
    assert ffn_flops(m, _workload(seq_len=1)) == 4


def test_m2n_bytes_value():
    assert m2n_comm_bytes(_model(), _workload()) == 4_194_304


def test_m2n_bytes_zero_topk():
    assert m2n_comm_bytes(_model(topk=0), _workload()) == 0


def test_m2n_bytes_scale_with_element_size():
    two = m2n_comm_bytes(_model(bytes_per_element=2), _workload())
    four = m2n_comm_bytes(_model(bytes_per_element=4), _workload())
    assert four == 2 * two


def test_ep_a2a_local_experts():
    assert ep_a2a_bytes_per_gpu(_model(), _workload(), 1) == 0


def test_ep_a2a_two_way_split():
    assert ep_a2a_bytes_per_gpu(_model(), _workload(), 2) == 2_097_152


def test_ep_a2a_approaches_full_exchange_volume():
    m, w = _model(), _workload()
    full = m2n_comm_bytes(m, w)
    wide = ep_a2a_bytes_per_gpu(m, w, 10**6)
    assert wide < full
    assert float(wide) >= 0.999999 * full


def test_ep_a2a_monotone_and_bounded():
    m, w = _model(), _workload()
    full = m2n_comm_bytes(m, w)
    prev = -1
    for ep in range(1, 64):
        cur = ep_a2a_bytes_per_gpu(m, w, ep)
        assert prev < cur or (ep == 1 and cur == 0)
        assert cur <= full
        prev = cur


def test_intensity_values():
    i_attn, i_ffn = arithmetic_intensities(_model(), _workload())
    assert i_attn == 1600
    assert arithmetic_intensities(_model(moe_hidden=1408), _workload())[1] == 2816
    assert i_ffn == 1024


def test_intensity_monotonicity_in_seq_len():
    previous = None
    for s in (128, 512, 2048, 8192):
        i_attn, i_ffn = arithmetic_intensities(_model(), _workload(seq_len=s))
        if previous is not None:
            assert i_attn > previous[0]
            assert i_ffn == previous[1]
        previous = (i_attn, i_ffn)


@given(
    hidden=st.integers(1, 1 << 14),
    gqa=st.integers(1, 16),
    seq=st.integers(1, 1 << 16),
    topk=st.integers(1, 16),
    batch=st.integers(1, 8),
    moe_hidden=st.integers(1, 1 << 14),
)
@settings(max_examples=200)
def test_intensity_identities_exact(hidden, gqa, seq, topk, batch, moe_hidden):
    # With e=2 the closed-form intensities equal C/V exactly, as rationals.
    m = _model(hidden=hidden, gqa_group=gqa, topk=topk, moe_hidden=moe_hidden, experts=max(16, topk))
    w = _workload(seq_len=seq, micro_batch=batch)
    i_attn, i_ffn = arithmetic_intensities(m, w)
    v = m2n_comm_bytes(m, w)
    assert attention_flops(m, w) == i_attn * v
    assert ffn_flops(m, w) == i_ffn * v


def _cluster(peak=1e12, ib=1e11):
    return ClusterConfig(total_gpus=4, gpus_per_node=4, total_nics=4, gpu_peak=peak, ib_bw=ib)


def test_turning_points_symmetric():
    i_hat, i_a, i_f = turning_points(_cluster(), 3, 3)
    assert i_a == i_hat == i_f


def test_turning_points_three_to_one():
    i_hat, i_a, i_f = turning_points(_cluster(peak=1e13, ib=1e11), 3, 1)
    assert i_hat == 100.0
    assert i_a == 150.0
    assert i_f == 50.0


@given(m=st.integers(1, 512), n=st.integers(1, 512))
@settings(max_examples=300)
def test_turning_point_sum_identity(m, n):
    i_hat, i_a, i_f = turning_points(_cluster(), m, n)
    assert i_a + i_f == 2.0 * i_hat


def test_roofline_at_turning_point():
    assert roofline_attainable(10.0, 1e12, 1e11) == 1e12


def test_roofline_below_turning_point():
    assert roofline_attainable(5.0, 1e12, 1e11) == 0.5e12


def test_roofline_clamped_above():
    assert roofline_attainable(1e9, 1e12, 1e11) == 1e12


def test_stage_times_worked_example():
    costs = layer_costs(_model(), _workload())
    assert costs.attn_flops == 6_710_886_400 and costs.m2n_bytes == 4_194_304
    t = stage_times(costs, _Alloc(2, 2, 1, 3), _cluster())
    assert t.t_attn == pytest.approx(3.3554432e-3, rel=1e-12)
    # Compute term 3.3554e-3 dominates the network term 4.1943e-5.
    assert t.t_attn == max(3.3554432e-3, 4.194304e-5)


def test_stage_times_network_bound_limit():
    base = layer_costs(_model(), _workload())
    no_compute = type(base)(0, 0, base.m2n_bytes, base.a2a_bytes_per_gpu, base.hidden_bytes)
    t = stage_times(no_compute, _Alloc(2, 2, 1, 3), _cluster())
    assert t.t_attn == base.m2n_bytes / (1 * 1e11)


def test_stage_times_compute_bound_limit():
    base = layer_costs(_model(), _workload())
    no_comm = type(base)(base.attn_flops, base.ffn_flops, 0, 0, 0)
    t = stage_times(no_comm, _Alloc(2, 2, 1, 3), _cluster())
    assert t.t_attn == float(base.attn_flops) / (1e12 * 2)


def test_stage_times_m2n_uses_bottleneck_nics():
    costs = layer_costs(_model(), _workload())
    t = stage_times(costs, _Alloc(2, 2, 1, 3), _cluster())
    assert t.t_m2n == float(costs.m2n_bytes) / (1 * 1e11)


def test_cost_breakdown_identities_hold_for_any_element_size():
    m = _model(bytes_per_element=4)
    bd = cost_breakdown(m, _workload(), _cluster(), 2, 2)
    assert bd.attn_flops == bd.i_attn * bd.comm_bytes
    assert bd.ffn_flops == bd.i_ffn * bd.comm_bytes
    assert bd.eff_turn_attn + bd.eff_turn_ffn == 2.0 * bd.turning_point


def test_pure_functions_are_reproducible():
    m, w = _model(), _workload()
    assert attention_flops(m, w) == attention_flops(m, w)
    assert arithmetic_intensities(m, w) == arithmetic_intensities(m, w)
