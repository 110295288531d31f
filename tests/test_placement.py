import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afpipe.config import ClusterConfig, Experiment, ModelConfig, ScheduleKind, Workload
from afpipe.placement import (
    ATTN,
    FFN,
    InvalidDepth,
    PlacementPlan,
    assign_layers,
    credit,
    memory_estimate,
    oom_check,
    validate_partition,
)
from afpipe.taskgraph import build_task_graph


class _Alloc:
    def __init__(self, attn_gpus=4, ffn_gpus=4, attn_nics=2, ffn_nics=2):
        self.attn_gpus = attn_gpus
        self.ffn_gpus = ffn_gpus
        self.attn_nics = attn_nics
        self.ffn_nics = ffn_nics


def test_worked_example_eight_layers_depth_two():
    plan = assign_layers(8, 2, ATTN)
    assert plan.groups == ((0, (0, 2, 4, 6)), (1, (1, 3, 5, 7)))


def test_single_group_degenerate_depth():
    plan = assign_layers(5, 1, ATTN)
    assert plan.groups == ((0, (0, 1, 2, 3, 4)),)
    assert plan.virtual_stages == 5


def test_uneven_split_sizes_differ_by_one():
    plan = assign_layers(7, 2, FFN)
    sizes = sorted(len(layers) for _, layers in plan.groups)
    assert sizes == [3, 4]


def test_invalid_depths_rejected():
    with pytest.raises(InvalidDepth):
        assign_layers(4, 5, ATTN)
    with pytest.raises(InvalidDepth):
        assign_layers(4, 0, ATTN)


def test_output_embedding_recorded_on_ffn_side():
    assert assign_layers(8, 3, FFN).output_embedding_group == 7 % 3
    assert assign_layers(8, 3, ATTN).output_embedding_group is None


def test_validate_partition_accepts_constructed_plans():
    assert validate_partition(assign_layers(9, 4, ATTN), 9) == []


def test_validate_partition_flags_duplicates():
    plan = PlacementPlan(ATTN, ((0, (0, 1, 3)), (1, (3, 2))), 2, 3)
    violations = validate_partition(plan, 4)
    assert any("duplicate layer 3" in v for v in violations)


def test_validate_partition_flags_uncovered():
    plan = PlacementPlan(ATTN, ((0, (1, 2)), (1, (3,))), 2, 2)
    violations = validate_partition(plan, 4)
    assert any("uncovered layer 0" in v for v in violations)


def test_validate_partition_flags_imbalance():
    plan = PlacementPlan(ATTN, ((0, (0, 1, 2)), (1, (3,))), 2, 3)
    assert any("differ by more than one" in v for v in validate_partition(plan, 4))


@given(layers=st.integers(1, 256), data=st.data())
@settings(max_examples=300, deadline=None)
def test_partition_properties(layers, data):
    depth = data.draw(st.integers(1, layers))
    plan = assign_layers(layers, depth, ATTN)
    assert validate_partition(plan, layers) == []
    # Membership closed form: layer l sits in group l mod depth.
    for gid, group_layers in plan.groups:
        for layer in group_layers:
            assert layer % depth == gid


def _model(**kw):
    base = dict(layers=28, hidden=2048, experts=64, topk=4, moe_hidden=1408)
    base.update(kw)
    return ModelConfig(**base)


def _workload(**kw):
    base = dict(seq_len=4096, micro_batch=1, num_microbatches=8)
    base.update(kw)
    return Workload(**base)


def test_memory_param_bytes_double_with_layers_held():
    # Doubling the layers a group holds (v) doubles its parameter bytes.
    small = memory_estimate(assign_layers(14, 2, ATTN), _model(layers=14), _workload(), _Alloc())
    large = memory_estimate(assign_layers(28, 2, ATTN), _model(), _workload(), _Alloc())
    assert large.param_bytes == 2 * small.param_bytes


def test_memory_ffn_params_shard_over_group_gpus():
    plan = assign_layers(28, 2, FFN)
    one = memory_estimate(plan, _model(), _workload(), _Alloc(ffn_gpus=4))
    two = memory_estimate(plan, _model(), _workload(), _Alloc(ffn_gpus=8))
    assert two.param_bytes == one.param_bytes / 2
    assert two.optimizer_bytes == one.optimizer_bytes / 2


def test_memory_ratio_fourteen_to_sixteen_virtual_stages():
    # p=2 with v=14 vs v=16: param + optimizer terms scale as 16/14.
    est14 = memory_estimate(assign_layers(28, 2, FFN), _model(layers=28), _workload(), _Alloc())
    est16 = memory_estimate(assign_layers(32, 2, FFN), _model(layers=32), _workload(), _Alloc())
    lhs = est16.param_bytes + est16.optimizer_bytes
    rhs = est14.param_bytes + est14.optimizer_bytes
    assert lhs == pytest.approx(rhs * 16 / 14, rel=1e-12)


def test_memory_total_is_sum_of_parts():
    est = memory_estimate(assign_layers(28, 2, ATTN), _model(), _workload(), _Alloc())
    assert est.total == est.param_bytes + est.optimizer_bytes + est.activation_bytes


@pytest.mark.parametrize("field,lo,hi", [
    ("hidden", 1024, 2048),
    ("moe_hidden", 704, 1408),
    ("experts", 32, 64),
])
def test_memory_monotone_in_model_dims(field, lo, hi):
    plan = assign_layers(28, 2, FFN)
    small = memory_estimate(plan, _model(**{field: lo}), _workload(), _Alloc())
    large = memory_estimate(plan, _model(**{field: hi}), _workload(), _Alloc())
    assert large.total >= small.total


def test_memory_monotone_in_virtual_stages():
    totals = []
    for layers, depth in ((28, 28), (28, 14), (28, 7), (28, 4), (28, 2), (28, 1)):
        plan = assign_layers(layers, depth, FFN)
        totals.append(memory_estimate(plan, _model(), _workload(), _Alloc()).total)
    assert totals == sorted(totals)


def test_memory_counts_the_schedules_credit_when_depth_does_not_divide_layers():
    # L=3 over p=2: the afpipe schedule lets A0 and F0 hold 6 and 5 of 8
    # micro-batches (2L - first visit), not 2*p*ceil(L/p) - first visit = 8, 7.
    exp = Experiment(_model(layers=3), _workload(num_microbatches=8),
                     ClusterConfig(total_gpus=4, gpus_per_node=2, total_nics=4,
                                   gpu_peak=1e12, ib_bw=1e10),
                     ScheduleKind.AFPIPE, pipeline_depth=2, virtual_stages=2)
    graph = build_task_graph(exp, _Alloc(2, 2, 2, 2))
    assert graph.credits == {"A0": 6, "F0": 5, "A1": 4, "F1": 3}
    assert graph.credits == {f"{c}{g}": credit(3, g, c) for g in range(2) for c in (ATTN, FFN)}
    hidden_bytes = 2 * 1 * 4096 * 2048
    for component, in_flight in ((ATTN, 6), (FFN, 5)):
        est = memory_estimate(assign_layers(3, 2, component), exp.model, exp.workload,
                              _Alloc(2, 2, 2, 2))
        assert est.activation_bytes == 2 * hidden_bytes * in_flight


def test_oom_boundary_is_inclusive_fit():
    est = memory_estimate(assign_layers(4, 2, ATTN), _model(layers=4), _workload(), _Alloc())
    assert not oom_check(est, est.total)
    assert oom_check(est, est.total - 1)
    zero = type(est)(0, 0, 0, 0)
    assert not oom_check(zero, 1)
    assert oom_check(type(est)(0, 0, 2, 2), 1)
