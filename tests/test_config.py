import math
import os
from dataclasses import astuple, fields, replace

import pytest
import yaml

from afpipe.allocator import canonical_allocation
from afpipe.config import (
    MAX_GPUS_X_NICS,
    MAX_INT,
    MAX_LAYER_MICROBATCHES,
    ClusterConfig,
    Experiment,
    InvalidValue,
    MissingField,
    ModelConfig,
    ScheduleKind,
    SchemaViolation,
    Workload,
    parse_experiment,
    serialize_experiment,
    validate,
)
from afpipe.costs import layer_costs, stage_times
from afpipe.placement import ATTN, FFN, assign_layers, memory_estimate

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

DEEPSEEK_DOC = """
model:
  layers: 28
  hidden: 2048
  experts: 64
  topk: 4
  moe_hidden: 1408
workload:
  seq_len: 4096
  micro_batch: 1
  num_microbatches: 8
cluster:
  total_gpus: 16
  gpus_per_node: 8
  total_nics: 16
  gpu_peak: 9.89e14
  ib_bw: 1.0e11
schedule:
  schedule_kind: afpipe
  pipeline_depth: 2
  virtual_stages: 14
  ep_size: 16
"""


def test_parse_deepseek_card():
    exp = parse_experiment(DEEPSEEK_DOC)
    assert exp.model.layers == 28
    assert exp.model.hidden == 2048
    assert exp.model.experts == 64
    assert exp.model.topk == 4
    assert exp.model.moe_hidden == 1408
    assert exp.schedule_kind is ScheduleKind.AFPIPE
    assert exp.pipeline_depth == 2 and exp.virtual_stages == 14
    assert validate(exp) == []


def test_defaults_applied():
    exp = parse_experiment(DEEPSEEK_DOC)
    assert exp.model.bytes_per_element == 2
    assert exp.model.gqa_group == 1
    assert exp.cluster.nvlink_bw == 0.0


def test_virtual_stages_default_is_layers_over_depth():
    doc = DEEPSEEK_DOC.replace("  virtual_stages: 14\n", "")
    exp = parse_experiment(doc)
    assert exp.virtual_stages == 14


def test_topk_exceeding_experts_is_invalid():
    doc = DEEPSEEK_DOC.replace("topk: 4", "topk: 8").replace("experts: 64", "experts: 4")
    with pytest.raises(InvalidValue) as exc:
        parse_experiment(doc)
    assert exc.value.name == "topk"
    assert "exceeds" in exc.value.reason


def test_missing_required_field():
    doc = DEEPSEEK_DOC.replace("  seq_len: 4096\n", "")
    with pytest.raises(MissingField) as exc:
        parse_experiment(doc)
    assert exc.value.name == "workload.seq_len"


def test_unknown_key_is_schema_violation():
    doc = DEEPSEEK_DOC + "\n"
    doc = doc.replace("model:\n", "model:\n  vocab: 32000\n")
    with pytest.raises(SchemaViolation):
        parse_experiment(doc)


def test_unknown_section_is_schema_violation():
    with pytest.raises(SchemaViolation):
        parse_experiment(DEEPSEEK_DOC + "\nextras:\n  foo: 1\n")


def test_non_integer_count_is_invalid():
    doc = DEEPSEEK_DOC.replace("layers: 28", "layers: twenty")
    with pytest.raises(InvalidValue, match=r"expected an integer, got 'twenty'$"):
        parse_experiment(doc)


def test_rejected_value_is_quoted_up_to_80_characters():
    exact = "x" * 78  # its repr is 80 characters, which are quoted whole
    longer = exact + "y"
    for value, shown in ((exact, repr(exact)), (longer, repr(longer)[:80] + "...")):
        with pytest.raises(InvalidValue) as exc:
            parse_experiment(_with("model", "layers", value))
        assert str(exc.value).endswith(f"expected an integer, got {shown}")


def test_parse_is_deterministic():
    assert parse_experiment(DEEPSEEK_DOC) == parse_experiment(DEEPSEEK_DOC)


def test_serialize_round_trip_identity():
    exp = parse_experiment(DEEPSEEK_DOC)
    text = serialize_experiment(exp)
    again = parse_experiment(text)
    assert again == exp
    assert serialize_experiment(again) == text


def test_validate_depth_times_stages_bound():
    doc = DEEPSEEK_DOC.replace("virtual_stages: 14", "virtual_stages: 16")
    with pytest.raises(InvalidValue) as exc:
        parse_experiment(doc)
    assert "pipeline_depth" in str(exc.value)


def test_validate_single_gpu_cluster():
    doc = DEEPSEEK_DOC.replace("total_gpus: 16", "total_gpus: 1")
    with pytest.raises(InvalidValue) as exc:
        parse_experiment(doc)
    assert "total_gpus" in str(exc.value)


def test_validate_returns_all_violations():
    exp = parse_experiment(DEEPSEEK_DOC)
    bad = exp
    object.__setattr__(bad.model, "layers", 0)  # bypass frozen, simulate a bad object
    violations = validate(bad)
    assert any(v.startswith("layers:") for v in violations)
    assert any(v.startswith("pipeline_depth:") for v in violations)


def _with(section, field, value):
    doc = yaml.safe_load(DEEPSEEK_DOC)
    doc[section][field] = value
    return yaml.safe_dump(doc)


INF = float("inf")


@pytest.mark.parametrize("field, value", [
    ("gpu_peak", INF),
    ("gpu_peak", float("nan")),
    ("gpu_peak", 0.0),
    ("ib_bw", INF),
    ("ib_bw", -INF),
    ("ib_bw", -1.0e11),
    ("nvlink_bw", -5),
    ("nvlink_bw", INF),
    ("nvlink_bw", float("nan")),
])
def test_out_of_range_rate_is_invalid(field, value):
    with pytest.raises(InvalidValue) as exc:
        parse_experiment(_with("cluster", field, value))
    assert exc.value.name == field


@pytest.mark.parametrize("value", [0, 4.0e11])
def test_nvlink_bw_accepts_finite_non_negative(value):
    assert parse_experiment(_with("cluster", "nvlink_bw", value)).cluster.nvlink_bw == value


def test_readme_document_names_every_field():
    # The dataclasses are the schema, so a new field is accepted at once;
    # this keeps README's example document naming all of them, in order.
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Experiment documents", 1)[1].split("```yaml\n", 1)[1]
    block = block.split("```", 1)[0]
    parse_experiment(block)
    doc = yaml.safe_load(block)
    sections = {"model": ModelConfig, "workload": Workload, "cluster": ClusterConfig}
    for name, cls in sections.items():
        assert list(doc[name]) == [f.name for f in fields(cls)]
    assert list(doc["schedule"]) == [f.name for f in fields(Experiment) if f.name not in sections]
    assert list(doc) == [*sections, "schedule"]


INT_FIELDS = [
    (section, f.name)
    for section, cls in (("model", ModelConfig), ("workload", Workload), ("cluster", ClusterConfig),
                         ("schedule", Experiment))
    for f in fields(cls)
    if f.type is int
]


@pytest.mark.parametrize("section, field", INT_FIELDS, ids=[f for _, f in INT_FIELDS])
def test_integer_field_over_the_bound_is_invalid(section, field):
    with pytest.raises(InvalidValue) as exc:
        parse_experiment(_with(section, field, MAX_INT + 1))
    assert exc.value.name == field


def test_largest_admitted_sizes_keep_float_products_finite():
    doc = yaml.safe_load(DEEPSEEK_DOC)
    for key in ("hidden", "experts", "topk", "moe_hidden", "gqa_group"):
        doc["model"][key] = MAX_INT
    doc["model"]["bytes_per_element"] = 4
    doc["workload"].update(seq_len=MAX_INT, micro_batch=MAX_INT, num_microbatches=1024)
    doc["schedule"]["ep_size"] = MAX_INT
    exp = parse_experiment(yaml.safe_dump(doc))
    costs = layer_costs(exp.model, exp.workload, exp.ep_size)
    alloc = canonical_allocation(exp.cluster, 1, 1)
    times = stage_times(costs, alloc, exp.cluster, exp.pipeline_depth)
    assert all(math.isfinite(t) for t in astuple(times))
    for component in (ATTN, FFN):
        plan = assign_layers(exp.model.layers, exp.pipeline_depth, component)
        est = memory_estimate(plan, exp.model, exp.workload, alloc)
        assert all(math.isfinite(b) for b in astuple(est))


def test_integer_too_large_for_a_float_rate_is_invalid():
    with pytest.raises(InvalidValue) as exc:
        parse_experiment(_with("cluster", "gpu_peak", 10**400))
    assert exc.value.name == "cluster.gpu_peak"


def test_integer_over_the_digit_limit_is_a_schema_violation():
    with pytest.raises(SchemaViolation):
        parse_experiment(DEEPSEEK_DOC.replace("hidden: 2048", "hidden: " + "9" * 5000))


@pytest.mark.parametrize("section, values, named", [
    ("workload", {"num_microbatches": 10**9}, "num_microbatches"),
    ("cluster", {"total_gpus": 100_000, "total_nics": 100_000}, "total_gpus"),
], ids=["num_microbatches", "total_gpus"])
def test_size_caps_are_invalid(section, values, named):
    exp = parse_experiment(DEEPSEEK_DOC)
    big = replace(exp, **{section: replace(getattr(exp, section), **values)})
    assert validate(big)[0].startswith(f"{named}: ")
    doc = yaml.safe_load(DEEPSEEK_DOC)
    doc[section].update(values)
    with pytest.raises(InvalidValue) as exc:
        parse_experiment(yaml.safe_dump(doc))
    assert exc.value.name == named


def test_size_caps_admit_28_layers_by_1024_microbatches_and_256_by_256():
    assert 28 * 1024 <= MAX_LAYER_MICROBATCHES and 256 * 256 <= MAX_GPUS_X_NICS
    exp = parse_experiment(DEEPSEEK_DOC)
    big = replace(
        exp,
        workload=replace(exp.workload, num_microbatches=1024),
        cluster=replace(exp.cluster, total_gpus=256, total_nics=256),
    )
    assert validate(big) == []
