"""Experiment configuration: parsing, validation, and canonical serialization.

An experiment document is a UTF-8 YAML file with exactly four top-level
sections (``model``, ``workload``, ``cluster``, ``schedule``) whose keys match
the dataclass field names below. Unknown sections or keys are rejected so that
hand-edited files fail loudly instead of being silently ignored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import yaml


class ConfigError(Exception):
    """Base class for experiment-document errors."""


class MissingField(ConfigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required field: {name}")


class InvalidValue(ConfigError):
    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"invalid value for {name}: {reason}")


class SchemaViolation(ConfigError):
    pass


class ScheduleKind(str, enum.Enum):
    AFPIPE = "afpipe"
    MEGATRON_1F1B = "megatron1f1b"
    CHUNKED_OVERLAP = "chunked"
    NAIVE_SEQUENTIAL = "naive"


@dataclass(frozen=True)
class ModelConfig:
    """Transformer shape: L layers, hidden H, E experts with top-k routing."""

    layers: int
    hidden: int
    experts: int
    topk: int
    moe_hidden: int
    gqa_group: int = 1
    bytes_per_element: int = 2


@dataclass(frozen=True)
class Workload:
    seq_len: int
    micro_batch: int
    num_microbatches: int


@dataclass(frozen=True)
class ClusterConfig:
    """Device and network capacities.

    ``nvlink_bw`` is recorded for completeness but the inter-node cost model
    treats intra-node transfers as free, so it never enters any formula.
    """

    total_gpus: int
    gpus_per_node: int
    total_nics: int
    gpu_peak: float
    ib_bw: float
    nvlink_bw: float = 0.0


@dataclass(frozen=True)
class Experiment:
    model: ModelConfig
    workload: Workload
    cluster: ClusterConfig
    schedule_kind: ScheduleKind
    pipeline_depth: int = 1
    virtual_stages: int = 1
    ep_size: int = 1


_SECTIONS = ("model", "workload", "cluster", "schedule")

# (key, required, kind) per section; kind is "int", "float", or "kind".
_MODEL_KEYS = {
    "layers": (True, "int"),
    "hidden": (True, "int"),
    "experts": (True, "int"),
    "topk": (True, "int"),
    "moe_hidden": (True, "int"),
    "gqa_group": (False, "int"),
    "bytes_per_element": (False, "int"),
}
_WORKLOAD_KEYS = {
    "seq_len": (True, "int"),
    "micro_batch": (True, "int"),
    "num_microbatches": (True, "int"),
}
_CLUSTER_KEYS = {
    "total_gpus": (True, "int"),
    "gpus_per_node": (True, "int"),
    "total_nics": (True, "int"),
    "gpu_peak": (True, "float"),
    "ib_bw": (True, "float"),
    "nvlink_bw": (False, "float"),
}
_SCHEDULE_KEYS = {
    "schedule_kind": (False, "kind"),
    "pipeline_depth": (False, "int"),
    "virtual_stages": (False, "int"),
    "ep_size": (False, "int"),
}
_SECTION_KEYS = {
    "model": _MODEL_KEYS,
    "workload": _WORKLOAD_KEYS,
    "cluster": _CLUSTER_KEYS,
    "schedule": _SCHEDULE_KEYS,
}


def _coerce(section: str, key: str, value, kind: str):
    name = f"{section}.{key}"
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidValue(name, f"expected an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, str):
            # YAML 1.1 leaves exponents like "9.89e14" as strings; accept them.
            try:
                return float(value)
            except ValueError:
                raise InvalidValue(name, f"expected a number, got {value!r}") from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidValue(name, f"expected a number, got {value!r}")
        return float(value)
    if kind == "kind":
        try:
            return ScheduleKind(value)
        except ValueError:
            options = ", ".join(k.value for k in ScheduleKind)
            raise InvalidValue(name, f"expected one of {{{options}}}, got {value!r}") from None
    raise AssertionError(kind)


def _read_section(doc: dict, section: str) -> dict:
    schema = _SECTION_KEYS[section]
    if section not in doc:
        raise MissingField(section)
    raw = doc[section] if doc[section] is not None else {}
    if not isinstance(raw, dict):
        raise SchemaViolation(f"section '{section}' must be a mapping")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise SchemaViolation(f"unknown key(s) in '{section}': {', '.join(unknown)}")
    out = {}
    for key, (required, kind) in schema.items():
        if key in raw:
            out[key] = _coerce(section, key, raw[key], kind)
        elif required:
            raise MissingField(f"{section}.{key}")
    return out


def parse_experiment(text: str) -> Experiment:
    """Parse an experiment document, apply defaults, and check all invariants.

    Raises MissingField, InvalidValue, or SchemaViolation; never returns a
    partially populated Experiment.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaViolation(f"not a well-formed document: {exc}") from exc
    if doc is None:
        raise SchemaViolation("empty document")
    if not isinstance(doc, dict):
        raise SchemaViolation("top level must be a mapping of sections")
    unknown = sorted(set(doc) - set(_SECTIONS))
    if unknown:
        raise SchemaViolation(f"unknown top-level section(s): {', '.join(unknown)}")

    model = ModelConfig(**_read_section(doc, "model"))
    workload = Workload(**_read_section(doc, "workload"))
    cluster = ClusterConfig(**_read_section(doc, "cluster"))
    sched = _read_section(doc, "schedule")

    depth = sched.get("pipeline_depth", 1)
    if "virtual_stages" not in sched:
        # Default to the largest interleave the depth allows; an invalid depth
        # gets 1 here and is reported by validate().
        sched["virtual_stages"] = max(1, model.layers // depth) if depth >= 1 else 1
    exp = Experiment(
        model=model,
        workload=workload,
        cluster=cluster,
        schedule_kind=sched.get("schedule_kind", ScheduleKind.AFPIPE),
        pipeline_depth=depth,
        virtual_stages=sched["virtual_stages"],
        ep_size=sched.get("ep_size", 1),
    )
    violations = validate(exp)
    if violations:
        first = violations[0]
        name = first.split(":", 1)[0]
        raise InvalidValue(name, "; ".join(violations))
    return exp


def validate(exp: Experiment) -> list[str]:
    """Return every invariant violation as "field: rule" strings (empty = valid)."""
    v: list[str] = []
    m, w, c = exp.model, exp.workload, exp.cluster
    if m.layers < 1:
        v.append(f"layers: must be >= 1 (got {m.layers})")
    if m.hidden < 1:
        v.append(f"hidden: must be >= 1 (got {m.hidden})")
    if m.experts < 1:
        v.append(f"experts: must be >= 1 (got {m.experts})")
    if m.topk < 1:
        v.append(f"topk: must be >= 1 (got {m.topk})")
    elif m.topk > m.experts:
        v.append(f"topk: k exceeds E (topk={m.topk}, experts={m.experts})")
    if m.moe_hidden < 1:
        v.append(f"moe_hidden: must be >= 1 (got {m.moe_hidden})")
    if m.gqa_group < 1:
        v.append(f"gqa_group: must be >= 1 (got {m.gqa_group})")
    if m.bytes_per_element not in (1, 2, 4):
        v.append(f"bytes_per_element: must be one of 1, 2, 4 (got {m.bytes_per_element})")
    if w.seq_len < 1:
        v.append(f"seq_len: must be >= 1 (got {w.seq_len})")
    if w.micro_batch < 1:
        v.append(f"micro_batch: must be >= 1 (got {w.micro_batch})")
    if w.num_microbatches < 1:
        v.append(f"num_microbatches: must be >= 1 (got {w.num_microbatches})")
    if c.total_gpus < 2:
        v.append(f"total_gpus: must be >= 2 (got {c.total_gpus})")
    if c.total_nics < 2:
        v.append(f"total_nics: must be >= 2 (got {c.total_nics})")
    if not c.gpu_peak > 0:
        v.append(f"gpu_peak: must be > 0 (got {c.gpu_peak})")
    if not c.ib_bw > 0:
        v.append(f"ib_bw: must be > 0 (got {c.ib_bw})")
    if not 1 <= c.gpus_per_node <= 8:
        v.append(f"gpus_per_node: must be in [1, 8] (got {c.gpus_per_node})")
    if exp.pipeline_depth < 1:
        v.append(f"pipeline_depth: must be >= 1 (got {exp.pipeline_depth})")
    if exp.virtual_stages < 1:
        v.append(f"virtual_stages: must be >= 1 (got {exp.virtual_stages})")
    if (
        exp.pipeline_depth >= 1
        and exp.virtual_stages >= 1
        and exp.pipeline_depth * exp.virtual_stages > m.layers
    ):
        v.append(
            "pipeline_depth: pipeline_depth*virtual_stages must be <= layers "
            f"({exp.pipeline_depth}*{exp.virtual_stages} > {m.layers})"
        )
    if exp.ep_size < 1:
        v.append(f"ep_size: must be >= 1 (got {exp.ep_size})")
    return v


def serialize_experiment(exp: Experiment) -> str:
    """Render the canonical document form; parse(serialize(e)) == e."""
    doc = {
        "model": {
            "layers": exp.model.layers,
            "hidden": exp.model.hidden,
            "experts": exp.model.experts,
            "topk": exp.model.topk,
            "moe_hidden": exp.model.moe_hidden,
            "gqa_group": exp.model.gqa_group,
            "bytes_per_element": exp.model.bytes_per_element,
        },
        "workload": {
            "seq_len": exp.workload.seq_len,
            "micro_batch": exp.workload.micro_batch,
            "num_microbatches": exp.workload.num_microbatches,
        },
        "cluster": {
            "total_gpus": exp.cluster.total_gpus,
            "gpus_per_node": exp.cluster.gpus_per_node,
            "total_nics": exp.cluster.total_nics,
            "gpu_peak": exp.cluster.gpu_peak,
            "ib_bw": exp.cluster.ib_bw,
            "nvlink_bw": exp.cluster.nvlink_bw,
        },
        "schedule": {
            "schedule_kind": exp.schedule_kind.value,
            "pipeline_depth": exp.pipeline_depth,
            "virtual_stages": exp.virtual_stages,
            "ep_size": exp.ep_size,
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


def load_experiment(path: str) -> Experiment:
    with open(path, encoding="utf-8") as fh:
        return parse_experiment(fh.read())
