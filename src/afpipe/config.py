"""Experiment configuration: parsing, validation, and canonical serialization.

An experiment document is a UTF-8 YAML file with exactly four top-level
sections (``model``, ``workload``, ``cluster``, ``schedule``). The dataclasses
below are the schema: a section's keys are its dataclass's fields, a field
without a default is a required key, and each value is coerced to its field's
type. Unknown sections or keys are rejected so that hand-edited files fail
loudly instead of being silently ignored.

A field's valid range is stated once, on the field: its metadata holds the
rule (a predicate and its phrase, such as "must be >= 1") that validate()
checks. validate() also bounds what a document can make the program build:
every integer field is at most MAX_INT, layers * num_microbatches (the task
count is linear in it) at most MAX_LAYER_MICROBATCHES, and total_gpus *
total_nics (about the number of splits the allocator enumerates) at most
MAX_GPUS_X_NICS. parse_experiment rejects a document longer than
MAX_DOCUMENT_CHARS before parsing it, since the YAML parser's time grows
with the text.
"""

import enum
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import yaml

# A float holds every integer up to 2**53 exactly, and the cost and memory
# models convert products of at most six integer fields to float (the
# activation bytes layers*e*b*s*H*micro-batches are the largest), so every
# such product stays below 2**(6*53) and far from the float limit 2**1024.
MAX_INT = 2**53
# afpipe builds 12*L - 4 tasks per micro-batch: 2**15 admits 28 layers at
# 1,024 micro-batches, about 340,000 tasks.
MAX_LAYER_MICROBATCHES = 2**15
# Phase 1 enumerates (total_gpus - 1) * (total_nics - 1) splits; 2**17
# admits 256 GPUs with 256 NICs.
MAX_GPUS_X_NICS = 2**17
# The bundled documents are under 1 KB, and the pure-Python YAML parser took
# 8.9 s on a 600 KB document on a 2-CPU host, so a longer text is rejected
# unparsed.
MAX_DOCUMENT_CHARS = 2**17


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


def _rule(keeps, text: str, **kw):
    """A dataclass field (field(**kw)) whose value v must satisfy keeps(v), which text states."""
    return field(metadata={"keeps": keeps, "rule": text}, **kw)


def _at_least(low: int, **kw):
    return _rule(lambda value: value >= low, f"must be >= {low}", **kw)


@dataclass(frozen=True)
class ModelConfig:
    """Transformer shape: L layers, hidden H, E experts with top-k routing."""

    layers: int = _at_least(1)
    hidden: int = _at_least(1)
    experts: int = _at_least(1)
    topk: int = _at_least(1)
    moe_hidden: int = _at_least(1)
    gqa_group: int = _at_least(1, default=1)
    bytes_per_element: int = _rule((1, 2, 4).__contains__, "must be one of 1, 2, 4", default=2)


@dataclass(frozen=True)
class Workload:
    seq_len: int = _at_least(1)
    micro_batch: int = _at_least(1)
    num_microbatches: int = _at_least(1)


@dataclass(frozen=True)
class ClusterConfig:
    """Device and network capacities.

    ``nvlink_bw`` is recorded for completeness but the inter-node cost model
    treats intra-node transfers as free, so it never enters any formula.
    """

    total_gpus: int = _at_least(2)
    gpus_per_node: int = _rule(lambda n: 1 <= n <= 8, "must be in [1, 8]")
    total_nics: int = _at_least(2)
    gpu_peak: float = _rule(lambda x: 0 < x < math.inf, "must be finite and > 0")
    ib_bw: float = _rule(lambda x: 0 < x < math.inf, "must be finite and > 0")
    nvlink_bw: float = _rule(lambda x: 0 <= x < math.inf, "must be finite and >= 0", default=0.0)


@dataclass(frozen=True)
class Experiment:
    model: ModelConfig
    workload: Workload
    cluster: ClusterConfig
    schedule_kind: ScheduleKind = ScheduleKind.AFPIPE
    pipeline_depth: int = _at_least(1, default=1)
    virtual_stages: int = _at_least(1, default=1)
    ep_size: int = _at_least(1, default=1)


# The schedule section holds the Experiment fields after the three sections.
_SECTION_FIELDS = {
    "model": fields(ModelConfig),
    "workload": fields(Workload),
    "cluster": fields(ClusterConfig),
    "schedule": fields(Experiment)[3:],
}


_SHOWN = 80  # characters of a rejected value's repr that its message quotes


def _shown(value) -> str:
    """repr(value), cut to _SHOWN characters and "..." when longer."""
    text = repr(value)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "..."


def _coerce(name: str, value, kind: type):
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidValue(name, f"expected an integer, got {_shown(value)}")
        return value
    if kind is float:
        if isinstance(value, str):
            # YAML 1.1 leaves exponents like "9.89e14" as strings; accept them.
            try:
                return float(value)
            except ValueError:
                raise InvalidValue(name, f"expected a number, got {_shown(value)}") from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidValue(name, f"expected a number, got {_shown(value)}")
        try:
            return float(value)
        except OverflowError:
            raise InvalidValue(name, "integer too large for a float") from None
    try:
        return kind(value)
    except ValueError:
        options = ", ".join(k.value for k in kind)
        raise InvalidValue(name, f"expected one of {{{options}}}, got {_shown(value)}") from None


def _read_section(doc: dict, section: str) -> dict:
    if section not in doc:
        raise MissingField(section)
    raw = doc[section] if doc[section] is not None else {}
    if not isinstance(raw, dict):
        raise SchemaViolation(f"section '{section}' must be a mapping")
    schema = _SECTION_FIELDS[section]
    unknown = sorted(map(str, set(raw) - {f.name for f in schema}))  # a YAML key may be 1 or null
    if unknown:
        raise SchemaViolation(f"unknown key(s) in '{section}': {', '.join(unknown)}")
    out = {}
    for f in schema:
        if f.name in raw:
            out[f.name] = _coerce(f"{section}.{f.name}", raw[f.name], f.type)
        elif f.default is MISSING:
            raise MissingField(f"{section}.{f.name}")
    return out


def parse_experiment(text: str) -> Experiment:
    """Parse an experiment document, apply defaults, and check all invariants.

    Raises MissingField, InvalidValue, or SchemaViolation; never returns a
    partially populated Experiment. A text longer than MAX_DOCUMENT_CHARS
    is a SchemaViolation, raised before it is parsed.
    """
    if len(text) > MAX_DOCUMENT_CHARS:
        raise SchemaViolation(
            f"document of {len(text)} characters is over the {MAX_DOCUMENT_CHARS}-character limit"
        )
    # The pure-Python loader, not libyaml's CSafeLoader, although it is about
    # 7x slower: with PyYAML 6.0.3, CSafeLoader crashes the process (SIGSEGV)
    # on "model: " plus 30,000 "[" and 30,000 "]", a 60 KB document under
    # MAX_DOCUMENT_CHARS, and accepts the 5,000-deep nesting that this loader
    # rejects with RecursionError.
    try:
        doc = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # 4301 digits, deep nesting
        raise SchemaViolation(f"not a well-formed document: {exc}") from exc
    if doc is None:
        raise SchemaViolation("empty document")
    if not isinstance(doc, dict):
        raise SchemaViolation("top level must be a mapping of sections")
    unknown = sorted(map(str, set(doc) - set(_SECTION_FIELDS)))
    if unknown:
        raise SchemaViolation(f"unknown top-level section(s): {', '.join(unknown)}")

    model, workload, cluster, sched = (_read_section(doc, name) for name in _SECTION_FIELDS)
    exp = Experiment(ModelConfig(**model), Workload(**workload), ClusterConfig(**cluster), **sched)
    if "virtual_stages" not in sched:
        # Default to the largest interleave the depth allows; an invalid depth
        # gets 1 here and is reported by validate().
        depth = exp.pipeline_depth
        exp = replace(exp, virtual_stages=max(1, exp.model.layers // depth) if depth >= 1 else 1)
    violations = validate(exp)
    if violations:
        first = violations[0]
        name = first.split(":", 1)[0]
        raise InvalidValue(name, "; ".join(violations))
    return exp


def validate(exp: Experiment) -> list[str]:
    """Return every invariant violation as "field: rule" strings (empty = valid).

    Field by field in schema order, each field's MAX_INT bound (integers)
    and then its own rule; after them the rules that relate two fields.
    """
    v: list[str] = []
    for section, schema in _SECTION_FIELDS.items():
        holder = exp if section == "schedule" else getattr(exp, section)
        for f in schema:
            value = getattr(holder, f.name)
            if f.type is int and value > MAX_INT:
                v.append(f"{f.name}: must be <= 2**53")
            if "keeps" in f.metadata and not f.metadata["keeps"](value):
                v.append(f"{f.name}: {f.metadata['rule']} (got {value})")
    m, w, c = exp.model, exp.workload, exp.cluster
    # Each guard skips a relation whose field already broke its lower bound above.
    if 1 <= m.topk and m.topk > m.experts:
        v.append(f"topk: k exceeds E (topk={m.topk}, experts={m.experts})")
    if 1 <= w.num_microbatches and m.layers * w.num_microbatches > MAX_LAYER_MICROBATCHES:
        v.append(
            f"num_microbatches: layers*num_microbatches must be <= {MAX_LAYER_MICROBATCHES} "
            f"({m.layers}*{w.num_microbatches})"
        )
    if 2 <= c.total_nics and c.total_gpus * c.total_nics > MAX_GPUS_X_NICS:
        v.append(
            f"total_gpus: total_gpus*total_nics must be <= {MAX_GPUS_X_NICS} "
            f"({c.total_gpus}*{c.total_nics})"
        )
    depth, stages = exp.pipeline_depth, exp.virtual_stages
    if 1 <= depth and 1 <= stages and depth * stages > m.layers:
        v.append(
            "pipeline_depth: pipeline_depth*virtual_stages must be <= layers "
            f"({depth}*{stages} > {m.layers})"
        )
    return v


def serialize_experiment(exp: Experiment) -> str:
    """Render the canonical document form; parse(serialize(e)) == e."""
    doc = {name: asdict(getattr(exp, name)) for name in ("model", "workload", "cluster")}
    doc["schedule"] = {f.name: getattr(exp, f.name) for f in _SECTION_FIELDS["schedule"]}
    doc["schedule"]["schedule_kind"] = exp.schedule_kind.value
    return yaml.safe_dump(doc, sort_keys=False)


def load_experiment(path: str) -> Experiment:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_experiment(fh.read())
        except UnicodeDecodeError as exc:
            raise SchemaViolation(f"not a UTF-8 document: {exc}") from exc
