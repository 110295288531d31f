"""Run orchestration and report serialization for the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .allocator import Allocation
from .config import Experiment, ScheduleKind, serialize_experiment
from .placement import ATTN, FFN, assign_layers, memory_estimate, oom_check
from .sim import Retimer, ScheduleTrace, SimResult, simulate
from .taskgraph import build_task_graph

DEFAULT_GPU_MEMORY_BYTES = 80e9  # one 80 GB accelerator


@dataclass
class RunReport:
    experiment: str  # canonical document echo
    allocation: dict | None
    placement: dict[str, dict] = field(default_factory=dict)
    results: dict[str, dict] = field(default_factory=dict)
    speedups: dict[str, float] = field(default_factory=dict)
    memory: dict[str, dict] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def run_schedule(
    exp: Experiment, kind: ScheduleKind, alloc: Allocation | None,
    retimer: Retimer | None = None,
) -> tuple[ScheduleTrace, SimResult]:
    """Build the task graph for one kind, then simulate it.

    With a retimer, a graph of the retimer's kept topology shares its tasks
    and is re-timed on its plan, a memo hit when its durations repeat; a
    graph of another topology is planned and kept instead.
    """
    exp = replace(exp, schedule_kind=kind)
    if retimer is None:
        return simulate(build_task_graph(exp, alloc))
    return retimer.simulate(build_task_graph(exp, alloc, like=retimer.graph))


def memory_report(exp: Experiment, alloc: Allocation, capacity_bytes: float) -> dict[str, dict]:
    """Per-component memory estimates for the disaggregated placement."""
    out = {}
    for component in (ATTN, FFN):
        plan = assign_layers(exp.model.layers, exp.pipeline_depth, component)
        est = memory_estimate(plan, exp.model, exp.workload, alloc)
        out[component] = {
            **asdict(est), "capacity": capacity_bytes, "oom": oom_check(est, capacity_bytes)
        }
    return out


def estimate_oom(exp: Experiment, alloc: Allocation, capacity_bytes: float) -> bool:
    return any(entry["oom"] for entry in memory_report(exp, alloc, capacity_bytes).values())


def placement_to_dict(exp: Experiment) -> dict[str, dict]:
    out = {}
    for component in (ATTN, FFN):
        plan = assign_layers(exp.model.layers, exp.pipeline_depth, component)
        out[component] = {
            "groups": {str(gid): list(layers) for gid, layers in plan.groups},
            "pipeline_depth": plan.pipeline_depth,
            "virtual_stages": plan.virtual_stages,
            "output_embedding_group": plan.output_embedding_group,
        }
    return out


def speedup(base: SimResult, other: SimResult) -> float:
    """speedup(other vs base) = iteration(base) / iteration(other)."""
    if other.iteration_time == 0:
        return float("inf") if base.iteration_time > 0 else 1.0
    return base.iteration_time / other.iteration_time


def build_run_report(
    exp: Experiment,
    alloc: Allocation | None,
    results: dict[ScheduleKind, SimResult],
    capacity_bytes: float = DEFAULT_GPU_MEMORY_BYTES,
) -> RunReport:
    report = RunReport(
        experiment=serialize_experiment(exp),
        allocation=asdict(alloc) if alloc else None,
        placement=placement_to_dict(exp),
    )
    for kind, result in results.items():
        report.results[kind.value] = asdict(result)
    base = results.get(ScheduleKind.MEGATRON_1F1B)
    if base is not None:
        for kind, result in results.items():
            if kind is not ScheduleKind.MEGATRON_1F1B:
                report.speedups[f"{kind.value}_vs_megatron1f1b"] = speedup(base, result)
    if alloc is not None:
        report.memory = memory_report(exp, alloc, capacity_bytes)
        for component, entry in report.memory.items():
            if entry["oom"]:
                report.warnings.append(
                    f"memory estimate for the {component} side exceeds capacity "
                    f"({entry['total']:.3e} > {entry['capacity']:.3e} bytes)"
                )
    return report


def report_to_json(report: RunReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def format_ms(seconds: float) -> str:
    """Milliseconds with six significant digits, for human-readable tables."""
    return f"{seconds * 1e3:.6g}"
