"""Outside-in tracing of afpipe's layers.

afpipe's modules import each other's functions by name, so a function is
wrapped at every module attribute a caller looks it up through (for example
both ``afpipe.report.simulate`` and ``afpipe.allocator.simulate``). Each call
through a wrapper records a span: name, the module it was called from, start,
end, parent span and op id. Spans stay in memory until the run writes them
out. A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("config", "costs", "placement", "taskgraph", "sim", "allocator", "report",
          "trace_io", "cli")


def _len_result(args, kwargs, result):
    return {"n": len(result)}


def _len_arg0(args, kwargs, result):
    return {"n": len(args[0])}


def _band(args, kwargs, result):
    return {"n": len(result[1])}


def _trace_file(args, kwargs, result):
    trace, path = args[0], args[1]
    return {"n": len(trace.events), "bytes": os.path.getsize(path)}


# (module, attribute, span name, measure). The span's layer is the part of
# its name before the first dot; measure(args, kwargs, result) adds counts.
_PATCHES = (
    ("config", "load_experiment", "config.load", None),
    ("cli", "load_experiment", "config.load", None),
    ("cli", "run_schedule", "report.run_schedule", None),
    ("cli", "build_run_report", "report.build_run_report", None),
    ("cli", "report_to_json", "report.to_json", None),
    ("cli", "estimate_oom", "report.estimate_oom", None),
    ("cli", "write_trace", "trace_io.write_trace", _trace_file),
    ("cli", "attention_flops", "costs.attention_flops", None),
    ("cli", "ffn_flops", "costs.ffn_flops", None),
    ("cli", "m2n_comm_bytes", "costs.m2n_comm_bytes", None),
    ("report", "build_task_graph", "taskgraph.build", _len_result),
    ("report", "simulate", "sim.simulate", _len_arg0),
    ("report", "assign_layers", "placement.assign_layers", None),
    ("report", "memory_estimate", "placement.memory_estimate", None),
    ("report", "oom_check", "placement.oom_check", None),
    ("taskgraph", "layer_costs", "costs.layer_costs", None),
    ("sim", "exposed_comm", "sim.exposed_comm", None),
    ("allocator", "default_allocation", "allocator.default_allocation", None),
    ("allocator", "allocate", "allocator.allocate", None),
    ("allocator", "brute_force_oracle", "allocator.brute_force_oracle", None),
    ("allocator", "enumerate_feasible", "allocator.enumerate", _len_result),
    ("allocator", "phase1_min_bottleneck", "allocator.phase1", _band),
    ("allocator", "phase2_tiebreak", "allocator.phase2", None),
    ("allocator", "phase3_refine", "allocator.phase3_refine", None),
    ("allocator", "layer_costs", "costs.layer_costs", None),
    ("allocator", "stage_times", "costs.stage_times", None),
    ("allocator", "assign_layers", "placement.assign_layers", None),
    ("allocator", "build_task_graph", "taskgraph.build", _len_result),
    ("allocator", "simulate", "sim.simulate", _len_arg0),
)


class Tracer:
    """Records spans while installed; each span is a list
    [op, name, site, parent, start, end, counts]."""

    def __init__(self, afpipe_modules):
        self._modules = afpipe_modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op: str | None = None

    def _open(self, name: str, site: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, name, site, parent, time.perf_counter(), None, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, site: str, measure=None, transform=None):
        def traced(*args, **kwargs):
            index = self._open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if measure is not None:
                self.spans[index][6] = measure(args, kwargs, result)
            return transform(result) if transform is not None else result

        return traced

    def install(self) -> None:
        for module_name, attr, name, measure in _PATCHES:
            module = getattr(self._modules, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, module_name, measure))
        # The profile closure memoizes on the split, so calls through it
        # against simulations under it give the memo hit ratio.
        allocator = self._modules.allocator
        original = allocator.af_iteration_profile
        self._saved.append((allocator, "af_iteration_profile", original))
        allocator.af_iteration_profile = self.wrap(
            original, "allocator.af_iteration_profile", "allocator",
            transform=lambda profile: self.wrap(profile, "allocator.profile", "allocator"),
        )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def root(self, op: str, name: str, fn, *args):
        """Run fn(*args) as the root span of op."""
        self.op = op
        try:
            return self.wrap(fn, name, "bench")(*args)
        finally:
            self.op = None

    def write(self, path: str) -> None:
        keys = ("op", "name", "site", "parent", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def op_metrics(spans: list[tuple[int, list]]) -> dict[str, float]:
    """Per-layer metrics of one op from its (index, span) pairs."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    profile_sims = 0
    for index, (_, name, site, parent, start, end, extra) in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        if parent is not None:
            child_time[parent] += duration
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "sim.simulate" and site == "allocator":
            profile_sims += 1
    self_time: dict[str, float] = defaultdict(float)
    for index, (_, name, _, _, start, end, _) in spans:
        self_time[name.split(".", 1)[0]] += (end - start) - child_time[index]

    sim_tasks = counts["sim.simulate.n"]
    profile_calls = calls["allocator.profile"]
    metrics = {
        "config.load_s": total["config.load"],
        "config.load_calls": calls["config.load"],
        "costs.layer_costs_calls": calls["costs.layer_costs"],
        "costs.stage_times_calls": calls["costs.stage_times"],
        "placement.assign_layers_calls": calls["placement.assign_layers"],
        "placement.memory_estimate_s": total["placement.memory_estimate"],
        "taskgraph.build_s": total["taskgraph.build"],
        "taskgraph.builds": calls["taskgraph.build"],
        "taskgraph.tasks": counts["taskgraph.build.n"],
        "sim.simulate_s": total["sim.simulate"],
        "sim.calls": calls["sim.simulate"],
        "sim.tasks": sim_tasks,
        "sim.ns_per_task": total["sim.simulate"] / sim_tasks * 1e9 if sim_tasks else 0.0,
        "sim.exposed_comm_s": total["sim.exposed_comm"],
        "allocator.enumerate_s": total["allocator.enumerate"],
        "allocator.candidates": counts["allocator.enumerate.n"],
        "allocator.phase1_s": total["allocator.phase1"],
        "allocator.band_size": counts["allocator.phase1.n"],
        "allocator.phase2_s": total["allocator.phase2"],
        "allocator.phase3_s": total["allocator.phase3_refine"],
        "allocator.profile_calls": profile_calls,
        "allocator.profile_sims": profile_sims,
        "allocator.profile_hit_ratio": (
            (profile_calls - profile_sims) / profile_calls if profile_calls else 0.0
        ),
        "allocator.oracle_s": total["allocator.brute_force_oracle"],
        "report.run_schedule_s": total["report.run_schedule"],
        "report.build_run_report_s": total["report.build_run_report"],
        "report.to_json_s": total["report.to_json"],
        "trace_io.export_s": total["trace_io.write_trace"],
        "trace_io.events": counts["trace_io.write_trace.n"],
        "trace_io.bytes": counts["trace_io.write_trace.bytes"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics


def spans_by_op(spans: list[list]) -> dict[str, list[tuple[int, list]]]:
    grouped: dict[str, list[tuple[int, list]]] = defaultdict(list)
    for index, span in enumerate(spans):
        grouped[span[0]].append((index, span))
    return grouped


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
