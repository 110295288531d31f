"""afpipe: cost model, pipeline simulator, and GPU/NIC allocator for
attention-FFN disaggregated mixture-of-experts training.

The package namespace is lazy (PEP 562): `import afpipe` loads no module,
and a module is loaded when one of its names is first read. So
`afpipe.load_experiment(...)` loads only `afpipe.config` and PyYAML. A
submodule attribute such as `afpipe.sim` resolves the same way. This file
imports nothing, so that `import afpipe` costs only itself.
"""

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "allocator": (
        "Allocation", "AllocationReport", "AllocatorParams", "NoFeasible",
        "SearchSpaceTooLarge", "allocate", "brute_force_oracle", "enumerate_feasible",
        "phase1_min_bottleneck", "phase2_tiebreak", "phase3_refine",
    ),
    "config": (
        "ClusterConfig", "ConfigError", "Experiment", "InvalidValue", "MissingField",
        "ModelConfig", "ScheduleKind", "SchemaViolation", "Workload", "load_experiment",
        "parse_experiment", "serialize_experiment", "validate",
    ),
    "costs": (
        "CostBreakdown", "LayerCosts", "StageTimes", "arithmetic_intensities",
        "attention_flops", "cost_breakdown", "ep_a2a_bytes_per_gpu", "ffn_flops",
        "layer_costs", "m2n_comm_bytes", "roofline_attainable", "stage_times",
        "staged_layer_time", "turning_points",
    ),
    "placement": (
        "InvalidDepth", "MemoryEstimate", "PlacementPlan", "assign_layers",
        "memory_estimate", "oom_check", "validate_partition",
    ),
    "sim": (
        "CycleDetected", "MakespanOverflow", "NegativeDuration", "ScheduleTrace",
        "SimResult", "check_schedule", "simulate", "warmup_bubble_analytic",
    ),
    "taskgraph": ("GraphConstructionError", "Task", "TaskGraph", "TaskKind", "build_task_graph"),
    "trace_io": ("SerializationError", "export_trace", "export_trace_json", "write_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        module = __import__(f"{__name__}.{_HOME[name]}", fromlist=(name,))
        value = globals()[name] = getattr(module, name)
        return value
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _HOME.keys() | _EXPORTS.keys())
