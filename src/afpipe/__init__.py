"""afpipe: cost model, pipeline simulator, and GPU/NIC allocator for
attention-FFN disaggregated mixture-of-experts training."""

from .allocator import (
    Allocation,
    AllocationReport,
    AllocatorParams,
    NoFeasible,
    SearchSpaceTooLarge,
    allocate,
    brute_force_oracle,
    enumerate_feasible,
    phase1_min_bottleneck,
    phase2_tiebreak,
    phase3_refine,
)
from .config import (
    ClusterConfig,
    ConfigError,
    Experiment,
    InvalidValue,
    MissingField,
    ModelConfig,
    ScheduleKind,
    SchemaViolation,
    Workload,
    load_experiment,
    parse_experiment,
    serialize_experiment,
    validate,
)
from .costs import (
    CostBreakdown,
    LayerCosts,
    StageTimes,
    arithmetic_intensities,
    attention_flops,
    cost_breakdown,
    ep_a2a_bytes_per_gpu,
    ffn_flops,
    layer_costs,
    m2n_comm_bytes,
    roofline_attainable,
    stage_times,
    staged_layer_time,
    turning_points,
)
from .placement import (
    InvalidDepth,
    MemoryEstimate,
    PlacementPlan,
    assign_layers,
    memory_estimate,
    oom_check,
    validate_partition,
)
from .sim import (
    CycleDetected,
    MakespanOverflow,
    NegativeDuration,
    ScheduleTrace,
    SimResult,
    check_schedule,
    simulate,
    warmup_bubble_analytic,
)
from .taskgraph import GraphConstructionError, Task, TaskGraph, TaskKind, build_task_graph
from .trace_io import SerializationError, export_trace, export_trace_json, write_trace

__version__ = "0.1.0"
