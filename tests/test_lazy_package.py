"""The package namespace is lazy: a module loads when one of its names is first read.

The checks that depend on what is already imported run in a fresh
interpreter (-E, so no PYTHONPATH or startup file imports afpipe first).
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import afpipe

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPORTED = [
    "Allocation", "AllocationReport", "AllocatorParams", "ClusterConfig", "ConfigError",
    "CostBreakdown", "CycleDetected", "Experiment", "GraphConstructionError", "InvalidDepth",
    "InvalidValue", "LayerCosts", "MakespanOverflow", "MemoryEstimate", "MissingField",
    "ModelConfig", "NegativeDuration", "NoFeasible", "PlacementPlan", "ScheduleKind",
    "ScheduleTrace", "SchemaViolation", "SearchSpaceTooLarge", "SerializationError",
    "SimResult", "StageTimes", "Task", "TaskGraph", "TaskKind", "Workload", "allocate",
    "arithmetic_intensities", "assign_layers", "attention_flops", "brute_force_oracle",
    "build_task_graph", "check_schedule", "cost_breakdown", "enumerate_feasible",
    "ep_a2a_bytes_per_gpu", "export_trace", "export_trace_json", "ffn_flops", "layer_costs",
    "load_experiment", "m2n_comm_bytes", "memory_estimate", "oom_check", "parse_experiment",
    "phase1_min_bottleneck", "phase2_tiebreak", "phase3_refine", "roofline_attainable",
    "serialize_experiment", "simulate", "stage_times", "staged_layer_time", "turning_points",
    "validate", "validate_partition", "warmup_bubble_analytic", "write_trace",
]
SUBMODULES = ["allocator", "config", "costs", "placement", "sim", "taskgraph", "trace_io"]


def _fresh(code: str):
    """JSON that `code` prints in a new interpreter with afpipe importable."""
    prelude = f"import json, sys\nsys.path.insert(0, {os.path.join(REPO, 'src')!r})\n"
    run = subprocess.run([sys.executable, "-E", "-c", prelude + code], cwd=REPO,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    return json.loads(run.stdout)


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'afpipe')))"


def test_load_experiment_loads_only_config():
    code = "import afpipe\nafpipe.load_experiment('configs/toy.yaml')\n" + LOADED
    assert _fresh(code) == ["afpipe", "afpipe.config"]


def test_import_loads_no_module():
    assert _fresh("import afpipe\n" + LOADED) == ["afpipe"]


def test_the_export_list_is_pinned():
    assert len(EXPORTED) == 62
    assert sorted(afpipe.__all__) == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_each_name_is_its_modules_object(name):
    value = getattr(afpipe, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.split(".")[0] == "afpipe"
    assert getattr(module, name) is value


def test_star_import_binds_exactly_all():
    code = ("namespace = {}\nexec('from afpipe import *', namespace)\n"
            "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))")
    assert _fresh(code) == EXPORTED


def test_a_submodule_resolves_after_a_bare_import():
    code = ("import afpipe\n"
            f"print(json.dumps([getattr(afpipe, m).__name__ for m in {SUBMODULES!r}]))")
    assert _fresh(code) == [f"afpipe.{m}" for m in SUBMODULES]


def test_dir_lists_every_name_and_submodule():
    assert set(EXPORTED + SUBMODULES + ["__version__"]) <= set(dir(afpipe))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'afpipe' has no attribute 'nope'$"):
        afpipe.nope
    assert not hasattr(afpipe, "nope")
