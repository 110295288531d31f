"""sweep and compare re-time one kept schedule plan per topology.

A point of a sweep changes only a graph's table and total_flops unless the
axis moves its topology, so sweep plans each topology once and re-times it
(sim.Retimer). These tests hold the CSV to fresh per-point simulations, pin
how many plans and runs a sweep does, and pin that failures keep the exit
code of running the points in order.
"""

import contextlib
import io
import logging
import os
import re
from dataclasses import replace

import pytest

from afpipe import cli, report
from afpipe.allocator import default_allocation
from afpipe.config import ScheduleKind, load_experiment
from afpipe.costs import BACKWARD_MULTIPLIER, layer_costs
from afpipe.report import run_schedule
from afpipe.sim import Retimer
from afpipe.taskgraph import GraphConstructionError, build_task_graph

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = os.path.join(REPO, "configs", "toy.yaml")
DEEPSEEK = os.path.join(REPO, "configs", "deepseek_moe.yaml")

AXIS_VALUES = {
    TOY: {
        "seq_len": "512,1024,2048",
        "topk": "1,2,4",
        "ep_size": "1,2,4",
        "virtual_stages": "1,2,4",
        "attn_gpu_share": "0.25,0.5,0.75",
    },
    DEEPSEEK: {
        "seq_len": "4096,8192,16384",
        "topk": "2,4,8",
        "ep_size": "1,4,16",
        "virtual_stages": "1,7,28",
        "attn_gpu_share": "0.25,0.5,0.75",
    },
}
CASES = [(config, axis) for config, axes in AXIS_VALUES.items() for axis in axes]


def _sweep(*argv):
    """cli.main's exit code, stdout and stderr for one sweep."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", *argv])
    return code, out.getvalue(), err.getvalue()


def _counts(caplog, verb):
    """(points, plans built, runs, memo hits) of the one line verb logged on logger afpipe."""
    lines = [r.getMessage() for r in caplog.records
             if r.name == "afpipe" and r.getMessage().startswith(f"{verb}: ")]
    assert len(lines) == 1, lines
    match = re.fullmatch(
        rf"{verb}: (\d+) points, (\d+) plans built, (\d+) runs, (\d+) memo hits", lines[0])
    assert match, lines[0]
    return tuple(map(int, match.groups()))


@pytest.mark.parametrize("config,axis", CASES,
                         ids=[f"{os.path.basename(c)[:-5]}-{a}" for c, a in CASES])
def test_sweep_equals_fresh_simulations_per_point(config, axis, monkeypatch):
    argv = ["--config", config, "--axis", axis, "--values", AXIS_VALUES[config][axis]]
    code, kept, _ = _sweep(*argv)
    assert code == 0
    # The reference builds and plans every (point, schedule) on its own.
    def fresh(exp, kind, alloc, retimer=None):
        return report.run_schedule(exp, kind, alloc)
    monkeypatch.setattr(cli, "run_schedule", fresh)
    code, fresh, _ = _sweep(*argv)
    assert code == 0
    assert kept == fresh


@pytest.mark.parametrize("argv,counts", [
    # afpipe and the staged pair change topology at every depth; naive never
    # does, and its table is the same at every point: 6 + 6 + 1 plans, and
    # 6 + 12 + 1 runs of 24 simulations.
    (["--config", DEEPSEEK, "--axis", "virtual_stages", "--values", "1,2,4,7,14,28"],
     (6, 13, 19, 5)),
    # One topology per family: afpipe, the staged pair and naive.
    (["--config", TOY, "--axis", "seq_len", "--values", "512,1024,2048,4096"], (4, 3, 16, 0)),
    # Only afpipe's table reads the split. megatron1f1b and chunked alternate
    # on one plan and each hits its own earlier run: 3 + 2 + 1 runs.
    (["--config", TOY, "--axis", "attn_gpu_share", "--values", "0.25,0.5,0.75"], (3, 3, 6, 6)),
], ids=["virtual_stages", "seq_len", "attn_gpu_share"])
def test_sweep_plans_each_topology_once(argv, counts, caplog):
    with caplog.at_level(logging.DEBUG, logger="afpipe"):
        assert _sweep(*argv)[0] == 0
    assert _counts(caplog, "sweep") == counts


def test_compare_plans_three_topologies_for_four_schedules(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="afpipe"):
        assert cli.main(["compare", "--config", TOY]) == 0
    assert _counts(caplog, "compare") == (1, 3, 4, 0)


def test_back_to_back_sweeps_share_no_plan(caplog):
    argv = ["--config", TOY, "--axis", "topk", "--values", "1,2"]
    outputs = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="afpipe"):
            code, out, _ = _sweep(*argv)
        assert code == 0
        outputs.append(out)
        assert _counts(caplog, "sweep")[1] == 3  # every call plans its own topologies
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("config", [TOY, DEEPSEEK], ids=["toy", "deepseek"])
def test_ep_size_sweep_runs_the_afpipe_plan_once(config, caplog):
    # The afpipe table reads no ep_size (its exchange is t_m2n), so every
    # point after the first is a memo hit on the first point's run.
    base = load_experiment(config)
    retimer = Retimer()
    sizes = (1, 2, 4, 8)
    with caplog.at_level(logging.DEBUG, logger="afpipe.sim"):
        for ep_size in sizes:
            point = replace(base, ep_size=ep_size)
            alloc = default_allocation(point)
            _, result = run_schedule(point, ScheduleKind.AFPIPE, alloc, retimer)
            assert result == run_schedule(point, ScheduleKind.AFPIPE, alloc)[1]
    assert retimer.counts == {"plans": 1, "calls": len(sizes), "retimed": 1}
    walls = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("simulate wall: ")]
    kept = walls[::2]  # each point's kept run, then its fresh reference
    assert "(built)" in kept[0] and "(ran)" in kept[0]
    assert all("(reused)" in m and "(memo hit)" in m for m in kept[1:]), kept


def test_graph_of_the_kept_topology_shares_its_tasks():
    exp = replace(load_experiment(TOY), schedule_kind=ScheduleKind.MEGATRON_1F1B)
    alloc = default_allocation(exp)
    kept = build_task_graph(exp, alloc)
    chunked = build_task_graph(replace(exp, schedule_kind=ScheduleKind.CHUNKED_OVERLAP),
                               alloc, like=kept)
    assert chunked.tasks is kept.tasks and chunked.keys is kept.keys
    assert chunked.table != kept.table
    # Another depth or micro-batch count is another topology: its own walk.
    deeper = replace(exp, pipeline_depth=4, virtual_stages=1)
    longer = replace(exp, workload=replace(exp.workload, num_microbatches=5))
    for other in (deeper, longer):
        walked = build_task_graph(other, alloc, like=kept)
        assert walked.tasks is not kept.tasks
        assert walked.tasks == build_task_graph(other, alloc).tasks


@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
def test_each_point_reports_mfu_from_its_own_model_flops(kind):
    # seq_len keeps every topology but moves the MFU numerator.
    base = load_experiment(TOY)
    retimer = Retimer()
    for seq_len in (512, 1024, 2048):
        point = replace(base, workload=replace(base.workload, seq_len=seq_len))
        _, result = run_schedule(point, kind, default_allocation(point), retimer)
        lc = layer_costs(point.model, point.workload, point.ep_size)
        flops = ((float(lc.attn_flops) + float(lc.ffn_flops)) * point.model.layers
                 * point.workload.num_microbatches * (1.0 + BACKWARD_MULTIPLIER))
        cluster = point.cluster
        expected = flops / (result.iteration_time * cluster.total_gpus * cluster.gpu_peak)
        assert 0.0 < result.mfu == min(expected, 1.0)
    assert retimer.counts["plans"] == 1


def test_a_new_topology_replaces_the_kept_plan():
    exp = load_experiment(TOY)
    alloc = default_allocation(exp)
    retimer = Retimer()
    for kind in (ScheduleKind.AFPIPE, ScheduleKind.MEGATRON_1F1B, ScheduleKind.AFPIPE):
        run_schedule(exp, kind, alloc, retimer)
        assert retimer.graph.schedule_kind is kind
    assert retimer.counts == {"plans": 3, "calls": 3, "retimed": 3}


def test_bad_value_after_good_ones_exits_2():
    code, out, err = _sweep("--config", TOY, "--axis", "virtual_stages", "--values", "1,2,3")
    assert code == 2 and out == ""
    assert err == "error: virtual_stages must divide layers=4 evenly, got 3\n"


def _failing_at(monkeypatch, failures):
    """Make cli.run_schedule raise at the (seq_len, kind) steps failures names."""
    def run(exp, kind, alloc, retimer=None):
        if (exp.workload.seq_len, kind) in failures:
            raise GraphConstructionError(f"{kind.value} at {exp.workload.seq_len}")
        return run_schedule(exp, kind, alloc, retimer)
    monkeypatch.setattr(cli, "run_schedule", run)


@pytest.mark.parametrize("values,failures,code,message", [
    # Sweep runs afpipe at every point before naive at the first, but naive
    # at 1024 comes first in point order, so it sets the exit.
    ("1024,2048", {(1024, ScheduleKind.NAIVE_SEQUENTIAL), (2048, ScheduleKind.AFPIPE)},
     3, "simulation failed: naive at 1024"),
    ("1024,2048", {(2048, ScheduleKind.AFPIPE), (2048, ScheduleKind.CHUNKED_OVERLAP)},
     3, "simulation failed: afpipe at 2048"),
    ("1024,2048", {(2048, ScheduleKind.CHUNKED_OVERLAP), (2048, ScheduleKind.NAIVE_SEQUENTIAL)},
     3, "simulation failed: chunked at 2048"),
    # A point's simulation error comes before a later bad value, and a bad
    # value before any later point's simulation.
    ("1024,x", {(1024, ScheduleKind.MEGATRON_1F1B)}, 3, "simulation failed: megatron1f1b at 1024"),
    ("1024,x,2048", {(2048, ScheduleKind.AFPIPE)}, 2, "invalid value 'x' for axis seq_len"),
])
def test_the_first_failure_in_point_order_sets_the_exit(values, failures, code, message,
                                                         monkeypatch):
    _failing_at(monkeypatch, failures)
    assert _sweep("--config", TOY, "--axis", "seq_len", f"--values={values}") == (
        code, "", f"error: {message}\n")
