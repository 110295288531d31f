"""Command-line front end: simulate, allocate, sweep, compare.

Exit codes: 0 ok, 2 configuration error (a bad config file or option
value), 3 simulation error, 4 no feasible allocation, 5 an output file could
not be written. main maps library exceptions to these codes; the verbs let
them propagate. The AFPIPE_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import asdict, replace

from . import allocator as alloc_mod
from .allocator import AllocatorParams, NoFeasible, canonical_allocation
from .config import ConfigError, Experiment, ScheduleKind, load_experiment, validate
from .costs import attention_flops, ffn_flops, m2n_comm_bytes
from .report import (
    DEFAULT_GPU_MEMORY_BYTES,
    build_run_report,
    estimate_oom,
    format_ms,
    report_to_json,
    run_schedule,
    speedup,
)
from .sim import CycleDetected, MakespanOverflow, NegativeDuration, Retimer
from .taskgraph import GraphConstructionError
from .trace_io import write_trace

log = logging.getLogger("afpipe")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5

_SCHEDULE_CHOICES = [k.value for k in ScheduleKind]
_SWEEP_AXES = ("seq_len", "topk", "ep_size", "virtual_stages", "attn_gpu_share")
_SIMULATION_ERRORS = (GraphConstructionError, CycleDetected, NegativeDuration, MakespanOverflow)
# The schedule families in the order sweep runs them, each over every point:
# a family keeps one topology from point to point unless the axis moves it,
# and megatron1f1b and chunked share theirs at every point.
_FAMILIES = (
    (ScheduleKind.AFPIPE,),
    (ScheduleKind.MEGATRON_1F1B, ScheduleKind.CHUNKED_OVERLAP),
    (ScheduleKind.NAIVE_SEQUENTIAL,),
)
_SPLIT = ("M={0.attn_gpus} N={0.ffn_gpus} Ma={0.attn_nics} Mf={0.ffn_nics} "
          "(m={0.attn_nodes}x{0.attn_gpus_per_node}, n={0.ffn_nodes}x{0.ffn_gpus_per_node})")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _setup_logging() -> None:
    level = os.environ.get("AFPIPE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load(path: str) -> Experiment:
    if not os.path.exists(path):
        raise _CliError(EXIT_CONFIG, f"config file not found: {path}")
    try:
        return load_experiment(path)
    except (ConfigError, OSError) as exc:
        raise _CliError(EXIT_CONFIG, f"config error in {path}: {exc}") from exc


def _resolve_allocation(exp: Experiment, args) -> alloc_mod.Allocation:
    """The analytic default split, or the one the overrides name (half of a count not given)."""
    cluster = exp.cluster
    if args.attn_gpus is None and args.attn_nics is None:
        return alloc_mod.default_allocation(exp, equal_nics=args.equal_nics)
    return canonical_allocation(
        cluster,
        cluster.total_gpus // 2 if args.attn_gpus is None else args.attn_gpus,
        cluster.total_nics // 2 if args.attn_nics is None else args.attn_nics,
        args.equal_nics,
    )


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {path}: {exc.strerror}") from exc


def _print_result_table(rows: list[tuple]) -> None:
    header = ("schedule", "iter_ms", "bubble_frac", "exposed_ms", "mfu", "warmup_ms")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def _result_row(kind: ScheduleKind, result) -> tuple:
    return (
        kind.value,
        format_ms(result.iteration_time),
        f"{result.bubble_fraction:.4f}",
        format_ms(result.exposed_comm),
        f"{result.mfu:.4f}",
        format_ms(result.bubble_warmup),
    )


def cmd_simulate(args) -> int:
    exp = _load(args.config)
    kind = exp.schedule_kind if args.schedule is None else ScheduleKind(args.schedule)
    alloc = _resolve_allocation(exp, args)
    trace, result = run_schedule(exp, kind, alloc)
    report = build_run_report(exp, alloc, {kind: result}, args.mem_cap)
    print("allocation: " + _SPLIT.format(alloc))
    _print_result_table([_result_row(kind, result)])
    for warning in report.warnings:
        print(f"warning: {warning}")
    if args.trace:
        try:
            write_trace(trace, args.trace)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot write {args.trace}: {exc.strerror}") from exc
        log.info("trace written to %s", args.trace)
    if args.out:
        _write_output(args.out, report_to_json(report))
    return EXIT_OK


def cmd_allocate(args) -> int:
    exp = _load(args.config)
    try:
        params = AllocatorParams(
            radius=args.radius, trials=args.trials, epsilon=args.epsilon, rng_seed=args.seed
        )
    except ValueError as exc:
        raise _CliError(EXIT_CONFIG, f"invalid option: {exc}") from exc
    report = alloc_mod.allocate(exp, params, equal_nics=args.equal_nics)
    print("best allocation: " + _SPLIT.format(report.best))
    print(f"T* = {format_ms(report.t_star)} ms")
    print(f"phase 1 retained {report.phase1_set_size} candidate(s); "
          f"seed M={report.seed_alloc.attn_gpus} Ma={report.seed_alloc.attn_nics}; "
          f"{report.refine_improvements} refinement improvement(s) over {args.trials} trial(s)")
    payload = {
        "best": asdict(report.best),
        "t_star": report.t_star,
        "phase1_set_size": report.phase1_set_size,
        "seed": asdict(report.seed_alloc),
        "refine_improvements": report.refine_improvements,
    }
    if args.out:
        _write_output(args.out, json.dumps(payload, indent=2, sort_keys=True))
    if args.trace_csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["attn_gpus", "ffn_gpus", "attn_nics", "ffn_nics", "profiled_time_s"])
        for cand, t in report.objective_trace:
            writer.writerow([cand.attn_gpus, cand.ffn_gpus, cand.attn_nics, cand.ffn_nics, repr(t)])
        _write_output(args.trace_csv, buf.getvalue())
    return EXIT_OK


def _apply_axis(exp: Experiment, axis: str, raw: str) -> tuple[Experiment, float, int | None]:
    """Return (experiment at this sweep point, numeric value, forced attn gpus).

    The point must pass config.validate like a document; only the two rules
    that belong to an axis are checked here.
    """
    try:
        value = float(raw) if axis == "attn_gpu_share" else int(raw)
    except ValueError:
        raise _CliError(EXIT_CONFIG, f"invalid value {raw!r} for axis {axis}") from None
    forced_gpus = None
    if axis == "seq_len":
        exp = replace(exp, workload=replace(exp.workload, seq_len=value))
    elif axis == "topk":
        exp = replace(exp, model=replace(exp.model, topk=value))
    elif axis == "ep_size":
        exp = replace(exp, ep_size=value)
    elif axis == "virtual_stages":
        layers = exp.model.layers
        if value < 1 or layers % value != 0:
            raise _CliError(
                EXIT_CONFIG,
                f"virtual_stages must divide layers={layers} evenly, got {value}",
            )
        exp = replace(exp, virtual_stages=value, pipeline_depth=layers // value)
    else:  # attn_gpu_share; a rounded count that empties a side is infeasible like any split
        if not 0 < value < 1:  # rejects NaN too
            raise _CliError(EXIT_CONFIG, f"attn_gpu_share must lie in (0, 1), got {value}")
        forced_gpus = round(exp.cluster.total_gpus * value)
    violations = validate(exp)
    if violations:
        raise _CliError(EXIT_CONFIG, violations[0])
    return exp, value, forced_gpus


def _sweep_point(exp: Experiment, args, raw: str) -> tuple:
    """(experiment, value, allocation, attention FLOPs, FFN FLOPs, OOM flag) of one value."""
    point, value, forced_gpus = _apply_axis(exp, args.axis, raw)
    if forced_gpus is not None:
        alloc = canonical_allocation(
            point.cluster, forced_gpus, point.cluster.total_nics // 2, args.equal_nics
        )
    else:
        alloc = alloc_mod.default_allocation(point, equal_nics=args.equal_nics)
    c_a = float(attention_flops(point.model, point.workload))
    c_f = float(ffn_flops(point.model, point.workload))
    oom = estimate_oom(point, alloc, args.mem_cap)
    return point, value, alloc, c_a, c_f, oom


def _log_retimer(verb: str, points: int, counts) -> None:
    log.debug("%s: %d points, %d plans built, %d runs, %d memo hits",
              verb, points, counts["plans"], counts["retimed"], counts["calls"] - counts["retimed"])


def cmd_sweep(args) -> int:
    """One CSV row per (point, schedule), point by point.

    The simulations run family by family (_FAMILIES) on one Retimer, so each
    topology is planned once and only one plan is alive at a time. A point's
    error and a simulation's error are raised once every step before them,
    in point-by-point order, has run, so the first failing step sets the
    exit code as if the points ran in that order.
    """
    exp = _load(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise _CliError(EXIT_CONFIG, "no sweep values given")

    # The first failure in point-by-point order: its (point, kind index),
    # where -1 is the point's own set-up, and the exception.
    failure: tuple[tuple[int, int], Exception] | None = None
    points = []
    for i, raw in enumerate(values):
        try:
            points.append(_sweep_point(exp, args, raw))
        except (_CliError, ConfigError, NoFeasible) as exc:  # raised after earlier points
            failure = ((i, -1), exc)
            break

    kinds = list(ScheduleKind)
    results: list[dict] = [{} for _ in points]
    retimer = Retimer()
    for family in _FAMILIES:
        for i, (point, _, alloc, *_) in enumerate(points):
            for kind in family:
                at = (i, kinds.index(kind))
                if failure is not None and at > failure[0]:
                    break
                try:
                    _, results[i][kind] = run_schedule(point, kind, alloc, retimer)
                except _SIMULATION_ERRORS as exc:  # earlier than any failure so far
                    failure = (at, exc)
    _log_retimer("sweep", len(points), retimer.counts)
    if failure is not None:
        raise failure[1]

    fieldnames = [
        "schedule", "axis", "value", "iteration_time_s", "bubble_fraction",
        "exposed_comm_s", "mfu", "speedup_vs_megatron", "attn_flops_share",
        "m2n_bytes", "oom_flag",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for (point, value, _, c_a, c_f, oom), by_kind in zip(points, results):
        base = by_kind[ScheduleKind.MEGATRON_1F1B]
        for kind in ScheduleKind:
            result = by_kind[kind]
            writer.writerow({
                "schedule": kind.value,
                "axis": args.axis,
                "value": value,
                "iteration_time_s": repr(result.iteration_time),
                "bubble_fraction": repr(result.bubble_fraction),
                "exposed_comm_s": repr(result.exposed_comm),
                "mfu": repr(result.mfu),
                "speedup_vs_megatron": repr(speedup(base, result)),
                "attn_flops_share": repr(c_a / (c_a + c_f)),
                "m2n_bytes": m2n_comm_bytes(point.model, point.workload),
                "oom_flag": oom,
            })

    text = buf.getvalue()
    if args.out:
        _write_output(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_compare(args) -> int:
    exp = _load(args.config)
    alloc = _resolve_allocation(exp, args)
    results = {}
    retimer = Retimer()  # megatron1f1b and chunked, adjacent, share one plan
    for kind in ScheduleKind:
        _, results[kind] = run_schedule(exp, kind, alloc, retimer)
    _log_retimer("compare", 1, retimer.counts)
    _print_result_table([_result_row(kind, results[kind]) for kind in ScheduleKind])
    af = results[ScheduleKind.AFPIPE]
    print()
    for kind in ScheduleKind:
        if kind is ScheduleKind.AFPIPE:
            continue
        other = results[kind]
        sp = speedup(other, af)
        if other.exposed_comm > 0:
            cut = 100.0 * (1.0 - af.exposed_comm / other.exposed_comm)
            reduction = f"exposed comm reduced by {cut:.1f}%"
        else:
            reduction = "no exposed comm to reduce"
        print(f"afpipe vs {kind.value}: speedup {sp:.4f}, {reduction}")
    if args.out:
        report = build_run_report(exp, alloc, results, args.mem_cap)
        _write_output(args.out, report_to_json(report))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, mem_cap: bool = True) -> None:
    parser.add_argument("--config", required=True, help="experiment document path")
    parser.add_argument("--equal-nics", action="store_true",
                        help="force both groups to take half of the NICs")
    if mem_cap:
        parser.add_argument("--mem-cap", type=float, default=DEFAULT_GPU_MEMORY_BYTES,
                            help="per-GPU memory capacity in bytes for OOM checks")


def _add_alloc_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--attn-gpus", type=int, default=None,
                        help="override the attention-side GPU count")
    parser.add_argument("--attn-nics", type=int, default=None,
                        help="override the attention-side NIC count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afpipe",
        description="Simulate and optimize disaggregated MoE training pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one schedule")
    _add_common(p_sim)
    _add_alloc_overrides(p_sim)
    p_sim.add_argument("--schedule", choices=_SCHEDULE_CHOICES, default=None,
                       help="schedule to simulate (default: the document's schedule_kind)")
    p_sim.add_argument("--trace", default=None, help="write a trace-event JSON file")
    p_sim.add_argument("--out", default=None, help="write the report JSON")
    p_sim.set_defaults(func=cmd_simulate)

    p_alloc = sub.add_parser("allocate", help="search for the best GPU/NIC split")
    _add_common(p_alloc, mem_cap=False)
    p_alloc.add_argument("--radius", type=int, default=2)
    p_alloc.add_argument("--trials", type=int, default=64)
    p_alloc.add_argument("--epsilon", type=float, default=1e-3)
    p_alloc.add_argument("--seed", type=int, default=0)
    p_alloc.add_argument("--out", default=None, help="write the allocation report JSON")
    p_alloc.add_argument("--trace-csv", default=None,
                         help="write the profiled-candidate trace as CSV")
    p_alloc.set_defaults(func=cmd_allocate)

    p_sweep = sub.add_parser("sweep", help="sweep one axis across all schedules")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=_SWEEP_AXES, required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run all four schedules on one config")
    _add_common(p_cmp)
    _add_alloc_overrides(p_cmp)
    p_cmp.add_argument("--out", default=None, help="write the report JSON")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "mem_cap" in args and not args.mem_cap > 0:
            raise _CliError(EXIT_CONFIG, f"--mem-cap must be > 0, got {args.mem_cap}")
        return args.func(args)
    except _CliError as exc:
        code, message = exc.code, str(exc)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, str(exc)
    except _SIMULATION_ERRORS as exc:
        code, message = EXIT_SIMULATION, f"simulation failed: {exc}"
    except NoFeasible as exc:
        code, message = EXIT_INFEASIBLE, f"no feasible allocation: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
