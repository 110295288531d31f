#!/usr/bin/env python3
"""Host-time benchmark for afpipe.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --record-golden

One closed-loop client (one process, one thread, pinned to one CPU) runs
one workload's ops back to back. The program is imported from ``src/`` of the checkout. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it reports the per-layer metrics from outside-in spans (see
``tracing.py``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Every op's outputs are
checked against ``golden.json``; an op that raises, exits non-zero or writes
other bytes counts as failed. All times are host times.

``--self-test`` runs every workload for a few ops and checks the metric
names and units, the golden gate and seeded input generation.
``--record-golden`` rewrites ``golden.json`` from the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
from hostspeed import ProbeProcess, scale  # noqa: E402
from workloads import WORKLOADS, OpRunner, curve_items, visit_order, write_inputs  # noqa: E402

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
RUN_DIR = ".bench_run"
SETUP_RUNS = 15

# Cold start in a fresh interpreter: import the package and parse the config.
# The host-speed probe runs after the timed part, so it cannot warm it.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import afpipe
afpipe.load_experiment(sys.argv[2])
elapsed = time.perf_counter() - start
if not afpipe.__file__.startswith(sys.argv[1]):
    sys.exit("afpipe imported from " + afpipe.__file__)
sys.path.insert(0, sys.argv[3])
from hostspeed import probe_s
print(repr(elapsed), repr(probe_s(1)))
"""


class BenchError(Exception):
    pass


def import_afpipe(root: str) -> types.SimpleNamespace:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "afpipe", "__init__.py")):
        raise BenchError(f"no afpipe package under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import afpipe
    from afpipe import allocator, cli, config, report, sim, taskgraph

    if not os.path.abspath(afpipe.__file__).startswith(src + os.sep):
        raise BenchError(f"afpipe was imported from {afpipe.__file__}, not from {src}")
    return types.SimpleNamespace(
        allocator=allocator, cli=cli, config=config, report=report, sim=sim, taskgraph=taskgraph
    )


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def work_directory(root: str, label: str):
    """A fresh directory under the checkout, made the working directory."""
    path = os.path.join(root, RUN_DIR, f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)


def measure_setup(root: str, config_path: str, runs: int) -> tuple[float, float]:
    """Median cold-start time over `runs` fresh interpreters, after one untimed.

    Returns (at the reference host speed, raw). Each interpreter's time is
    scaled by the probe that interpreter runs after its timed part.
    """
    src = os.path.join(root, "src")
    raw, scaled = [], []
    for i in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-E", "-c", _SETUP_CODE, src, config_path, BENCH_DIR],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up run failed: {proc.stderr.strip()}")
        if i:
            elapsed, probe = map(float, proc.stdout.split())
            raw.append(elapsed)
            scaled.append(scale(elapsed, probe))
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Op outcomes of one run: timings and failures."""

    def __init__(self, runner: OpRunner):
        self.runner = runner
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def op(self, item, tracer=None, op_id=None, root_name="cli.main") -> float:
        """Run one item, check its outputs, and return its wall time."""
        self.runner.clear_outputs(item)
        gc.collect()
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                completed, text = self.runner.execute(item)
            else:
                tracer.install()
                try:
                    completed, text = tracer.root(op_id, root_name, self.runner.execute, item)
                finally:
                    tracer.uninstall()
        except (Exception, SystemExit) as exc:  # any failure of the program is a failed op
            completed, text, error = False, None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        error = error or self.runner.check(item, completed, text)
        self.attempted += 1
        if error:
            self.failures.append((item.key, error))
        return elapsed


def _cycles(order: list, seconds: float, max_ops: int | None):
    """Whole cycles through `order` until `seconds` are nearly used.

    Another cycle starts only if it is expected to end no more than half a
    cycle past `seconds`, so every run times whole cycles. `max_ops` caps the
    number of items instead (self-test).
    """
    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for item in order:
            if max_ops is not None and done >= max_ops:
                return
            yield item
            done += 1
        now = time.perf_counter()
        if max_ops is None and now - start + (now - cycle_start) / 2 > seconds:
            return


def run_end_to_end(run: Run, items: list, seconds: float, max_ops=None) -> dict:
    """Time whole cycles of ops, each scaled to the reference host speed.

    Each op's wall time is scaled by the mean of the probe times measured
    just before and just after it.
    """
    run.op(items[0])  # untimed warm-up
    order = items[1:] + items[:1]
    walls, scaled = [], []
    with ProbeProcess() as probe_s:
        before = probe_s()
        for item in _cycles(order, seconds, max_ops):
            wall = run.op(item)
            after = probe_s()
            walls.append(wall)
            scaled.append(scale(wall, (before + after) / 2))
            before = after
    return {
        "op_p50_s": statistics.median(scaled),
        "ops_per_s": len(scaled) / sum(scaled),
        "walls": walls,
        "scaled": scaled,
        "speed": statistics.median(w / s for w, s in zip(walls, scaled)),
    }


def tail_note(times: list[float]) -> str:
    """op_tail_s: the highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 20:
        return (f"op_tail_s omitted: {n} timed ops leave no percentile above the median "
                f"with 10 samples beyond it")
    rank = n - 10
    return f"op_tail_s = {sorted(times)[rank - 1]!r} s (p{100 * rank // n} of {n} ops)"


def run_traced(run: Run, modules, workload, items: list, seconds: float,
               spans_path: str, max_ops=None) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced ops, each paired with an untraced run of its item."""
    tracer = tracing.Tracer(modules)
    root_name = "bench.op" if items[0].kind == "oracle" else "cli.main"
    run.op(items[0])  # untimed warm-up
    order = items[1:] + items[:1]
    traced_times, plain_times = [], []
    start = time.perf_counter()
    # At most one pass over the pool: per-layer metrics have no bound, and
    # the pairs take twice as long as the untraced run's ops.
    for n, item in enumerate(order[:max_ops]):
        if n and time.perf_counter() - start > seconds:
            break
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                traced_times.append(run.op(item, tracer, f"{item.key}#{n}", root_name))
            else:
                plain_times.append(run.op(item))
    ops = tracing.spans_by_op(tracer.spans)
    metrics = tracing.median_metrics([tracing.op_metrics(spans) for spans in ops.values()])
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    roles = role_check(workload, ops)

    for item in curve_items():
        run.op(item, tracer, item.key)
        per_op = tracing.op_metrics(tracing.spans_by_op(tracer.spans)[item.key])
        metrics[f"sim.ns_per_task.{item.key}"] = per_op["sim.ns_per_task"]
    tracer.write(spans_path)
    return metrics, roles


def role_check(workload, ops) -> list[str]:
    """Whether traced ops ran the layers the workload is meant to stress.

    One line per check, starting with "role ok" or "role FAILED".
    """
    checks = []
    op_spans = [span for group in ops.values() for _, span in group]
    present = {span[1].split(".", 1)[0] for span in op_spans}
    for layer in workload.forbidden_layers:
        checks.append((layer not in present, f"no {layer} span"))
    if workload.dominant_spans:
        roots = sum(s[5] - s[4] for s in op_spans if s[3] is None)
        share = sum(s[5] - s[4] for s in op_spans if s[1] in workload.dominant_spans) / roots
        checks.append((share > 0.5, f"{' + '.join(workload.dominant_spans)} = {share:.1%} "
                                    f"of traced op time, more than half"))
    return [f"role {'ok' if ok else 'FAILED'}: {what}" for ok, what in checks]


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 golden: dict, max_ops=None, setup_runs=SETUP_RUNS) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, diagnostic lines)."""
    workload = WORKLOADS[name]
    spec = load_spec(root)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    modules = import_afpipe(root)
    os.environ.pop("AFPIPE_LOG", None)
    items = visit_order(workload, seed)
    run = Run(OpRunner(modules, golden))
    notes = [f"workload {name}, seed {seed}, visit order {[i.key for i in items]}"]
    with work_directory(root, f"{name}-s{seed}") as workdir:
        write_inputs(items + (list(curve_items()) if trace else []), workdir)
        if trace:
            spans_path = os.path.join(root, RUN_DIR, f"spans-{name}-s{seed}.json")
            metrics, roles = run_traced(run, modules, workload, items, seconds, spans_path,
                                        max_ops)
            notes += roles + [f"spans written to {os.path.relpath(spans_path, root)}"]
        else:
            setup_s, setup_raw = measure_setup(root, os.path.join(workdir, items[0].config),
                                               setup_runs)
            timing = run_end_to_end(run, items, seconds, max_ops)
            metrics = {
                "op_p50_s": timing["op_p50_s"],
                "ops_per_s": timing["ops_per_s"],
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes.append("op wall times (s): " + " ".join(f"{t:.3f}" for t in timing["walls"]))
            notes.append(f"median op wall time {statistics.median(timing['walls'])!r} s; host "
                         f"ran at {1 / timing['speed']:.3f} of the reference speed")
            notes.append(f"median raw set-up time {setup_raw!r} s")
            notes.append(tail_note(timing["scaled"]))
    notes.append(f"failed_share = {len(run.failures)}/{run.attempted} ops")
    notes += [f"failed op {key}: {why}" for key, why in run.failures]
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, notes


def record_golden(root: str) -> int:
    """Run every pool item and the curve once and store their output hashes."""
    modules = import_afpipe(root)
    os.environ.pop("AFPIPE_LOG", None)
    runner = OpRunner(modules, {})
    items = [item for w in WORKLOADS.values() for item in w.pool] + list(curve_items())
    golden: dict[str, dict] = {}
    with work_directory(root, "golden") as workdir:
        write_inputs(items, workdir)
        for item in items:
            runner.clear_outputs(item)
            completed, text = runner.execute(item)
            if not completed:
                raise BenchError(f"{item.group}/{item.key} did not complete")
            golden.setdefault(item.group, {})[item.key] = runner.hashes(item, text)
            print(f"recorded {item.group}/{item.key}", flush=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def self_test(root: str) -> int:
    """Fast checks of the benchmark itself; exits non-zero if any fails."""
    spec = load_spec(root)
    expected = {
        False: sorted(m["name"] for m in spec["end_to_end"]),
        True: sorted(m["name"] for m in spec["per_layer"]),
    }
    golden = load_golden()
    problems = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for name, workload in WORKLOADS.items():
        texts = []
        for attempt in range(2):
            with work_directory(root, f"selftest-inputs{attempt}") as workdir:
                write_inputs(visit_order(workload, 7), workdir)
                texts.append({
                    path.name: path.read_bytes()
                    for path in sorted(pathlib.Path(workdir).glob("*.*")) if path.is_file()
                })
        check(texts[0] == texts[1], f"{name}: seed 7 generates identical inputs twice")

        # Corrupt the golden of the first timed op: exactly that op must fail.
        first_timed = visit_order(workload, 7)[1].key
        corrupted = json.loads(json.dumps(golden))
        entry = corrupted[name][first_timed]
        entry[next(iter(entry))] = "0" * 64
        result, _ = run_workload(root, name, 7, 0, False, corrupted, max_ops=1, setup_runs=1)
        got = sorted(result["metrics"])
        check(got == expected[False], f"{name}: end-to-end metrics {got}")
        check((result["attempted"], result["failed"]) == (2, 1),
              f"{name}: one corrupted golden fails exactly one of two ops "
              f"({result['failed']}/{result['attempted']})")

        result, notes = run_workload(root, name, 7, 0, True, golden, max_ops=1)
        check(sorted(result["metrics"]) == expected[True], f"{name}: per-layer metrics")
        check(result["failed"] == 0, f"{name}: traced run has no failed op")
        roles = [line for line in notes if line.startswith("role ")]
        check(all(line.startswith("role ok") for line in roles),
              f"{name}: traced ops show the workload's role: {'; '.join(roles)}")

    with work_directory(root, "selftest-bare") as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, os.path.basename(BENCH_DIR)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(BENCH_DIR), "run.py"),
             "--workload", "simulate_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "a directory without the program exits non-zero and prints no result")

    print(f"self-test: {len(problems)} failure(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    # One CPU for the client and every process it starts, so that the
    # host-speed probe runs where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.self_test:
            return self_test(root)
        if args.record_golden:
            return record_golden(root)
        if args.workload is None:
            parser.error("--workload is required")
        result, notes = run_workload(root, args.workload, args.seed, args.seconds,
                                     bool(args.trace), load_golden())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
