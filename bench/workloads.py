"""Workload definitions: input pools, seeded input generation, ops and golden checks.

Every workload is a fixed pool of items. A benchmark seed chooses the order in
which one client visits the pool; the same seed always yields byte-identical
input files. An item is one operation: one CLI verb through
``afpipe.cli.main(argv)`` or one ``brute_force_oracle`` call. Every output an
item writes is hashed and compared with the hash recorded in ``golden.json``
for that item, so an op whose outputs differ from the recorded ones fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

# The bundled deepseek_moe experiment, restated here so that the benchmark's
# inputs do not change when the repository's example configs do.
DEEPSEEK = {
    "model": {
        "layers": 28, "hidden": 2048, "experts": 64, "topk": 4, "moe_hidden": 1408,
        "gqa_group": 1, "bytes_per_element": 2,
    },
    "workload": {"seq_len": 8192, "micro_batch": 1, "num_microbatches": 8},
    "cluster": {
        "total_gpus": 16, "gpus_per_node": 8, "total_nics": 16,
        "gpu_peak": "9.89e14", "ib_bw": "1.0e11", "nvlink_bw": "4.0e11",
    },
    "schedule": {
        "schedule_kind": "afpipe", "pipeline_depth": 2, "virtual_stages": 14, "ep_size": 16,
    },
}

SEQ_LENS = (2048, 4096, 8192, 16384, 32768)
CURVE_MICROBATCHES = (8, 32, 128)


def experiment_yaml(**overrides) -> str:
    """The deepseek experiment document with some fields replaced."""
    lines = []
    for section, fields in DEEPSEEK.items():
        lines.append(f"{section}:")
        for key, value in fields.items():
            lines.append(f"  {key}: {overrides.get(key, value)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Item:
    """One operation of a workload and the files it reads and writes.

    ``argv`` is a CLI argument list for ``kind == "cli"``; an oracle item has
    no argv and reads ``config`` itself. Paths are relative to the run's
    working directory. ``outputs`` maps an output name to its file; an oracle
    item's single output is its (split, time) result. ``group`` and ``key``
    name the item's entry in the golden hashes.
    """

    group: str
    key: str
    kind: str
    config: str
    yaml: str
    argv: tuple[str, ...] = ()
    outputs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[Item, ...]
    # Span layers that must not appear in this workload's traced ops.
    forbidden_layers: tuple[str, ...] = ()
    # Spans whose total time must exceed half of the op time, for the role check.
    dominant_spans: tuple[str, ...] = ()


def _simulate_large() -> Workload:
    cfg = "simulate_large.yaml"
    text = experiment_yaml(num_microbatches=32)
    pool = tuple(
        Item(
            group="simulate_large",
            key=f"M{gpus}_Ma{nics}",
            kind="cli",
            config=cfg,
            yaml=text,
            argv=("simulate", "--config", cfg, "--schedule", "afpipe",
                  "--attn-gpus", str(gpus), "--attn-nics", str(nics),
                  "--trace", "out/trace.json", "--out", "out/report.json"),
            outputs={"trace": "out/trace.json", "report": "out/report.json"},
        )
        for gpus in (4, 12)
        for nics in (4, 12)
    )
    return Workload(
        name="simulate_large",
        pool=pool,
        forbidden_layers=("allocator",),
        dominant_spans=("sim.simulate", "trace_io.write_trace"),
    )


def _sweep_families() -> Workload:
    pool = []
    for seq in SEQ_LENS:
        cfg = f"sweep_seq{seq}.yaml"
        pool.append(Item(
            group="sweep_families",
            key=f"seq{seq}",
            kind="cli",
            config=cfg,
            yaml=experiment_yaml(seq_len=seq, num_microbatches=4),
            argv=("sweep", "--config", cfg, "--axis", "virtual_stages",
                  "--values", "1,2,4,7,14,28", "--out", "out/sweep.csv"),
            outputs={"csv": "out/sweep.csv"},
        ))
    return Workload(
        name="sweep_families",
        pool=tuple(pool),
        forbidden_layers=("trace_io",),
    )


def _allocate_search() -> Workload:
    cfg = "allocate_search.yaml"
    text = experiment_yaml(num_microbatches=4)
    pool = tuple(
        Item(
            group="allocate_search",
            key=f"S{seed}",
            kind="cli",
            config=cfg,
            yaml=text,
            argv=("allocate", "--config", cfg, "--radius", "4", "--trials", "50",
                  "--seed", str(seed), "--out", "out/alloc.json",
                  "--trace-csv", "out/alloc_trace.csv"),
            outputs={"alloc_json": "out/alloc.json", "trace_csv": "out/alloc_trace.csv"},
        )
        for seed in range(6)
    )
    return Workload(
        name="allocate_search",
        pool=pool,
        forbidden_layers=("trace_io",),
        dominant_spans=("allocator.phase3_refine",),
    )


def _oracle_exhaustive() -> Workload:
    pool = []
    for seq in SEQ_LENS:
        cfg = f"oracle_seq{seq}.yaml"
        pool.append(Item(
            group="oracle_exhaustive",
            key=f"seq{seq}",
            kind="oracle",
            config=cfg,
            yaml=experiment_yaml(seq_len=seq, total_gpus=8, total_nics=8, num_microbatches=4),
            outputs={"result": ""},
        ))
    return Workload(
        name="oracle_exhaustive",
        pool=tuple(pool),
        forbidden_layers=("trace_io", "cli"),
    )


WORKLOADS = {w.name: w for w in (
    _simulate_large(), _sweep_families(), _allocate_search(), _oracle_exhaustive()
)}


def curve_items() -> tuple[Item, ...]:
    """The scheduler scaling curve: afpipe simulate at growing micro-batch counts."""
    items = []
    for mb in CURVE_MICROBATCHES:
        cfg = f"curve_mb{mb}.yaml"
        items.append(Item(
            group="curve",
            key=f"mb{mb}",
            kind="cli",
            config=cfg,
            yaml=experiment_yaml(num_microbatches=mb),
            argv=("simulate", "--config", cfg, "--schedule", "afpipe",
                  "--attn-gpus", "8", "--attn-nics", "8", "--out", f"out/curve_mb{mb}.json"),
            outputs={"report": f"out/curve_mb{mb}.json"},
        ))
    return tuple(items)


def visit_order(workload: Workload, seed: int) -> list[Item]:
    """The order in which the seed's client visits the pool.

    The first item is the untimed warm-up op; timed ops then cycle through the
    whole order, so every timed cycle covers every item once.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    return rng.sample(list(workload.pool), len(workload.pool))


def write_inputs(items: list[Item], workdir: str) -> None:
    """Write each item's experiment document and the visit order's argv lists."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    for item in items:
        with open(os.path.join(workdir, item.config), "w", encoding="utf-8") as fh:
            fh.write(item.yaml)
    plan = [{"key": i.key, "kind": i.kind, "config": i.config, "argv": list(i.argv)} for i in items]
    with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class OpRunner:
    """Runs items against an imported afpipe and checks their outputs.

    Relative paths in an item resolve against the process working directory,
    which the caller sets to the run's work directory.
    """

    def __init__(self, afpipe_modules, golden: dict[str, dict[str, dict[str, str]]]):
        self.cli = afpipe_modules.cli
        self.config = afpipe_modules.config
        self.allocator = afpipe_modules.allocator
        self.golden = golden

    def execute(self, item: Item) -> tuple[bool, str | None]:
        """Run one item; return (completed, oracle result text or None)."""
        if item.kind == "oracle":
            exp = self.config.load_experiment(item.config)
            best, best_time = self.allocator.brute_force_oracle(exp)
            return True, json.dumps(
                {"split": dataclasses.asdict(best), "time": repr(best_time)}, sort_keys=True
            )
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(list(item.argv))
        return code == 0, None

    def clear_outputs(self, item: Item) -> None:
        for path in item.outputs.values():
            if path and os.path.exists(path):
                os.remove(path)

    def hashes(self, item: Item, result_text: str | None) -> dict[str, str]:
        out = {}
        for name, path in item.outputs.items():
            if not path:
                out[name] = hashlib.sha256(result_text.encode()).hexdigest()
            elif os.path.exists(path):
                out[name] = _sha256_file(path)
            else:
                out[name] = "missing"
        return out

    def check(self, item: Item, completed: bool, result_text: str | None) -> str | None:
        """None if the op succeeded with golden outputs, else why it failed."""
        if not completed:
            return "non-zero exit code"
        expected = self.golden.get(item.group, {}).get(item.key)
        if expected is None:
            return "no golden recorded"
        got = self.hashes(item, result_text)
        wrong = sorted(name for name in expected if got.get(name) != expected[name])
        return f"outputs differ from golden: {', '.join(wrong)}" if wrong else None
