import csv
import io
import json
import os

import jsonschema
import pytest

from afpipe.cli import main
from afpipe.trace_io import trace_schema

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = os.path.join(REPO, "configs", "toy.yaml")
DEEPSEEK = os.path.join(REPO, "configs", "deepseek_moe.yaml")

TOY_TEXT = open(TOY, encoding="utf-8").read()


def test_simulate_happy_path(capsys):
    assert main(["simulate", "--config", TOY, "--schedule", "afpipe"]) == 0
    out = capsys.readouterr().out
    assert "iter_ms" in out and "mfu" in out and "allocation:" in out


def test_simulate_missing_config_exits_2(capsys):
    code = main(["simulate", "--config", "/nonexistent/exp.yaml", "--schedule", "afpipe"])
    assert code == 2
    assert "/nonexistent/exp.yaml" in capsys.readouterr().err


def test_simulate_invalid_config_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(TOY_TEXT.replace("topk: 2", "topk: 16"))
    assert main(["simulate", "--config", str(bad), "--schedule", "afpipe"]) == 2
    assert "topk" in capsys.readouterr().err


def test_depth_zero_without_virtual_stages_exits_2(tmp_path, capsys):
    bad = tmp_path / "depth0.yaml"
    bad.write_text(TOY_TEXT.replace("pipeline_depth: 2", "pipeline_depth: 0")
                   .replace("  virtual_stages: 2\n", ""))
    assert main(["simulate", "--config", str(bad), "--schedule", "afpipe"]) == 2
    assert "pipeline_depth" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["allocate", "--trials", "-1"],
    ["allocate", "--radius", "-1"],
    ["allocate", "--epsilon", "-0.5"],
    ["allocate", "--epsilon", "nan"],
    ["simulate", "--mem-cap", "0"],
    ["sweep", "--axis", "seq_len", "--values", "1024", "--mem-cap", "0"],
    ["compare", "--mem-cap", "-1"],
    ["sweep", "--axis", "attn_gpu_share", "--values", "nan"],
])
def test_invalid_option_values_exit_2(argv, capsys):
    assert main([*argv, "--config", TOY]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_allocate_has_no_mem_cap_option():
    # allocate reports no memory estimate, so it takes no capacity.
    with pytest.raises(SystemExit) as exc:
        main(["allocate", "--mem-cap", "1e9", "--config", TOY])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--trace"],
    ["simulate", "--out"],
    ["allocate", "--trials", "1", "--out"],
    ["allocate", "--trials", "1", "--trace-csv"],
    ["sweep", "--axis", "seq_len", "--values", "1024", "--out"],
    ["compare", "--out"],
])
def test_unwritable_output_exits_5(argv, tmp_path, capsys):
    path = tmp_path / "missing-dir" / "out"
    assert main([*argv, str(path), "--config", TOY]) == 5
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


VERBS = pytest.mark.parametrize("argv", [
    ["simulate"],
    ["compare"],
    ["sweep", "--axis", "seq_len", "--values", "1024"],
    ["allocate", "--trials", "1"],
], ids=["simulate", "compare", "sweep", "allocate"])


@pytest.mark.parametrize("field, rate", [
    # Rates this small make a task duration overflow the nanosecond clock.
    ("gpu_peak", "1.0e-300"),
    ("ib_bw", "1.0e-300"),
    # Finite task durations, but a makespan too large for a float in seconds.
    ("gpu_peak", "1.0e-289"),
], ids=["gpu_peak", "ib_bw", "gpu_peak_makespan"])
@VERBS
def test_overflowing_duration_exits_3(argv, field, rate, tmp_path, capsys):
    bad = tmp_path / "tiny_rate.yaml"
    text = TOY_TEXT.replace(f"{field}: 1.0e", f"{field}: {rate} # 1.0e")
    assert text != TOY_TEXT
    bad.write_text(text)
    assert main([*argv, "--config", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field, old, new", [
    ("ib_bw", "ib_bw: 1.0e10", "ib_bw: .inf"),
    ("gpu_peak", "gpu_peak: 1.0e12", "gpu_peak: .inf"),
    ("nvlink_bw", "ib_bw: 1.0e10", "ib_bw: 1.0e10\n  nvlink_bw: -5"),
], ids=["ib_bw_inf", "gpu_peak_inf", "nvlink_bw_negative"])
@VERBS
def test_out_of_range_rate_exits_2(argv, field, old, new, tmp_path, capsys):
    bad = tmp_path / "bad_rate.yaml"
    text = TOY_TEXT.replace(old, new)
    assert text != TOY_TEXT
    bad.write_text(text)
    assert main([*argv, "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def test_simulate_writes_schema_valid_trace(tmp_path, capsys):
    trace_path = tmp_path / "out.json"
    code = main(["simulate", "--config", TOY, "--schedule", "afpipe",
                 "--trace", str(trace_path)])
    assert code == 0
    document = json.loads(trace_path.read_text())
    jsonschema.validate(document, trace_schema())
    assert document, "trace should not be empty"


def test_simulate_report_json_speedups_recomputable(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["compare", "--config", TOY, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    base = report["results"]["megatron1f1b"]["iteration_time"]
    for key, value in report["speedups"].items():
        kind = key.replace("_vs_megatron1f1b", "")
        recomputed = base / report["results"][kind]["iteration_time"]
        assert value == pytest.approx(recomputed, rel=1e-6)


def test_report_json_carries_placement_plans(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", TOY, "--schedule", "afpipe",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # toy.yaml: 4 layers over depth 2 -> even/odd interleave for both sides.
    assert report["placement"]["A"]["groups"] == {"0": [0, 2], "1": [1, 3]}
    assert report["placement"]["F"]["groups"] == {"0": [0, 2], "1": [1, 3]}
    assert report["placement"]["F"]["output_embedding_group"] == 1
    assert report["placement"]["A"]["output_embedding_group"] is None


def test_allocate_zero_trials_reports_seed(capsys):
    code = main(["allocate", "--config", TOY, "--trials", "0", "--radius", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 refinement improvement(s)" in out
    assert "best allocation" in out


def test_allocate_equal_nics_odd_total_exits_4(tmp_path, capsys):
    odd = tmp_path / "odd.yaml"
    odd.write_text(TOY_TEXT.replace("total_nics: 4", "total_nics: 5")
                   .replace("total_gpus: 4", "total_gpus: 5"))
    code = main(["allocate", "--config", str(odd), "--equal-nics"])
    assert code == 4


def test_allocate_writes_report_and_trace_csv(tmp_path, capsys):
    out = tmp_path / "alloc.json"
    trace = tmp_path / "trace.csv"
    code = main(["allocate", "--config", TOY, "--trials", "5", "--radius", "2",
                 "--seed", "3", "--out", str(out), "--trace-csv", str(trace)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["best"]["attn_gpus"] + payload["best"]["ffn_gpus"] == 4
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    assert len(rows) == 6  # seed + five trials


def test_cli_output_deterministic(capsys):
    args = ["allocate", "--config", TOY, "--trials", "8", "--radius", "2", "--seed", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def _sweep_rows(capsys, *argv):
    assert main(list(argv)) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_sweep_seq_len_rows_and_attention_share(capsys):
    rows = _sweep_rows(capsys, "sweep", "--config", TOY, "--axis", "seq_len",
                       "--values", "1024,2048,4096,8192")
    assert len(rows) == 16  # four values, four schedule kinds
    shares = [float(r["attn_flops_share"]) for r in rows if r["schedule"] == "afpipe"]
    assert shares == sorted(shares)
    assert all(b > a for a, b in zip(shares, shares[1:]))


def test_sweep_topk_comm_bytes_increase(capsys):
    rows = _sweep_rows(capsys, "sweep", "--config", TOY, "--axis", "topk",
                       "--values", "1,2,4,8")
    volumes = [int(r["m2n_bytes"]) for r in rows if r["schedule"] == "megatron1f1b"]
    assert volumes == sorted(volumes)
    assert all(b > a for a, b in zip(volumes, volumes[1:]))


def test_sweep_invalid_axis_value_exits_2(capsys):
    assert main(["sweep", "--config", TOY, "--axis", "virtual_stages",
                 "--values", "3"]) == 2  # 3 does not divide 4 layers


def test_sweep_invalid_topk_exits_2(capsys):
    assert main(["sweep", "--config", TOY, "--axis", "topk", "--values", "99"]) == 2


def test_sweep_virtual_stages_oom_transition(capsys):
    rows = _sweep_rows(capsys, "sweep", "--config", DEEPSEEK, "--axis", "virtual_stages",
                       "--values", "1,2,4,7,14,28", "--mem-cap", "12e9")
    flags = [r["oom_flag"] == "True" for r in rows if r["schedule"] == "afpipe"]
    assert flags[0] is False and flags[-1] is True
    transitions = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    assert transitions == 1


def test_sweep_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", TOY, "--axis", "ep_size",
                 "--values", "1,2,4", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 12
    # CSV carries full-precision seconds that re-parse as floats.
    for row in rows:
        float(row["iteration_time_s"])
        float(row["speedup_vs_megatron"])


def test_compare_exposed_comm_ordering(capsys):
    assert main(["compare", "--config", DEEPSEEK]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()
            if line and " vs " not in line and line.split()[0] in
            ("afpipe", "megatron1f1b", "chunked", "naive")]
    exposed = {r[0]: float(r[3]) for r in rows}
    assert exposed["afpipe"] <= exposed["chunked"] <= exposed["megatron1f1b"]


def test_compare_speedup_over_baseline_in_comm_bound_regime(capsys):
    assert main(["compare", "--config", DEEPSEEK]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("afpipe vs megatron1f1b"))
    speedup = float(line.split("speedup")[1].split(",")[0])
    assert speedup > 1.0



ERROR_PATHS = [
    *[([verb, *override], None, 4)
      for verb in ("simulate", "compare")
      for override in (["--attn-gpus", "0"], ["--attn-gpus", "4"], ["--attn-nics", "0"])],
    (["simulate", "--attn-gpus", "1", "--equal-nics"], ("total_nics: 4", "total_nics: 5"), 4),
    (["simulate", "--equal-nics", "--attn-nics", "1"], None, 4),
    (["sweep", "--axis", "attn_gpu_share", "--values", "0.5", "--equal-nics"],
     ("total_nics: 4", "total_nics: 5"), 4),
    (["sweep", "--axis", "seq_len", "--values", "0"], None, 2),
    (["sweep", "--axis", "topk", "--values", "99"], None, 2),
    (["sweep", "--axis", "ep_size", "--values", "0"], None, 2),
    (["sweep", "--axis", "virtual_stages", "--values", "3"], None, 2),
    (["sweep", "--axis", "seq_len", "--values", "abc"], None, 2),
    (["sweep", "--axis", "seq_len", "--values", ","], None, 2),
]


@pytest.mark.parametrize("argv, doc, code", ERROR_PATHS,
                         ids=[" ".join(argv) for argv, _, _ in ERROR_PATHS])
def test_error_paths_exit_with_their_code(argv, doc, code, tmp_path, capsys):
    # Split overrides that leave a side empty are infeasible (4); sweep points
    # that break a document rule are configuration errors (2). doc, when
    # given, edits toy.yaml (here: an odd NIC count for --equal-nics).
    config = TOY
    if doc is not None:
        config = tmp_path / "doc.yaml"
        text = TOY_TEXT.replace(*doc)
        assert text != TOY_TEXT
        config.write_text(text)
    assert main([*argv, "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_simulate_defaults_to_the_documents_schedule(tmp_path, capsys):
    doc = tmp_path / "naive.yaml"
    doc.write_text(TOY_TEXT.replace("schedule_kind: afpipe", "schedule_kind: naive"))
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", str(doc), "--out", str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2].split()[0] == "naive"
    report = json.loads(out.read_text())
    assert "schedule_kind: naive" in report["experiment"]
    assert list(report["results"]) == ["naive"]
    # --schedule still overrides the document.
    assert main(["simulate", "--config", str(doc), "--schedule", "afpipe"]) == 0
    assert capsys.readouterr().out.splitlines()[2].split()[0] == "afpipe"


@pytest.mark.parametrize("field, edits", [
    ("hidden", {"hidden: 512": f"hidden: {10**160}"}),
    ("micro_batch", {"micro_batch: 1": f"micro_batch: {10**320}"}),
    ("experts", {"experts: 8": f"experts: {10**400}"}),
    ("num_microbatches", {"num_microbatches: 4": f"num_microbatches: {10**9}"}),
    ("total_gpus", {"total_gpus: 4": "total_gpus: 100000", "total_nics: 4": "total_nics: 100000"}),
], ids=["hidden", "micro_batch", "experts", "num_microbatches", "total_gpus"])
@VERBS
def test_oversized_document_exits_2_before_building(argv, field, edits, tmp_path, capsys,
                                                    monkeypatch):
    # Integer fields over config.MAX_INT would overflow a float product; the
    # size caps keep the task count and the split enumeration bounded. Both
    # are document errors, caught before any graph or split is built.
    def forbidden(*args, **kwargs):
        raise AssertionError("built a graph or enumerated splits")

    for module, attr in (("report", "build_task_graph"), ("allocator", "build_task_graph"),
                         ("allocator", "enumerate_feasible")):
        monkeypatch.setattr(f"afpipe.{module}.{attr}", forbidden)
    text = TOY_TEXT
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "big.yaml"
    bad.write_text(text)
    assert main([*argv, "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def test_sweep_point_over_the_integer_bound_exits_2(capsys):
    assert main(["sweep", "--config", TOY, "--axis", "seq_len",
                 "--values", "1" + "0" * 200]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seq_len: ") and "Traceback" not in err
