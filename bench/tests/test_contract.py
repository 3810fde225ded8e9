"""``BENCHMARK.json`` against the code, the result line, exit codes and
hermeticity."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import runner
from bench.__main__ import format_report, main
from bench.workloads import make_all

ROOT = runner.ROOT


def test_contract_names_the_workloads_the_code_runs():
    spec = runner.contract()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in make_all().values()]
    assert spec["paths"] == ["bench"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _doc(**over):
    doc = {
        "correct": True, "attempted": 20, "failed": 0,
        "end_to_end": {m["name"]: 1.5
                       for m in runner.contract()["end_to_end"]},
        "per_layer": {"sim.runs": 12, "bench.trace_overhead_pct": 1.0},
    }
    doc.update(over)
    return doc


def test_result_line_has_exactly_the_declared_metrics():
    spec = runner.contract()
    line = runner.contract_line(_doc(), spec, traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    traced = runner.contract_line(_doc(), spec, traced=True)
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    # A layer that did not run reports 0; one that did, its value.
    assert traced["metrics"]["sim.runs"]["value"] == 12.0
    assert traced["metrics"]["serving.steps"]["value"] == 0.0


def test_undeclared_or_missing_metrics_are_refused():
    spec = runner.contract()
    with pytest.raises(ValueError, match="missing from BENCHMARK.json"):
        runner.contract_line(_doc(per_layer={"nope.metric": 1.0}), spec,
                             traced=True)
    with pytest.raises(ValueError, match="not measured"):
        runner.contract_line(_doc(end_to_end={"setup_s": 1.0}), spec,
                             traced=False)


def test_run_exits_non_zero_when_a_check_failed(tmp_path, monkeypatch,
                                                capsys):
    spec = runner.contract()
    workload = {
        "correct": False,
        "check_failures": ["pass 2 simulated statistics differ"],
        "attempted": 62, "failed": 0, "failed_share": 0.0, "window_s": 8.0,
        "samples": {"operations": 62, "op_ms": 70,
                    "setups": 3, "spans": 100, "layer_ops": 31},
        "end_to_end": {m["name"]: 2.0 for m in spec["end_to_end"]},
        "per_layer": {"sim.runs": 100.0},
    }
    doc = {"schema": 1, "seed": 0, "seconds": 8.0, "quick": False,
           "git_sha": "unknown", "host": {},
           "workloads": {"sim_sweep": workload}}
    monkeypatch.setattr(runner, "run_all", lambda *a, **k: doc)
    assert main(["run", "--workload", "sim_sweep",
                 "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "INCORRECT" in out and "check failed: pass 2" in out
    assert "sim.runs" in out and "count" in out and "n=31" in out
    assert json.loads((tmp_path / "results.json").read_text()) == doc
    workload.update(correct=True, check_failures=[])
    assert main(["run", "--workload", "sim_sweep",
                 "--out", str(tmp_path)]) == 0


def test_report_prints_every_metric_with_unit_and_sample_count():
    spec = runner.contract()
    workload = {
        "correct": True, "check_failures": [], "attempted": 4, "failed": 1,
        "failed_share": 0.25, "window_s": 1.0,
        "samples": {"operations": 4, "op_ms": 40,
                    "setups": 3, "spans": 9, "layer_ops": 4},
        "end_to_end": {m["name"]: 1.0 for m in spec["end_to_end"]},
        "per_layer": {m["name"]: 0.0 for m in spec["per_layer"]},
    }
    text = format_report(
        {"seed": 1, "seconds": 8, "git_sha": "abc", "host": {},
         "workloads": {"w": workload}}, spec)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert f"{m['name']:<36}" in text
    assert "failed_share 0.2500 (1/4 operations)" in text
    assert "n=40" in text and "n=3" in text


def test_parent_never_imports_the_program():
    code = ("import sys, bench.__main__, bench.runner, bench.compare; "
            "assert not any(m == 'repro' or m.startswith('repro.') "
            "for m in sys.modules), 'repro imported by the parent'")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   timeout=60)


def test_scratch_is_removed_when_the_child_fails(tmp_path):
    with pytest.raises(runner.ChildFailed):
        runner.run_child("no_such_workload", 0, 1.0, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_without_the_program_the_command_fails_and_prints_no_result(
        tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own files exist: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload",
         "sim_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "repro is missing" in proc.stderr
    leftovers = [p for p in (tmp_path / ".bench_out").rglob("*")
                 if p.is_file()]
    assert leftovers == []


def test_quick_run_end_to_end(tmp_path):
    """One real workload through the real command: both modes, checks,
    results file with fingerprint, seed and sample counts, clean exit."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "sim_sweep",
         "--quick", "--seed", "9", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "results.json").read_text())
    assert doc["seed"] == 9 and doc["git_sha"] and doc["quick"]
    assert {"nproc", "pool_workers", "blas_threads", "numpy",
            "python"} <= set(doc["host"])
    sim = doc["workloads"]["sim_sweep"]
    assert sim["correct"]
    assert sim["samples"]["setups"] == runner.SETUP_REPEATS
    assert sim["samples"]["op_ms"] > 0 and sim["samples"]["spans"] > 0
    # No substrate layer runs under the simulator.
    assert set(sim["layers_run"]) == {"bench", "systems", "sim"}
    assert sim["per_layer"]["sim.runs"] > 0
    assert abs(sim["per_layer"]["bench.selftime_residual_pct"]) < 2.0
    # Only results and the trace remain: every scratch directory is gone.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "results.json", "sim_sweep.trace.json"]
    assert "sim.us_per_task" in proc.stdout
