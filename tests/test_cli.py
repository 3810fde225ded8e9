"""Tests for the artifact-regeneration CLI."""

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig10", "table2", "fig13"):
        assert name in out


def test_every_artifact_registered():
    for artifact in ("table1", "fig4", "fig6", "fig7", "fig9", "fig10",
                     "fig11", "fig12", "fig13", "table2", "table3", "fig14",
                     "fig15", "timeline", "trace", "bench"):
        assert artifact in COMMANDS


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_table1_output(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "GH" in out and "330" in out


def test_fig6_output(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "450 GB/s" in out


def test_fig7_output(capsys):
    assert main(["fig7"]) == 0
    assert "GB/s" in capsys.readouterr().out


def test_table3_output(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "GraceAdam" in out and "0.080/0.082" in out


def test_fig10_quick(capsys):
    assert main(["fig10", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "superoffload" in out
    assert "OOM" in out  # DDP dies at 5B


def test_fig12_single_chip_count(capsys):
    assert main(["fig12", "--chips", "8"]) == 0
    out = capsys.readouterr().out
    assert "1024K" in out  # the million-token headline


def test_timeline_output(capsys):
    assert main(["timeline"]) == 0
    out = capsys.readouterr().out
    assert "ZeRO-Offload" in out and "SuperOffload" in out
    assert "|" in out and "#" in out


def test_trace_writes_artifacts(tmp_path, capsys):
    import json

    from repro.telemetry.export import validate_chrome_trace

    assert main(["trace", "--quick", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "telemetry metrics summary" in out
    assert "rollbacks_total" in out
    assert "loss_scale" in out

    document = json.loads((tmp_path / "trace.json").read_text())
    validate_chrome_trace(document)
    x_events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    pids = {e["pid"] for e in x_events}
    assert len(pids) == 2  # live tracer + simulator timelines
    names = {e["name"] for e in x_events}
    assert {"train_step", "fwd_bwd", "speculative_step"} <= names

    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "meta"
    assert any(r["type"] == "span" for r in records)
    assert any(r["type"] == "counter" for r in records)


def test_bench_writes_valid_json(tmp_path, capsys):
    import json

    assert main(["bench", "--quick", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "bytes copied" in out

    document = json.loads((tmp_path / "BENCH_substrate.json").read_text())
    assert document["benchmark"] == "substrate_arena"
    for row in document["zero_step"]:
        assert row["speedup"] > 0
        assert row["dict_copy_ms"] > 0 and row["arena_ms"] > 0
    assert document["rollback"]
    steady = document["steady_state"]
    assert steady["arena_bytes_copied_per_step"] == 0.0
    assert steady["arena_bytes_aliased_per_step"] > 0
    (gelu_row,) = document["elementwise"]
    assert gelu_row["tolerance_ok"]
    assert gelu_row["pow_fwd_ns"] > 0 and gelu_row["bwd_ns"] > 0
    assert "GELU fwd/bwd" in out



def test_profile_quick(tmp_path, capsys):
    import json

    assert main(["profile", "--quick", "--compare-sim", "--workers", "2",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "STV step phases" in out
    assert "overlap audit" in out
    assert "worker utilization" in out
    assert "memory high-water" in out
    assert "measured vs simulated" in out
    assert "profiler overhead" in out

    profile = json.loads((tmp_path / "PROFILE.json").read_text())
    assert profile["bitwise_identical"] is True
    assert 0.0 <= profile["overlap_efficiency"] <= 1.0
    assert profile["stv_phase_seconds"]["forward"] > 0
    assert profile["dp_phase_seconds"]["backward"] > 0
    assert profile["memory_highwater_bytes"]["workspace"] > 0
    assert profile["sim_comparison"]
    assert 0 <= profile["kv_pages_written"] <= profile["kv_pages_evicted"]
    assert profile["kv_readahead_waits"] >= 0
    assert "read-ahead waits" in out

    from repro.telemetry.export import validate_chrome_trace
    document = json.loads((tmp_path / "trace.json").read_text())
    validate_chrome_trace(document)

    flight = (tmp_path / "flight.jsonl").read_text().splitlines()
    assert json.loads(flight[0])["kind"] == "header"


def test_bench_warns_on_regression(capsys, monkeypatch):
    # Force a below-1.0x row through a stubbed bench result so the WARN
    # path is exercised deterministically.
    import repro.training as training

    def fake_bench(quick=False, workers=None, sections=None):
        return {
            "benchmark": "substrate_arena",
            "world_size": 2,
            "workers": 2,
            "zero_step": [
                {"elements": 65536, "dict_copy_ms": 1.0, "arena_ms": 2.0,
                 "speedup": 0.5},
                {"elements": 524288, "dict_copy_ms": 4.0, "arena_ms": 2.0,
                 "speedup": 2.0},
            ],
        }

    monkeypatch.setattr(training, "substrate_bench", fake_bench)
    assert main(["bench", "--quick", "--out", "/tmp"]) == 0
    out = capsys.readouterr().out
    assert "WARN: zero_step size 65536 speedup 0.50x < 1.0x" in out
    # only the regressing row warns, not the 2.0x one
    row_warns = [l for l in out.splitlines()
                 if l.startswith("WARN: zero_step")]
    assert len(row_warns) == 1
