"""Substrate perf: arena, executor, and pipeline vs their serial ancestors.

Runs :func:`repro.training.substrate_bench` end to end, prints the same
tables ``repro bench`` prints, writes ``BENCH_substrate.json`` next to the
repo root, and asserts the acceptance bars:

* the arena ZeRO step beats the dict-copy step by >= 2x at the largest
  benchmarked size;
* steady-state ``arena_bytes_copied`` is exactly zero once gradients are
  produced into the arena (the zero-copy contract);
* the chunked-executor Adam step beats the serial flat-arena baseline by
  >= 1.5x at the largest size, bitwise identically at every size;
* the overlapped bucket ZeRO pipeline beats the serial zero-copy step by
  >= 1.5x at the largest size, bitwise identically at every size;
* snapshot rollback never regresses: >= 1.0x wherever the range-memcpy
  path engages, and the identical per-tensor path (within timing noise)
  below the cutoff;
* streaming blocked attention beats the dense ``S x S`` path by >= 1.5x
  (fwd+bwd) at the guard sequence length, within fp32 tolerance of dense
  and bitwise independent of head grouping at every size;
* the workspace-backed model step allocates zero workspace buffers in
  steady state and stays tolerance-equal to the dense baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.training import substrate_bench
from benchmarks.conftest import print_table

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_arena_substrate_perf():
    result = substrate_bench(workers=2)
    print_table(
        "BENCH_substrate — arena vs dict-copy ZeRO step "
        f"(world {result['world_size']})",
        ["elements", "dict-copy (ms)", "arena (ms)", "speedup"],
        [[f"{r['elements']:,}", r["dict_copy_ms"], r["arena_ms"],
          f"{r['speedup']:.2f}x"] for r in result["zero_step"]],
    )
    print_table(
        "BENCH_substrate — snapshot capture+restore",
        ["elements", "per-tensor (ms)", "arena memcpy (ms)", "speedup",
         "range path"],
        [[f"{r['elements']:,}", r["per_tensor_ms"], r["arena_ms"],
          f"{r['speedup']:.2f}x", r["arena_path_used"]]
         for r in result["rollback"]],
    )
    steady = result["steady_state"]
    print_table(
        "BENCH_substrate — steady-state arena traffic per step",
        ["elements", "steps", "bytes copied", "bytes aliased"],
        [[f"{steady['elements']:,}", steady["steps"],
          steady["arena_bytes_copied_per_step"],
          steady["arena_bytes_aliased_per_step"]]],
    )
    print_table(
        "BENCH_substrate — chunked-executor Adam step "
        f"({result['workers']} workers)",
        ["elements", "serial flat (ms)", "tiled (ms)", "executor (ms)",
         "speedup", "vs tiled", "bitwise"],
        [[f"{r['elements']:,}", r["serial_ms"], r["tiled_ms"],
          r["parallel_ms"], f"{r['speedup']:.2f}x",
          f"{r['speedup_vs_tiled']:.2f}x", r["bitwise_identical"]]
         for r in result["parallel_step"]],
    )
    print_table(
        "BENCH_substrate — overlapped bucket ZeRO pipeline "
        f"({result['workers']} workers)",
        ["elements", "bucket", "serial (ms)", "pipeline (ms)", "speedup",
         "bitwise"],
        [[f"{r['elements']:,}", f"{r['bucket_elements']:,}", r["serial_ms"],
          r["pipeline_ms"], f"{r['speedup']:.2f}x", r["bitwise_identical"]]
         for r in result["zero_pipeline"]],
    )

    print_table(
        "BENCH_substrate — streaming blocked attention vs dense "
        "(calling thread)",
        ["seq", "dense f+b (ms)", "stream f+b (ms)", "speedup",
         "mem ratio", "tolerance", "deterministic"],
        [[r["seq"], r["dense_step_ms"], r["streaming_step_ms"],
          f"{r['step_speedup']:.2f}x",
          f"{r['peak_transient_ratio']:.1f}x", r["tolerance_ok"],
          r["bitwise_across_grouping"]]
         for r in result["attention"]],
    )
    print_table(
        "BENCH_substrate — workspace-backed streaming model step "
        "(calling thread)",
        ["seq", "baseline (ms)", "workspace (ms)", "speedup",
         "steady allocs", "peak bytes"],
        [[r["seq"], r["baseline_ms"], r["workspace_ms"],
          f"{r['speedup']:.2f}x", r["steady_allocs_per_step"],
          f"{r['workspace_peak_bytes']:,}"]
         for r in result["model_step"]],
    )

    out = REPO_ROOT / "BENCH_substrate.json"
    out.write_text(json.dumps(result, indent=2) + "\n")

    # the arena acceptance bar: >= 2x at the largest size, zero steady copies
    largest = result["zero_step"][-1]
    assert largest["speedup"] >= 2.0, largest
    assert steady["arena_bytes_copied_per_step"] == 0.0
    assert steady["arena_bytes_aliased_per_step"] > 0
    # every size must at least not regress
    for row in result["zero_step"]:
        assert row["speedup"] > 1.0, row

    # rollback: no regression at any size.  Where the range-memcpy path
    # engages it must win outright; below the cutoff both contestants run
    # the identical per-tensor code, so the honest speedup is 1.0 by
    # construction — the asserted floor only absorbs the timing noise of
    # measuring one code path against itself on a shared host.
    for row in result["rollback"]:
        if row["arena_path_used"]:
            assert row["speedup"] >= 1.0, row
        else:
            assert row["elements"] < row["cutoff_elements"], row
            assert row["speedup"] >= 0.85, row

    # executor: bitwise identity everywhere, >= 1.5x at the largest size
    for row in result["parallel_step"]:
        assert row["bitwise_identical"], row
    assert result["parallel_step"][-1]["speedup"] >= 1.5, \
        result["parallel_step"][-1]

    # pipeline: bitwise identity everywhere, >= 1.5x at the largest size
    for row in result["zero_pipeline"]:
        assert row["bitwise_identical"], row
    assert result["zero_pipeline"][-1]["speedup"] >= 1.5, \
        result["zero_pipeline"][-1]

    # attention: tolerance + grouping invariance everywhere; the blocked
    # kernel must clear the acceptance bar at the guard sequence length
    for row in result["attention"]:
        assert row["tolerance_ok"], row
        assert row["bitwise_across_grouping"], row
        assert row["peak_transient_ratio"] > 1.0, row
    guard = [r for r in result["attention"] if r["seq"] >= 1024][-1]
    assert guard["step_speedup"] >= 1.5, guard

    # model step: allocation-free in steady state, tolerance-equal
    for row in result["model_step"]:
        assert row["tolerance_ok"], row
        assert row["steady_allocs_per_step"] == 0, row

    document = json.loads(out.read_text())
    assert document["benchmark"] == "substrate_arena"
    assert document["workers"] >= 2
