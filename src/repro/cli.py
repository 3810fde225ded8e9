"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro list                 # available artifacts
    python -m repro fig10                # single-superchip throughput
    python -m repro table2               # the ablation breakdown
    python -m repro fig12 --chips 8      # Ulysses sequence lengths
    python -m repro trace --out /tmp/t   # telemetry: trace.json + events.jsonl
    python -m repro bench --out /tmp/b   # substrate perf: BENCH_substrate.json
    python -m repro bench --tuned        # A/B the host tuning profile
    python -m repro profile --out /tmp/p # step phases, overlap, utilization
    python -m repro checkpoint           # interrupt/resume round-trip
    python -m repro tune                 # autotune this host -> tune.json
    python -m repro serve --sessions 8   # int8 continuous-batching demo
    python -m repro all                  # everything (slow; skips file writers)

Every command prints the same table its benchmark harness asserts on; the
heavier sweeps accept ``--quick`` to trim the model-size grid.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.reporting import print_table


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.hardware import node_comparison_rows

    rows = node_comparison_rows()
    print_table(
        "Table 1 — node architecture comparison",
        ["arch", "CPU BW", "C<->GPU BW", "cores", "CPU TF", "GPU TF", "ratio"],
        [[r["arch"], r["cpu_bw_gbps"], r["cpu_gpu_bw_gbps"], r["cpu_cores"],
          r["cpu_tflops"], r["gpu_tflops"], r["gpu_cpu_flops_ratio"]]
         for r in rows],
    )


def _cmd_fig4(args: argparse.Namespace) -> None:
    from repro.models.config import MODEL_CONFIG_TABLE
    from repro.systems import RunSetting, ZeROOffload
    from repro.training.cluster import gh200_cluster

    rows = []
    for billions in (5, 15):
        setting = RunSetting(
            MODEL_CONFIG_TABLE[billions], gh200_cluster(1), global_batch=8
        )
        est = ZeROOffload().best_estimate(setting)
        rows.append([f"{billions}B", 100 * est.gpu_idle_fraction(),
                     est.iter_time])
    print_table(
        "Fig. 4 — ZeRO-Offload GPU idle time (paper: 40-50%)",
        ["model", "GPU idle %", "iter (s)"],
        rows,
    )


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.core.policy import weight_flow_efficiency
    from repro.hardware.registry import HOPPER_H100

    batches = [1, 2, 4, 8, 16, 32]
    rows = []
    for bw in (32, 64, 128, 256, 450, 900):
        rows.append([f"{bw} GB/s"] + [
            weight_flow_efficiency(int(5e9), b, 1024, bw * 1e9,
                                   HOPPER_H100.achievable_flops)
            for b in batches
        ])
    print_table(
        "Fig. 6 — weight-flow efficiency (eqs. 1-3, seq 1024)",
        ["bandwidth \\ batch"] + [str(b) for b in batches],
        rows,
    )


def _cmd_fig7(args: argparse.Namespace) -> None:
    from repro.hardware.registry import c2c_bandwidth_model

    MiB = 1024**2
    model = c2c_bandwidth_model()
    rows = [[f"{s / MiB:g} MiB", bw]
            for s, bw in model.sweep([2**k * MiB for k in range(0, 11)])]
    print_table("Fig. 7 — C2C bandwidth vs message size",
                ["size", "GB/s"], rows)


def _cmd_fig9(args: argparse.Namespace) -> None:
    from repro.hardware.casting import CastingModel
    from repro.hardware.registry import (
        GRACE_CPU, HOPPER_H100, c2c_bandwidth_model,
    )

    MiB = 1024**2
    model = CastingModel(HOPPER_H100, GRACE_CPU, c2c_bandwidth_model())
    rows = [[r["fp32_bytes"] // MiB, r["cast_gpu_move_fp32_ms"],
             r["cast_cpu_move_fp16_ms"], r["cpu_over_gpu_ratio"]]
            for r in model.sweep([2**k * MiB for k in range(4, 12)])]
    print_table(
        "Fig. 9 — casting path cost (paper: CPU path ~2x)",
        ["fp32 MiB", "GPU path (ms)", "CPU path (ms)", "ratio"], rows,
    )


def _cmd_fig10(args: argparse.Namespace) -> None:
    from repro.training import throughput_sweep

    systems = ["ddp", "zero_offload", "zero_infinity", "fsdp_offload",
               "superoffload"]
    sizes = [1, 3, 5] if args.quick else [1, 2, 3, 4, 5, 6, 8, 10, 13, 15,
                                          20, 25]
    rows = throughput_sweep(systems, sizes, 1, 8)
    table: Dict[float, Dict[str, float | None]] = {}
    for r in rows:
        table.setdefault(r["model_billions"], {})[r["system"]] = r["tflops"]
    print_table(
        "Fig. 10 — single superchip TFLOPS (batch 8)",
        ["model"] + systems,
        [[f"{s}B"] + [table[s][sys] for sys in systems] for s in sizes],
    )


def _cmd_fig11(args: argparse.Namespace) -> None:
    from repro.training import throughput_sweep

    systems = ["megatron", "zero2", "zero3", "zero_offload", "superoffload"]
    cases = ((4, 16, [5, 10, 20, 50]), (16, 128, [20, 50, 80, 200]))
    if args.quick:
        cases = ((4, 16, [5, 20]),)
    for n, batch, sizes in cases:
        rows = throughput_sweep(systems, sizes, n, batch)
        table: Dict[float, Dict[str, float | None]] = {}
        for r in rows:
            table.setdefault(r["model_billions"], {})[r["system"]] = r["tflops"]
        print_table(
            f"Fig. 11 — {n} superchips, batch {batch} (per-GPU TFLOPS)",
            ["model"] + systems,
            [[f"{s}B"] + [table[s][sys] for sys in systems] for s in sizes],
        )


def _cmd_fig12(args: argparse.Namespace) -> None:
    from repro.models.config import MODEL_CONFIG_TABLE
    from repro.systems import RunSetting, build_all_systems, max_sequence_tokens
    from repro.training.cluster import gh200_cluster

    systems = build_all_systems()
    chips = [args.chips] if args.chips else [4, 8]
    rows = []
    for n in chips:
        cluster = gh200_cluster(n)
        for billions in (13, 30):
            config = MODEL_CONFIG_TABLE[billions]
            proto = RunSetting(config, cluster, global_batch=1, seq=n * 1024)
            for name in ("ulysses", "superoffload_ulysses"):
                system = systems[name]
                max_seq = max_sequence_tokens(system, proto)
                mfu = None
                if max_seq:
                    est = system.best_estimate(
                        RunSetting(config, cluster, global_batch=1,
                                   seq=max_seq)
                    )
                    mfu = est.mfu
                rows.append([n, f"{billions}B", name,
                             f"{max_seq // 1024}K" if max_seq else None, mfu])
    print_table(
        "Fig. 12 — max sequence length and MFU",
        ["chips", "model", "system", "max seq", "MFU"], rows,
    )


def _cmd_fig13(args: argparse.Namespace) -> None:
    from repro.training import max_model_table

    systems = ["ddp", "megatron", "zero2", "zero3", "zero_offload",
               "zero_infinity", "fsdp_offload", "superoffload"]
    rows = max_model_table(systems, [1, 4, 16])
    table: Dict[str, Dict[int, float]] = {}
    for r in rows:
        table.setdefault(r["system"], {})[r["n_superchips"]] = (
            r["max_model_billions"]
        )
    print_table(
        "Fig. 13 — largest trainable model (billions)",
        ["system", "1 chip", "4 chips", "16 chips"],
        [[s, table[s][1], table[s][4], table[s][16]] for s in systems],
    )


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.training import ablation_table

    rows = ablation_table()
    paper = [116.20, 128.23, 144.49, 209.36, 238.92]
    print_table(
        "Table 2 — optimization breakdown (5B, batch 8)",
        ["configuration", "TFLOPS (ours)", "TFLOPS (paper)"],
        [[r["row"], r["tflops"], p] for r, p in zip(rows, paper)],
    )


def _cmd_table3(args: argparse.Namespace) -> None:
    from repro.optim import adam_latency_table
    from repro.optim.kernels import paper_table3_reference

    ours = adam_latency_table()
    paper = paper_table3_reference()
    print_table(
        "Table 3 — Adam latency (s), ours/paper",
        ["params", "PT-CPU", "CPU-Adam", "GraceAdam"],
        [[f"{o['params_billion']:g}B",
          f"{o['pt_cpu']:.3f}/{p['pt_cpu']:.3f}",
          f"{o['cpu_adam']:.3f}/{p['cpu_adam']:.3f}",
          f"{o['grace_adam']:.3f}/{p['grace_adam']:.3f}"]
         for o, p in zip(ours, paper)],
    )


def _cmd_fig14(args: argparse.Namespace) -> None:
    import numpy as np

    from repro.training import InstabilityInjector, STVTrainer

    total = 120 if args.quick else 300
    warmup = total // 5
    trainer = STVTrainer(
        batch=8,
        injector=InstabilityInjector(warmup_iters=warmup,
                                     spike_probability=0.35,
                                     spike_scale=80.0,
                                     overflow_probability=0.1, seed=0),
        seed=1,
    )
    record = trainer.run(total)
    step = total // 10
    print_table(
        "Fig. 14 — loss and rollbacks during STV training",
        ["iterations", "mean loss", "rollbacks"],
        [[f"{i * step}-{(i + 1) * step}",
          float(np.mean(record.losses[i * step:(i + 1) * step])),
          sum(i * step <= r < (i + 1) * step
              for r in record.rollback_iterations)]
         for i in range(10)],
    )
    print(f"rollback rate: warm-up {record.rollback_rate(0, warmup):.1%}, "
          f"after {record.rollback_rate(warmup):.2%}")


def _cmd_fig15(args: argparse.Namespace) -> None:
    from repro.models.config import MODEL_CONFIG_TABLE
    from repro.systems import RunSetting, SuperOffloadSystem, ZeROOffload
    from repro.training.cluster import gh200_cluster

    setting = RunSetting(MODEL_CONFIG_TABLE[5], gh200_cluster(1),
                         global_batch=8)
    rows = []
    for system in (ZeROOffload(), SuperOffloadSystem()):
        est = system.best_estimate(setting)
        rows.append([system.display_name,
                     100 * (1 - est.gpu_idle_fraction()),
                     est.tflops_per_gpu])
    print_table(
        "Fig. 15 — GPU utilization (5B, batch 8)",
        ["system", "GPU util %", "TFLOPS"], rows,
    )


def _cmd_trace(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.models.config import MODEL_CONFIG_TABLE
    from repro.numeric.transformer import TransformerParams
    from repro.systems import RunSetting, SuperOffloadSystem
    from repro.telemetry import SUMMARY_HEADERS, Telemetry
    from repro.telemetry.export import (
        validate_chrome_trace,
        write_chrome_trace,
        write_events_jsonl,
    )
    from repro.training import (
        DataParallelTrainer,
        InstabilityInjector,
        STVTrainer,
    )
    from repro.training.cluster import gh200_cluster

    telemetry = Telemetry()
    iters = 8 if args.quick else 32

    # Live half 1: the STV engine under injected instability, so the trace
    # contains fwd_bwd/cast/optim/validate *and* rollback spans.
    trainer = STVTrainer(
        batch=4,
        injector=InstabilityInjector(
            warmup_iters=max(4, iters // 2), spike_probability=0.6,
            spike_scale=80.0, overflow_probability=0.4, seed=0,
        ),
        seed=1,
        telemetry=telemetry,
    )
    trainer.run(iters)

    # Live half 2: a short ZeRO data-parallel run for the collective
    # call/byte counters.
    dp = DataParallelTrainer(
        TransformerParams(vocab=61, max_seq=16, hidden=24, n_layers=2,
                          n_heads=4),
        world_size=2,
        clip_norm=1.0,
        telemetry=telemetry,
    )
    dp.train(2 if args.quick else 4, batch=4)

    # Simulated half: the Fig. 15 steady-state timeline on its own pid.
    est = SuperOffloadSystem().best_estimate(
        RunSetting(MODEL_CONFIG_TABLE[5], gh200_cluster(1), global_batch=8)
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    events_path = out / "events.jsonl"
    document = write_chrome_trace(
        trace_path,
        tracer=telemetry.tracer,
        sim_traces={"superoffload-sim": est.trace},
    )
    validate_chrome_trace(json.loads(trace_path.read_text()))
    n_lines = write_events_jsonl(
        events_path, telemetry.tracer, telemetry.metrics
    )
    print_table(
        "repro trace — telemetry metrics summary",
        list(SUMMARY_HEADERS),
        telemetry.metrics.summary_rows(),
    )
    print(f"\nwrote {trace_path} ({len(document['traceEvents'])} events; "
          f"open at https://ui.perfetto.dev) and {events_path} "
          f"({n_lines} lines)")


def _cmd_profile(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.exec.pool import KernelPool
    from repro.numeric.transformer import TransformerParams
    from repro.telemetry import StepProfiler, profiler_overhead
    from repro.telemetry.export import (
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.telemetry.flight import FlightRecorder
    from repro.telemetry.report import (
        MEMORY_HEADERS,
        OVERLAP_HEADERS,
        PHASE_HEADERS,
        PIPELINE_SIM_HEADERS,
        SIM_HEADERS,
        SPILL_SIM_HEADERS,
        WORKER_HEADERS,
        measured_trace,
        memory_rows,
        overlap_rows,
        phase_rows,
        pipeline_sim_rows,
        sim_comparison_rows,
        spill_sim_rows,
        worker_rows,
    )
    from repro.tensors.pinned import PinnedBufferPool
    from repro.training import (
        DataParallelTrainer,
        InstabilityInjector,
        STVTrainer,
    )

    iters = 4 if args.quick else 16
    spec = TransformerParams(vocab=64, max_seq=16, hidden=32, n_layers=2,
                             n_heads=2)

    # Run 1: the STV engine (rollback/cast/validate phases) under a
    # workspace, with the flight recorder riding along.
    profiler = StepProfiler()
    flight = FlightRecorder(profiler.telemetry, capacity=512)
    trainer = STVTrainer(
        spec=spec, batch=4,
        injector=InstabilityInjector(
            warmup_iters=max(2, iters // 2), spike_probability=0.6,
            spike_scale=80.0, overflow_probability=0.4, seed=0,
        ),
        seed=1, telemetry=profiler.telemetry, use_workspace=True,
    )
    ws = trainer.workspace
    profiler.watch_memory("workspace", lambda: ws.peak_bytes)
    trainer.run(iters)
    stv_report = profiler.report()
    print_table("repro profile — STV step phases", PHASE_HEADERS,
                phase_rows(stv_report))
    if stv_report.watermarks:
        print_table("repro profile — STV memory high-water",
                    MEMORY_HEADERS, memory_rows(stv_report))

    # Run 2: pipelined ZeRO data-parallel on a dedicated kernel pool —
    # the overlap audit and per-worker utilization.
    workers = args.workers or 2
    dp_profiler = StepProfiler()
    pool = KernelPool(workers, telemetry=dp_profiler.telemetry)
    pinned = PinnedBufferPool(capacity=8 << 20)
    dp = DataParallelTrainer(
        spec, world_size=2, clip_norm=1.0,
        telemetry=dp_profiler.telemetry, use_workspace=True,
        pipeline=True, bucket_elements=4096, pool=pool, pinned_pool=pinned,
    )
    dp_profiler.watch_memory(
        "zero_arena", lambda: dp.arena.flat.nbytes
    )
    dp_profiler.watch_memory(
        "pinned_staging", lambda: pinned.capacity - pinned.free_bytes
    )
    dp.train(max(2, iters // 2), batch=4)
    dp_report = dp_profiler.report()
    print_table("repro profile — DP (pipelined ZeRO) step phases",
                PHASE_HEADERS, phase_rows(dp_report))
    if dp_report.overlap:
        print_table(
            "repro profile — ZeRO bucket-pipeline overlap audit",
            OVERLAP_HEADERS, overlap_rows(dp_report),
        )
        eff = dp_report.mean_overlap_efficiency
        print(f"mean overlap efficiency: {eff:.2f} "
              f"(0 = serial, 1 = perfect overlap)")
    if dp_report.workers:
        print_table("repro profile — KernelPool worker utilization",
                    WORKER_HEADERS, worker_rows(dp_report))
    print_table("repro profile — DP memory high-water", MEMORY_HEADERS,
                memory_rows(dp_report))

    # Run 3: disk-offloaded pipelined ZeRO with an async checkpointer —
    # the spill tier's phases (spill_wait/checkpoint), the overlap
    # audit's spill columns, and the NVMe-model cross-check.
    import tempfile

    disk_profiler = StepProfiler()
    disk_pool = KernelPool(workers, telemetry=disk_profiler.telemetry)
    with tempfile.TemporaryDirectory(prefix="repro-profile-spill-") as sd:
        disk = DataParallelTrainer(
            spec, world_size=2, clip_norm=1.0,
            telemetry=disk_profiler.telemetry, use_workspace=True,
            pipeline=True, bucket_elements=4096, pool=disk_pool,
            offload="disk", spill_dir=str(Path(sd) / "spill"),
        )
        disk.attach_checkpointer(str(Path(sd) / "ckpt"), every=2)
        disk.train(max(2, iters // 2), batch=4)
        disk.finish_checkpoints()
        spill_bytes_read = disk.optimizer.spill.bytes_read
        spill_bytes_written = disk.optimizer.spill.bytes_written
        disk.optimizer.release_staging()
        disk.optimizer.close_spill()
    disk_pool.shutdown()
    disk_report = disk_profiler.report()
    print_table("repro profile — disk-offloaded ZeRO step phases",
                PHASE_HEADERS, phase_rows(disk_report))
    if disk_report.overlap:
        print_table(
            "repro profile — disk ZeRO overlap audit (spill columns)",
            OVERLAP_HEADERS, overlap_rows(disk_report),
        )
        spill_effs = [a.spill_overlap_efficiency
                      for a in disk_report.overlap
                      if a.spill_overlap_efficiency is not None]
        if spill_effs:
            print(f"mean spill-read overlap efficiency: "
                  f"{sum(spill_effs) / len(spill_effs):.2f} "
                  f"(0 = every byte stalled, 1 = fully hidden)")
    spill_read_s = sum(s.finish - s.start
                       for s in disk_profiler.tracer.spans
                       if s.name == "spill_read")
    spill_write_s = sum(s.finish - s.start
                        for s in disk_profiler.tracer.spans
                        if s.name == "spill_write")

    # Run 4: a plan-routed TP2xPP2 step — the 1F1B phase taxonomy
    # (pp_send/pp_recv/pp_bubble) and the measured bubble fraction.
    from repro.parallel.plan import ParallelPlan

    pp_microbatches = 4
    pp_plan = ParallelPlan(tp=2, pp=2)
    pp_profiler = StepProfiler()
    pp_trainer = DataParallelTrainer(
        spec, world_size=1, telemetry=pp_profiler.telemetry,
        plan=pp_plan, n_microbatches=pp_microbatches,
    )
    pp_trainer.train(max(2, iters // 2), batch=4)
    pp_report = pp_profiler.report()
    print_table(
        f"repro profile — plan {pp_plan.describe()} step phases "
        f"(m={pp_microbatches})",
        PHASE_HEADERS, phase_rows(pp_report),
    )
    measured_bubble = pp_trainer.plan_model.measured_bubble_fraction()
    print(f"measured 1F1B bubble fraction: {measured_bubble:.3f} "
          f"(ideal (p-1)/(m+p-1) = "
          f"{(pp_plan.pp - 1) / (pp_microbatches + pp_plan.pp - 1):.3f})")

    # Run 5: quantized serving decode — a continuous-batching burst with
    # a page budget tight enough to force eviction, so the serve-step
    # taxonomy (prefill/decode/kv_evict/dequant) shows real time.
    import tempfile as _tmp

    import numpy as np

    from repro.numeric.transformer import TinyTransformer
    from repro.serving import (
        ContinuousBatchingScheduler,
        InferenceEngine,
        SessionRegistry,
    )

    serve_profiler = StepProfiler()
    serve_spec = TransformerParams(vocab=128, max_seq=64, hidden=64,
                                   n_layers=2, n_heads=4)
    serve_model = TinyTransformer(serve_spec, seed=5)
    serve_rng = np.random.default_rng(5)
    with _tmp.TemporaryDirectory(prefix="repro-profile-kv-") as kvdir:
        with InferenceEngine(
            serve_model, max_pages=12, spill=str(Path(kvdir) / "kv"),
            telemetry=serve_profiler.telemetry,
        ) as engine:
            registry = SessionRegistry()
            n_sessions = 4 if args.quick else 8
            for _ in range(n_sessions):
                registry.create(
                    serve_rng.integers(0, serve_spec.vocab, size=12),
                    max_new_tokens=8 if args.quick else 16, eos_id=None,
                )
            ContinuousBatchingScheduler(
                engine, registry, max_batch=4
            ).run_until_done()
    kv_evicted, kv_written, kv_waits = (
        int(serve_profiler.telemetry.metrics.counter(name).value)
        for name in ("kv_pages_evicted", "kv_pages_written",
                     "kv_readahead_waits")
    )
    serve_report = serve_profiler.report()
    print_table(
        f"repro profile — serving decode step phases "
        f"({n_sessions} sessions, {kv_evicted} pages evicted, "
        f"{kv_written} written, {kv_waits} read-ahead waits)",
        PHASE_HEADERS, phase_rows(serve_report),
    )

    sim_rows = None
    spill_sim = None
    pipeline_sim = None
    if args.compare_sim:
        from repro.models.config import MODEL_CONFIG_TABLE
        from repro.systems import RunSetting, SuperOffloadSystem
        from repro.training.cluster import gh200_cluster

        est = SuperOffloadSystem().best_estimate(
            RunSetting(MODEL_CONFIG_TABLE[5], gh200_cluster(1),
                       global_batch=8)
        )
        sim_rows = sim_comparison_rows(dp_report, est.trace,
                                       est.steady_window)
        print_table(
            "repro profile — measured vs simulated busy shares "
            "(DP run vs SuperOffload sim, 5B)",
            SIM_HEADERS, sim_rows,
        )
        spill_sim = spill_sim_rows(
            spill_bytes_read, spill_bytes_written,
            spill_read_s, spill_write_s,
        )
        if spill_sim:
            print_table(
                "repro profile — measured spill I/O vs the simulator's "
                "NVMe link model",
                SPILL_SIM_HEADERS, spill_sim,
            )
        # The 1F1B cross-check: the substrate's measured bubble vs the
        # PipelinedTP timeline at the same (stages, microbatches).
        from repro.systems import ExecutionChoice, PipelinedTP

        pp_system = PipelinedTP(tp=pp_plan.tp, pp=pp_plan.pp)
        pp_setting = RunSetting(
            MODEL_CONFIG_TABLE[5], gh200_cluster(4),
            global_batch=pp_microbatches,
        )
        predicted_bubble = pp_system.predicted_bubble_fraction(
            pp_setting, ExecutionChoice(1, pp_microbatches,
                                        checkpointing=False),
        )
        pipeline_sim = pipeline_sim_rows(
            measured_bubble, predicted_bubble,
            pp_plan.pp, pp_microbatches,
        )
        print_table(
            "repro profile — measured vs simulated 1F1B bubble "
            f"(plan {pp_plan.describe()}, m={pp_microbatches})",
            PIPELINE_SIM_HEADERS, pipeline_sim,
        )

    # Overhead + bitwise check: the profiler must observe, never perturb.
    overhead = profiler_overhead(
        iters=2 if args.quick else 3, repeats=2 if args.quick else 3
    )
    print(f"\nprofiler overhead: {overhead.overhead_pct:.1f}% "
          f"(baseline {overhead.baseline_seconds * 1e3:.1f} ms, "
          f"profiled {overhead.profiled_seconds * 1e3:.1f} ms), "
          f"losses bitwise identical: {overhead.bitwise_identical}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    mt = measured_trace(dp_report)
    mt.validate()
    document = write_chrome_trace(
        trace_path, tracer=dp_profiler.tracer,
        sim_traces={"measured-phases": mt},
    )
    validate_chrome_trace(json.loads(trace_path.read_text()))
    profile_path = out / "PROFILE.json"
    profile_path.write_text(json.dumps({
        "stv_phase_seconds": stv_report.phase_totals,
        "dp_phase_seconds": dp_report.phase_totals,
        "overlap_efficiency": dp_report.mean_overlap_efficiency,
        "worker_utilization": [
            {"worker": w.worker, "chunks": w.chunks,
             "busy_seconds": w.busy_seconds,
             "queue_wait_seconds": w.queue_wait_seconds}
            for w in dp_report.workers
        ],
        "memory_highwater_bytes": {
            m.name: m.peak_bytes
            for m in stv_report.watermarks + dp_report.watermarks
        },
        "sim_comparison": sim_rows,
        "spill_phase_seconds": disk_report.phase_totals,
        "spill_bytes": {"read": spill_bytes_read,
                        "written": spill_bytes_written},
        "spill_io_seconds": {"read": spill_read_s,
                             "write": spill_write_s},
        "spill_overlap": [
            {"buckets": a.buckets,
             "spill_read_seconds": a.spill_read_seconds,
             "spill_write_seconds": a.spill_write_seconds,
             "spill_wait_seconds": a.spill_wait_seconds,
             "spill_overlap_efficiency": a.spill_overlap_efficiency}
            for a in disk_report.overlap
        ],
        "spill_sim_comparison": spill_sim,
        "serving_phase_seconds": serve_report.phase_totals,
        "kv_pages_evicted": kv_evicted,
        "kv_pages_written": kv_written,
        "kv_readahead_waits": kv_waits,
        "pp_phase_seconds": pp_report.phase_totals,
        "pipeline_bubble": {
            "plan": pp_plan.describe(),
            "microbatches": pp_microbatches,
            "measured": measured_bubble,
            "ideal": (pp_plan.pp - 1) / (pp_microbatches + pp_plan.pp - 1),
        },
        "pipeline_sim_comparison": pipeline_sim,
        "overhead_pct": overhead.overhead_pct,
        "bitwise_identical": overhead.bitwise_identical,
    }, indent=2) + "\n")
    flight_path = out / "flight.jsonl"
    n_flight = flight.dump(str(flight_path), reason="profile")
    pool.shutdown()
    print(f"\nwrote {trace_path} ({len(document['traceEvents'])} events; "
          f"open at https://ui.perfetto.dev), {profile_path}, and "
          f"{flight_path} ({n_flight} lines)")


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Zero-stall checkpoint/resume round-trip, resident and disk-offloaded.

    For each offload mode: train a reference run to completion, train a
    second run halfway, drop it (the checkpoint directory is all that
    survives — the crash-consistency tests also SIGKILL a subprocess
    mid-step), resume from the manifest, and verify the resumed master
    plane is bitwise identical to the uninterrupted run's.
    """
    import json
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.training.checkpoint import read_manifest, run_checkpointed

    iters = 4 if args.quick else 8
    rows = []
    doc: Dict[str, dict] = {}
    all_ok = True
    for offload in ("none", "disk"):
        with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as td:
            base = Path(td)
            ref_kw = dict(iterations=iters, batch=4, world_size=2, every=1)
            if offload == "disk":
                ref_kw.update(offload="disk")
            ref = run_checkpointed(
                str(base / "ref"), spill_dir=str(base / "ref-spill")
                if offload == "disk" else None, **ref_kw,
            )
            # Interrupted run: halfway, then a fresh process-equivalent
            # resumes from the manifest alone.
            run_checkpointed(
                str(base / "ckpt"), spill_dir=str(base / "spill-a")
                if offload == "disk" else None,
                iterations=iters // 2, batch=4, world_size=2, every=1,
                offload=offload,
            )
            manifest = read_manifest(str(base / "ckpt"))
            resumed = run_checkpointed(
                str(base / "ckpt"), spill_dir=str(base / "spill-b")
                if offload == "disk" else None,
                iterations=iters, batch=4, world_size=2, every=1,
                offload=offload,
            )
            identical = bool(
                np.array_equal(ref.arena.flat, resumed.arena.flat)
            )
            all_ok = all_ok and identical
            rows.append([
                offload, iters, manifest.step, manifest.slot,
                ", ".join(manifest.planes),
                "ok" if identical else "MISMATCH",
            ])
            doc[offload] = {
                "iterations": iters,
                "resumed_from_step": manifest.step,
                "slot": manifest.slot,
                "planes": list(manifest.planes),
                "chunk_bytes": manifest.chunk_bytes,
                "bitwise_identical": identical,
            }
    print_table(
        "repro checkpoint — interrupt/resume round-trip "
        "(resumed vs uninterrupted)",
        ["offload", "iters", "resumed@step", "slot", "planes", "identity"],
        rows,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "CHECKPOINT.json"
    ckpt_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {ckpt_path}")
    return 0 if all_ok else 5


def _cmd_tune(args: argparse.Namespace) -> int:
    """Search every tunable on this host; persist the winning profile."""
    import json
    from datetime import datetime, timezone
    from pathlib import Path

    from repro.tune import profile as tune_profile
    # Deliberately lazy: search imports the exec/optim/numeric consumers,
    # which import repro.tune — the package init must stay cycle-free.
    from repro.tune import search

    report = search.run_tuning(quick=args.quick, workers=args.workers)
    rows = []
    for o in report.outcomes:
        if o.chosen is None:
            chosen = "(default)"
        elif o.band_hi is not None:
            chosen = f"{o.chosen:,} for n<={o.band_hi:,}"
        else:
            chosen = f"{o.chosen:,}"
        rows.append([o.name, o.kind, f"{o.default:,}", chosen,
                     "ok" if o.bitwise_ok else "MISMATCH",
                     o.note or "measured crossover/candidate win"])
    print_table(
        f"repro tune — search outcomes (host {report.profile.host}, "
        f"{report.workers} workers)",
        ["tunable", "kind", "default", "chosen", "identity", "note"],
        rows,
    )
    if report.validation:
        print_table(
            "repro tune — tuned vs default on substrate workloads",
            ["check", "size", "tuned (ms)", "default (ms)", "speedup",
             "identity"],
            [[c.name, f"{c.size:,}", round(c.tuned_ms, 3),
              round(c.default_ms, 3), f"{c.speedup:.2f}x",
              "ok" if c.bitwise else "MISMATCH"]
             for c in report.validation],
        )
        print(f"\ngeomean tuned-vs-default speedup: {report.geomean:.3f}x "
              f"over {len(report.validation)} checks; identity: "
              f"{'all ok' if report.all_bitwise else 'FAILED'}")
    report.profile.created = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    path = tune_profile.save(
        report.profile, args.profile or tune_profile.HOME_PROFILE
    )
    print(f"wrote profile ({len(report.profile.entries)} entries) for "
          f"host {report.profile.host} to {path}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "TUNE_report.json"
    report_path.write_text(json.dumps(report.to_doc(), indent=2) + "\n")
    print(f"wrote {report_path}")
    return 0 if report.all_bitwise else 3


def _geomean_line(section: str, rows: List[dict]) -> str:
    """One summary line: the geometric-mean speedup across a section's rows."""
    import math

    speedups = [r["speedup"] for r in rows]
    gm = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return f"{section}: geomean speedup {gm:.2f}x over {len(rows)} sizes"


#: Per bench section: the row key whose time the tuned profile steers
#: (the optimized contestant) — the A/B column of ``bench --tuned``.
_BENCH_TUNED_KEY = {
    "zero_step": "arena_ms",
    "dp_step": "fused_ms",
    "rollback": "arena_ms",
    "parallel_step": "parallel_ms",
    "zero_pipeline": "pipeline_ms",
    "attention": "streaming_step_ms",
    "model_step": "workspace_ms",
    "spill": "overlap_ms",
    "checkpoint": "async_stall_ms",
}


def _attach_tuned_deltas(result: dict, default_result: dict) -> None:
    """Fold the default-arm times into the tuned rows, in place."""
    for section, key in _BENCH_TUNED_KEY.items():
        rows = result.get(section)
        base_rows = default_result.get(section)
        if not isinstance(rows, list) or not isinstance(base_rows, list):
            continue
        for r, b in zip(rows, base_rows):
            r["default_" + key] = b[key]
            r["tuned_vs_default"] = (
                b[key] / r[key] if r.get(key) else None
            )


def _load_bench_baseline(path) -> dict:
    """{(section, size): speedup} from a committed BENCH_substrate.json."""
    import json

    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    out = {}
    for section in _BENCH_TUNED_KEY:
        for r in doc.get(section, []) or []:
            if not isinstance(r, dict) or "speedup" not in r:
                continue
            size = r.get("elements", r.get("seq"))
            if size is not None:
                out[(section, size)] = r["speedup"]
    par = doc.get("parallelism")
    if isinstance(par, dict) and "speedup" in par:
        out[("parallelism", "grid")] = par["speedup"]
    inf = doc.get("inference")
    if isinstance(inf, dict):
        for r in inf.get("qmatmul", []) or []:
            if isinstance(r, dict) and "speedup" in r:
                size = r.get("elements")
                if size is not None:
                    out[("inference", size)] = r["speedup"]
        if "speedup" in inf:
            out[("inference", "geomean")] = inf["speedup"]
    return out


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.training import substrate_bench
    from repro.tune import runtime as tune_runtime

    sections = args.sections.split(",") if args.sections else None
    profile = None
    if args.tuned:
        from repro.tune import profile as tune_profile

        profile_path = (Path(args.profile) if args.profile
                        else tune_profile.default_path())
        profile = tune_profile.load(profile_path)
        if profile is None:
            print(f"error: no tuning profile for this host at "
                  f"{profile_path}; run 'repro tune' first", file=sys.stderr)
            return 2
        print(f"tuned run: {profile_path} (host {profile.host}, "
              f"{len(profile.entries)} entries)\n")
        with tune_runtime.overridden(profile):
            result = substrate_bench(
                quick=args.quick, workers=args.workers, sections=sections
            )
        # The A/B arm: the same sections with every tunable at its
        # registry default, so each row carries tuned-vs-default.
        with tune_runtime.overridden(None):
            default_result = substrate_bench(
                quick=args.quick, workers=args.workers, sections=sections
            )
        _attach_tuned_deltas(result, default_result)
        result["tuned"] = True
        result["tune_profile_host"] = profile.host
        result["tune_plan"] = profile.plan()
    else:
        result = substrate_bench(
            quick=args.quick, workers=args.workers, sections=sections
        )

    baseline_path = Path(args.baseline) if args.baseline else Path(
        "BENCH_substrate.json"
    )
    baseline = _load_bench_baseline(baseline_path)
    regressions: List[str] = []

    def extra_headers() -> List[str]:
        cols = []
        if args.tuned:
            cols.append("vs default")
        if baseline:
            cols.append("d base")
        return cols

    def extra_values(section: str, r: dict) -> List[str]:
        vals = []
        if args.tuned:
            tv = r.get("tuned_vs_default")
            vals.append(f"{tv:.2f}x" if tv is not None else "-")
        if baseline:
            size = r.get("elements", r.get("seq"))
            base = baseline.get((section, size))
            if base is None:
                vals.append("-")
            else:
                delta = r["speedup"] - base
                vals.append(f"{delta:+.2f}")
                if r["speedup"] < base - args.tolerance:
                    regressions.append(
                        f"{section} size {size}: {r['speedup']:.2f}x vs "
                        f"baseline {base:.2f}x "
                        f"(tolerance {args.tolerance:.2f})"
                    )
        return vals

    summaries = []
    if "zero_step" in result:
        print_table(
            "repro bench — arena vs dict-copy ZeRO step "
            f"(world {result['world_size']})",
            ["elements", "dict-copy (ms)", "arena (ms)", "speedup"]
            + extra_headers(),
            [[f"{r['elements']:,}", r["dict_copy_ms"], r["arena_ms"],
              f"{r['speedup']:.2f}x"] + extra_values("zero_step", r)
             for r in result["zero_step"]],
        )
        summaries.append(_geomean_line("zero_step", result["zero_step"]))
    if "dp_step" in result:
        print_table(
            "repro bench — data-parallel trainer step: fused gradient "
            f"path vs unfused reference (world {result['world_size']}, "
            f"{result['workers']} workers)",
            ["elements", "reference (ms)", "fused (ms)", "speedup",
             "cv ref/fused", "copies ref/fused", "tol"] + extra_headers(),
            [[f"{r['elements']:,}", r["reference_ms"], r["fused_ms"],
              f"{r['speedup']:.2f}x",
              f"{r['reference_cv']:.3f}/{r['fused_cv']:.3f}",
              f"{r['reference_copies_per_step']:g}/"
              f"{r['fused_copies_per_step']:g}",
              "ok" if r["tolerance_ok"] else "FAIL"]
             + extra_values("dp_step", r)
             for r in result["dp_step"]],
        )
        summaries.append(_geomean_line("dp_step", result["dp_step"]))
    if "rollback" in result:
        print_table(
            "repro bench — STV bucket snapshot capture+restore",
            ["elements", "per-tensor (ms)", "arena memcpy (ms)", "speedup",
             "range path"] + extra_headers(),
            [[f"{r['elements']:,}", r["per_tensor_ms"], r["arena_ms"],
              f"{r['speedup']:.2f}x",
              "yes" if r["arena_path_used"] else "no (below cutoff)"]
             + extra_values("rollback", r)
             for r in result["rollback"]],
        )
        summaries.append(_geomean_line("rollback", result["rollback"]))
    if "steady_state" in result:
        steady = result["steady_state"]
        print_table(
            "repro bench — steady-state arena traffic per ZeRO step",
            ["elements", "steps", "bytes copied", "bytes aliased"],
            [[f"{steady['elements']:,}", steady["steps"],
              steady["arena_bytes_copied_per_step"],
              steady["arena_bytes_aliased_per_step"]]],
        )
    if "parallel_step" in result:
        print_table(
            "repro bench — chunked-executor Adam step "
            f"({result['workers']} workers)",
            ["elements", "serial flat (ms)", "tiled (ms)", "executor (ms)",
             "speedup", "vs tiled", "bitwise"] + extra_headers(),
            [[f"{r['elements']:,}", r["serial_ms"], r["tiled_ms"],
              r["parallel_ms"], f"{r['speedup']:.2f}x",
              f"{r['speedup_vs_tiled']:.2f}x",
              "ok" if r["bitwise_identical"] else "MISMATCH"]
             + extra_values("parallel_step", r)
             for r in result["parallel_step"]],
        )
        summaries.append(
            _geomean_line("parallel_step", result["parallel_step"])
        )
    if "zero_pipeline" in result:
        print_table(
            "repro bench — overlapped bucket ZeRO pipeline "
            f"({result['workers']} workers)",
            ["elements", "bucket", "serial (ms)", "pipeline (ms)", "speedup",
             "bitwise"] + extra_headers(),
            [[f"{r['elements']:,}", f"{r['bucket_elements']:,}",
              r["serial_ms"], r["pipeline_ms"], f"{r['speedup']:.2f}x",
              "ok" if r["bitwise_identical"] else "MISMATCH"]
             + extra_values("zero_pipeline", r)
             for r in result["zero_pipeline"]],
        )
        summaries.append(
            _geomean_line("zero_pipeline", result["zero_pipeline"])
        )
    if "attention" in result:
        print_table(
            "repro bench — streaming blocked attention vs dense "
            "(calling thread)",
            ["seq", "dense fwd (ms)", "stream fwd (ms)", "fwd speedup",
             "dense f+b (ms)", "stream f+b (ms)", "f+b speedup",
             "mem ratio", "tol", "det"] + extra_headers(),
            [[r["seq"], r["dense_fwd_ms"], r["streaming_fwd_ms"],
              f"{r['fwd_speedup']:.2f}x", r["dense_step_ms"],
              r["streaming_step_ms"], f"{r['step_speedup']:.2f}x",
              f"{r['peak_transient_ratio']:.1f}x",
              "ok" if r["tolerance_ok"] else "FAIL",
              "ok" if r["bitwise_across_grouping"] else "MISMATCH"]
             + extra_values("attention", r)
             for r in result["attention"]],
        )
        summaries.append(_geomean_line("attention", result["attention"]))
    if "model_step" in result:
        print_table(
            "repro bench — model step with vs without the activation "
            "workspace (calling thread)",
            ["seq", "no workspace (ms)", "workspace (ms)", "speedup",
             "steady allocs", "peak bytes", "tol", "bitwise"]
            + extra_headers(),
            [[r["seq"], r["baseline_ms"], r["workspace_ms"],
              f"{r['speedup']:.2f}x", r["steady_allocs_per_step"],
              f"{r['workspace_peak_bytes']:,}",
              "ok" if r["tolerance_ok"] else "FAIL",
              "yes" if r["bitwise"] else "no"]
             + extra_values("model_step", r)
             for r in result["model_step"]],
        )
        summaries.append(_geomean_line("model_step", result["model_step"]))
    if "elementwise" in result:
        print_table(
            "repro bench — GELU fwd/bwd, ns per element: two-multiply "
            "cube vs x**3 (reference.gelu_pow / gelu_grad_pow)",
            ["elements", "x**3 fwd/bwd", "fwd/bwd", "speedup",
             "cv x**3/now", "max diff", "tol"] + extra_headers(),
            [[f"{r['elements']:,}",
              f"{r['pow_fwd_ns']:.1f}/{r['pow_bwd_ns']:.1f}",
              f"{r['fwd_ns']:.1f}/{r['bwd_ns']:.1f}",
              f"{r['speedup']:.1f}x", f"{r['pow_cv']:.3f}/{r['cv']:.3f}",
              f"{r['max_abs_diff']:.1e}",
              "ok" if r["tolerance_ok"] else "FAIL"]
             + extra_values("elementwise", r)
             for r in result["elementwise"]],
        )
        summaries.append(_geomean_line("elementwise", result["elementwise"]))
    if "spill" in result:
        print_table(
            "repro bench — disk-offloaded ZeRO: overlapped vs sync spill "
            f"({result['workers']} workers)",
            ["elements", "bucket", "resident (ms)", "sync (ms)",
             "overlap (ms)", "speedup", "vs resident", "bitwise"]
            + extra_headers(),
            [[f"{r['elements']:,}", f"{r['bucket_elements']:,}",
              r["resident_ms"], r["sync_ms"], r["overlap_ms"],
              f"{r['speedup']:.2f}x", f"{r['offload_overhead']:.2f}x",
              "ok" if r["bitwise_identical"] else "MISMATCH"]
             + extra_values("spill", r)
             for r in result["spill"]],
        )
        summaries.append(_geomean_line("spill", result["spill"]))
    if "checkpoint" in result:
        print_table(
            "repro bench — async checkpoint stall vs blocking save",
            ["elements", "blocking (ms)", "async stall (ms)", "speedup",
             "saves", "bitwise"] + extra_headers(),
            [[f"{r['elements']:,}", r["blocking_ms"], r["async_stall_ms"],
              f"{r['speedup']:.2f}x", r["saves"],
              "ok" if r["bitwise_identical"] else "MISMATCH"]
             + extra_values("checkpoint", r)
             for r in result["checkpoint"]],
        )
        summaries.append(_geomean_line("checkpoint", result["checkpoint"]))
    if "parallelism" in result:
        par = result["parallelism"]
        print_table(
            "repro bench — ParallelPlan substrate equivalence (world 4)",
            ["plan", "m", "grad max diff", "equivalence",
             "bubble meas/ideal"],
            [[r["plan"], r["microbatches"],
              f"{r['grad_max_abs_diff']:.1e}",
              ("bitwise" if r["bitwise"]
               else "ok (tol)" if r["tolerance_ok"] else "FAIL"),
              ("-" if r["measured_bubble"] is None
               else f"{r['measured_bubble']:.3f}/{r['ideal_bubble']:.3f}")]
             for r in par["substrate"]],
        )
        print_table(
            "repro bench — best parallel plan per (model, world)",
            ["model", "world", "batch", "best plan", "best (s)",
             "pure-DP (s)", "speedup", "composed beats DP"],
            [[g["model"], g["world"], g["global_batch"], g["best_plan"],
              f"{g['best_iter_s']:.3f}", f"{g['pure_dp_iter_s']:.3f}",
              f"{g['speedup_vs_pure_dp']:.2f}x",
              "yes" if g["composed_beats_pure_dp"] else "no"]
             for g in par["grid"]],
        )
        summaries.append(
            f"parallelism: best plan {par['best_plan']} is "
            f"{par['speedup']:.2f}x over pure DP at the largest config"
        )
        base = baseline.get(("parallelism", "grid"))
        if base is not None and par["speedup"] < base - args.tolerance:
            regressions.append(
                f"parallelism: {par['speedup']:.2f}x vs baseline "
                f"{base:.2f}x (tolerance {args.tolerance:.2f})"
            )
    if "inference" in result:
        inf = result["inference"]
        print_table(
            "repro bench — fused int8 qmatmul vs dense-dequant "
            f"({result['workers']} workers)",
            ["shape", "dense-deq (ms)", "fused (ms)", "fp32 (ms)",
             "speedup", "vs fp32", "mem", "tol", "bound", "det"]
            + extra_headers(),
            [[r["shape"], r["dense_dequant_ms"], r["fused_ms"],
              r["fp32_resident_ms"], f"{r['speedup']:.2f}x",
              f"{r['vs_fp32']:.2f}x", f"{r['mem_ratio']:.2f}x",
              "ok" if r["tolerance_ok"] else "FAIL",
              "ok" if r["bound_ok"] else "FAIL",
              "ok" if r["deterministic"] else "MISMATCH"]
             + extra_values("inference", r)
             for r in inf["qmatmul"]],
        )
        print_table(
            "repro bench — continuous-batching serving sweep "
            "(int8 + paged KV)",
            ["sessions", "tokens", "req/s", "tok/s", "p50 (ms)",
             "p95 (ms)", "ttft (ms)", "mem"],
            [[r["sessions"], r["tokens"],
              f"{r['request_rate_per_s']:.1f}",
              f"{r['tokens_per_sec']:.0f}", f"{r['p50_token_ms']:.2f}",
              f"{r['p95_token_ms']:.2f}", f"{r['ttft_ms']:.1f}",
              f"{r['memory_ratio']:.2f}x"]
             for r in inf["serving"]],
        )
        summaries.append(
            f"inference: geomean qmatmul speedup {inf['speedup']:.2f}x; "
            f"{inf['tokens_per_sec']:.0f} tok/s peak, "
            f"p95 {inf['p95_token_ms']:.2f} ms/token"
        )
        base = baseline.get(("inference", "geomean"))
        if base is not None and inf["speedup"] < base - args.tolerance:
            regressions.append(
                f"inference: geomean {inf['speedup']:.2f}x vs baseline "
                f"{base:.2f}x (tolerance {args.tolerance:.2f})"
            )
    if summaries:
        print()
        for line in summaries:
            print(line)
    # Honest-reporting pass: any measured regression gets a WARN line so
    # a below-1.0x row (the known small-size losses of parallel_step /
    # zero_pipeline at 65k elements) never hides inside a healthy geomean.
    warned = False
    warn_rows = [
        (section, r)
        for section in ("zero_step", "dp_step", "rollback",
                        "parallel_step", "zero_pipeline", "attention",
                        "model_step", "elementwise",
                        "spill", "checkpoint")
        for r in result.get(section, [])
    ] + [
        ("inference", r)
        for r in (result.get("inference") or {}).get("qmatmul", [])
    ]
    for section, r in warn_rows:
        speedup = r.get("speedup")
        if speedup is not None and speedup < 1.0:
            size = r.get("elements", r.get("seq", "?"))
            print(f"WARN: {section} size {size} speedup "
                  f"{speedup:.2f}x < 1.0x (slower than baseline)")
            warned = True
    if warned:
        print("WARN lines indicate sizes where the optimized path loses "
              "to its baseline; see BENCH_substrate.json for details.")
    if regressions:
        print(f"\nregressions vs {baseline_path}:")
        for line in regressions:
            print(f"  REGRESSION: {line}")
    elif baseline:
        print(f"\nno regressions vs {baseline_path} beyond "
              f"tolerance {args.tolerance:.2f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench_path = out / "BENCH_substrate.json"
    bench_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {bench_path}")
    if args.strict and regressions:
        return 4
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Streaming-serve smoke: concurrent clients over the int8 engine.

    Builds a small randomly-initialized model, quantizes it into the
    engine, and drives ``--sessions`` concurrent client threads through
    the continuous-batching streaming server — the CLI face of
    :class:`repro.serving.StreamingServer`.  Prints one line per session
    plus the aggregate token metrics the bench records.
    """
    import threading

    import numpy as np

    from repro.numeric.transformer import TinyTransformer, TransformerParams
    from repro.serving import InferenceEngine, StreamingServer

    if args.quick:
        spec = TransformerParams(vocab=128, max_seq=64, hidden=64,
                                 n_layers=2, n_heads=4)
    else:
        spec = TransformerParams(vocab=512, max_seq=160, hidden=128,
                                 n_layers=4, n_heads=8)
    sessions = args.sessions
    prompt_len = min(args.prompt_tokens, spec.max_seq - 1)
    max_new = min(args.max_new_tokens, spec.max_seq - prompt_len)
    model = TinyTransformer(spec, seed=0)
    engine = InferenceEngine(model)
    ratio = engine.memory_ratio
    rng = np.random.default_rng(0)
    results: Dict[int, List[int]] = {}
    with StreamingServer(engine, max_batch=sessions) as server:
        def client(i: int, prompt: np.ndarray) -> None:
            sid = server.submit(prompt, max_new)
            results[i] = list(server.stream(sid))

        threads = [
            threading.Thread(
                target=client,
                args=(i, rng.integers(0, spec.vocab, size=prompt_len)),
            )
            for i in range(sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        met = server.metrics()
    for i in sorted(results):
        toks = results[i]
        head = " ".join(str(t) for t in toks[:8])
        more = f" ... (+{len(toks) - 8})" if len(toks) > 8 else ""
        print(f"session {i}: {len(toks)} tokens: {head}{more}")
    print(f"\n{met['sessions']} sessions, {met['tokens']} tokens in "
          f"{met['wall_s']:.2f}s — {met['tokens_per_sec']:.0f} tok/s, "
          f"p50 {met['p50_token_ms']:.2f} ms, "
          f"p95 {met['p95_token_ms']:.2f} ms, "
          f"ttft {met['ttft_ms']:.1f} ms; "
          f"int8 model {ratio:.2f}x smaller than fp32")
    short = [i for i, toks in results.items() if not toks]
    if short:
        print(f"error: sessions {short} produced no tokens",
              file=sys.stderr)
        return 1
    return 0


def _cmd_timeline(args: argparse.Namespace) -> None:
    from repro.models.config import MODEL_CONFIG_TABLE
    from repro.sim.gantt import render_timeline
    from repro.systems import RunSetting, SuperOffloadSystem, ZeROOffload
    from repro.training.cluster import gh200_cluster

    setting = RunSetting(MODEL_CONFIG_TABLE[5], gh200_cluster(1),
                         global_batch=8)
    for system in (ZeROOffload(), SuperOffloadSystem()):
        est = system.best_estimate(setting)
        print(f"\n--- {system.display_name} (steady-state iteration) ---")
        print(render_timeline(est.trace, ["gpu", "d2h", "cpu", "h2d"],
                              width=96, window=est.steady_window))


COMMANDS: Dict[str, Callable[[argparse.Namespace], "int | None"]] = {
    "table1": _cmd_table1,
    "fig4": _cmd_fig4,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig13,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "fig14": _cmd_fig14,
    "fig15": _cmd_fig15,
    "timeline": _cmd_timeline,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "tune": _cmd_tune,
    "checkpoint": _cmd_checkpoint,
    "serve": _cmd_serve,
}

#: Commands that write files (or run a live server); excluded from
#: ``repro all``.
_FILE_WRITING = {"trace", "bench", "profile", "tune", "checkpoint",
                 "serve"}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate SuperOffload paper artifacts.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(COMMANDS) + ["all", "list"],
        help="which table/figure to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="trim the heavier sweeps for a fast smoke run",
    )
    parser.add_argument(
        "--chips", type=int, default=None,
        help="restrict fig12 to one superchip count",
    )
    parser.add_argument(
        "--out", default=".",
        help="output directory for 'trace' (trace.json + events.jsonl) "
             "and 'bench' (BENCH_substrate.json)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="kernel-pool thread count for the executor bench sections "
             "(default: max(2, host cores))",
    )
    parser.add_argument(
        "--sections", default=None,
        help="comma-separated subset of bench sections to run "
             "(default: all; e.g. --sections parallel_step,zero_pipeline)",
    )
    parser.add_argument(
        "--compare-sim", action="store_true",
        help="profile: also compare the measured phase shares against "
             "the SuperOffload simulator's predicted timeline",
    )
    parser.add_argument(
        "--tuned", action="store_true",
        help="bench: run under the host tuning profile and A/B every "
             "section against the registry defaults",
    )
    parser.add_argument(
        "--profile", default=None,
        help="tune/bench --tuned: tuning-profile path (tune default: "
             "~/.repro/tune.json; bench default: $REPRO_TUNE_PROFILE > "
             "./.repro/tune.json > ~/.repro/tune.json)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="bench: committed BENCH_substrate.json to diff speedups "
             "against (default: ./BENCH_substrate.json if present)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="bench: exit non-zero when any section/size regresses below "
             "the baseline speedup by more than --tolerance",
    )
    parser.add_argument(
        "--sessions", type=int, default=8,
        help="serve: concurrent streaming client sessions (default 8)",
    )
    parser.add_argument(
        "--prompt-tokens", type=int, default=16,
        help="serve: prompt length per session (default 16)",
    )
    parser.add_argument(
        "--max-new-tokens", type=int, default=32,
        help="serve: generation budget per session (default 32)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="bench --strict: allowed absolute speedup drop vs the "
             "baseline before a row counts as a regression (default 0.05)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.artifact == "list":
        print("available artifacts:", ", ".join(sorted(COMMANDS)), "| all")
        return 0
    names = (
        sorted(set(COMMANDS) - _FILE_WRITING)
        if args.artifact == "all"
        else [args.artifact]
    )
    rc = 0
    for name in names:
        rc = max(rc, COMMANDS[name](args) or 0)
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
