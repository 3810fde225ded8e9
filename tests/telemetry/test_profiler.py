"""Tests for step-phase attribution, overlap audit, and overhead."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.numeric.transformer import TransformerParams
from repro.telemetry import StepProfiler, Telemetry
from repro.telemetry.profiler import (
    PHASES,
    _attribute_window,
    phase_of,
    profiler_overhead,
)
from repro.telemetry.report import (
    measured_trace,
    phase_rows,
    sim_comparison_rows,
    worker_rows,
)
from repro.telemetry.tracer import Span


def _span(name, category, start, finish, depth=1, thread=0, **attrs):
    return Span(name=name, category=category, start=start, finish=finish,
                depth=depth, thread=thread, attrs=attrs)


TINY = TransformerParams(vocab=64, max_seq=16, hidden=32, n_layers=2,
                         n_heads=2)


def _stv_profiler(iters=3):
    from repro.training.stv_trainer import STVTrainer

    profiler = StepProfiler()
    trainer = STVTrainer(spec=TINY, batch=2, seed=3,
                         telemetry=profiler.telemetry)
    trainer.run(iters)
    return profiler


class TestPhaseMapping:
    def test_names_win_over_categories(self):
        s = _span("bucket_wait", "optim", 0, 1)
        assert phase_of(s) == "stall"

    def test_category_fallback(self):
        assert phase_of(_span("anything", "rollback", 0, 1)) == "rollback"

    def test_unmapped_is_none(self):
        assert phase_of(_span("train_step", "step", 0, 1)) is None


class TestAttribution:
    def test_uncovered_time_is_idle(self):
        seconds, segments = _attribute_window(
            [_span("forward", "compute", 1.0, 2.0)], 0.0, 3.0
        )
        assert seconds["forward"] == pytest.approx(1.0)
        assert seconds["idle"] == pytest.approx(2.0)
        assert [s.phase for s in segments] == ["idle", "forward", "idle"]

    def test_innermost_span_wins(self):
        spans = [
            _span("fwd_bwd", "compute", 0.0, 4.0, depth=1),
            _span("forward", "compute", 0.0, 2.0, depth=2),
        ]
        seconds, _ = _attribute_window(spans, 0.0, 4.0)
        assert seconds["forward"] == pytest.approx(2.0)
        assert seconds["backward"] == pytest.approx(2.0)

    def test_spans_clipped_to_window(self):
        seconds, _ = _attribute_window(
            [_span("forward", "compute", -1.0, 10.0)], 0.0, 2.0
        )
        assert seconds == {"forward": pytest.approx(2.0)}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["forward", "backward", "grad_reduce",
                             "bucket_wait", "cast"]),
            st.floats(0.0, 10.0),
            st.floats(0.0, 10.0),
            st.integers(1, 4),
        ),
        max_size=12,
    ))
    def test_phases_partition_the_window(self, raw):
        """Phase durations always sum to the window length exactly."""
        spans = [
            _span(name, "compute", min(a, b), max(a, b), depth=d)
            for name, a, b, d in raw
        ]
        seconds, segments = _attribute_window(spans, 0.0, 10.0)
        assert sum(seconds.values()) == pytest.approx(10.0, abs=1e-9)
        assert set(seconds) <= set(PHASES)
        # segments also partition the window, in order, without overlap
        cursor = 0.0
        for seg in segments:
            assert seg.start == pytest.approx(cursor, abs=1e-9)
            assert seg.finish >= seg.start
            cursor = seg.finish
        assert cursor == pytest.approx(10.0, abs=1e-9)


class TestStepProfiler:
    def test_requires_enabled_telemetry(self):
        with pytest.raises(ValueError):
            StepProfiler(Telemetry(enabled=False))

    def test_phase_sums_match_step_wall_time(self):
        report = _stv_profiler().report()
        assert report.step_count == 3
        for step in report.steps:
            total = sum(step.phase_seconds.values())
            assert total == pytest.approx(step.wall_seconds, rel=1e-6)

    def test_compute_dominates_a_training_step(self):
        report = _stv_profiler().report()
        compute = (report.phase_share("forward")
                   + report.phase_share("backward"))
        assert compute > 0.3
        assert 0.0 <= report.phase_share("idle") < 0.6

    def test_phase_rows_include_total(self):
        report = _stv_profiler().report()
        rows = phase_rows(report)
        assert rows[-1][0] == "total"
        assert rows[-1][1] == pytest.approx(report.wall_seconds)

    def test_memory_watcher_tracks_peak(self):
        profiler = StepProfiler()
        level = {"value": 0.0}
        profiler.watch_memory("fake", lambda: level["value"])
        tracer = profiler.telemetry.tracer
        with tracer.span("train_step", category="step"):
            level["value"] = 100.0
            with tracer.span("forward", category="compute"):
                pass
            level["value"] = 40.0  # drop after the peak
        report = profiler.report()
        (mark,) = report.watermarks
        assert mark.name == "fake"
        assert mark.peak_bytes == 100.0
        assert mark.samples >= 2

    def test_watcher_errors_never_propagate(self):
        profiler = StepProfiler()
        profiler.watch_memory("broken", lambda: 1 / 0)
        with profiler.telemetry.tracer.span("forward", category="compute"):
            pass  # closing must not raise


class TestOverlapAudit:
    def _dp_report(self, pipeline, workers=2):
        from repro.exec.pool import KernelPool
        from repro.training.dp_trainer import DataParallelTrainer

        profiler = StepProfiler()
        pool = KernelPool(workers, telemetry=profiler.telemetry)
        try:
            dp = DataParallelTrainer(
                TINY, world_size=2, telemetry=profiler.telemetry,
                pipeline=pipeline, bucket_elements=4096, pool=pool,
            )
            dp.train(2, batch=4)
            return profiler.report()
        finally:
            pool.shutdown()

    def test_pipelined_steps_are_audited(self):
        report = self._dp_report(pipeline=True)
        assert len(report.overlap) == 2
        for audit in report.overlap:
            assert 0.0 <= audit.efficiency <= 1.0
            assert audit.buckets > 0
            assert audit.serial_seconds > 0
            assert audit.lower_bound_seconds <= audit.serial_seconds
            assert audit.bubble_seconds >= 0

    def test_serial_steps_are_not_audited(self):
        report = self._dp_report(pipeline=False)
        assert report.overlap == []
        # the serial path exposes the reduce/gather as a grad_reduce phase
        assert report.phase_totals.get("grad_reduce", 0.0) > 0.0

    def test_worker_utilization_rows(self):
        report = self._dp_report(pipeline=True)
        assert [w.worker for w in report.workers] == [0, 1]
        assert sum(w.chunks for w in report.workers) > 0
        for w in report.workers:
            assert 0.0 <= w.utilization <= 1.0
        rows = worker_rows(report)
        assert rows[-1][0] == "straggler(max/mean)"

    def test_measured_trace_validates(self):
        report = self._dp_report(pipeline=True)
        trace = measured_trace(report)
        trace.validate()
        assert trace.intervals
        busy = trace.busy_time("measured")
        wall = report.wall_seconds
        idleish = (report.phase_totals.get("idle", 0.0)
                   + 0.0)  # idle segments become gaps
        assert busy == pytest.approx(wall - idleish, rel=1e-6)

    def test_sim_comparison_rows_are_percentages(self):
        from repro.models.config import MODEL_CONFIG_TABLE
        from repro.systems import RunSetting, SuperOffloadSystem
        from repro.training.cluster import gh200_cluster

        report = self._dp_report(pipeline=True)
        est = SuperOffloadSystem().best_estimate(
            RunSetting(MODEL_CONFIG_TABLE[5], gh200_cluster(1),
                       global_batch=8)
        )
        rows = sim_comparison_rows(report, est.trace, est.steady_window)
        cats = [r[0] for r in rows]
        assert "compute" in cats
        assert cats[-1] == "idle(vs sim gpu)"
        for _, measured, predicted, delta in rows:
            assert 0.0 <= measured <= 100.0
            assert 0.0 <= predicted <= 100.0
            assert delta == pytest.approx(measured - predicted)


class TestDPStepAttribution:
    """Nothing in a data-parallel step runs outside a span: the reduce
    and the norm sit under ``grad_health`` (validate), the clip and the
    bucket Adam under ``optim`` — so ``idle`` is only the python glue
    between spans (it was ~30 % when the mean, the check, the ingest
    copies and the clip ran bare)."""

    #: Large enough that the fixed glue is well under a percent.
    SPEC = TransformerParams(vocab=512, max_seq=16, hidden=128,
                             n_layers=2, n_heads=4)

    def _report(self, pipeline):
        from repro.exec.pool import KernelPool
        from repro.training.dp_trainer import DataParallelTrainer

        profiler = StepProfiler()
        pool = KernelPool(2, telemetry=profiler.telemetry)
        try:
            dp = DataParallelTrainer(
                self.SPEC, world_size=2, clip_norm=0.05,
                telemetry=profiler.telemetry, pipeline=pipeline, pool=pool,
            )
            reports = dp.train(3, batch=4)
            assert all(r.clipped for r in reports)
            return profiler
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_idle_share_is_small_and_phases_sum_to_wall(self, pipeline):
        report = self._report(pipeline).report()
        assert report.step_count == 3
        for step in report.steps:
            assert sum(step.phase_seconds.values()) == pytest.approx(
                step.wall_seconds, rel=1e-6)
        assert report.phase_share("idle") < 0.05
        assert report.phase_totals["validate"] > 0.0
        assert report.phase_totals["optimizer"] > 0.0
        assert "validate" in [row[0] for row in phase_rows(report)]

    def test_health_and_clip_spans_carry_their_categories(self):
        tracer = self._report(pipeline=True).tracer
        health = tracer.spans_named("grad_health")
        clips = tracer.spans_named("grad_clip")
        assert len(health) == 3 and clips
        assert {s.category for s in health} == {"validate"}
        assert {s.category for s in clips} == {"optim"}
        assert phase_of(health[0]) == "validate"
        assert phase_of(clips[0]) == "optimizer"
        # pipelined: the reduces ran on the pool's threads while the
        # step thread waited inside grad_health
        reduce_threads = {s.thread
                          for s in tracer.spans_named("bucket_reduce")}
        assert reduce_threads and health[0].thread not in reduce_threads


class TestOverhead:
    def test_profiled_run_is_bitwise_identical(self):
        result = profiler_overhead(iters=2, repeats=1)
        assert result.bitwise_identical
        assert result.baseline_seconds > 0
        assert result.profiled_seconds > 0

    def test_disabled_telemetry_records_nothing(self):
        from repro.telemetry import NULL_TELEMETRY
        from repro.training.stv_trainer import STVTrainer

        trainer = STVTrainer(spec=TINY, batch=2, seed=3,
                             telemetry=NULL_TELEMETRY)
        trainer.run(2)
        assert NULL_TELEMETRY.tracer.spans == ()


class TestSpillPhases:
    def test_spill_wait_maps_to_its_own_phase(self):
        assert phase_of(_span("spill_wait", "stall", 0, 1)) == "spill_wait"
        assert "spill_wait" in PHASES

    def test_checkpoint_spans_map_to_checkpoint_phase(self):
        assert phase_of(_span("ckpt_capture", "checkpoint", 0, 1)) == \
            "checkpoint"
        assert phase_of(_span("checkpoint", "checkpoint", 0, 1)) == \
            "checkpoint"
        assert "checkpoint" in PHASES

    def test_spill_io_spans_are_not_step_phases(self):
        """spill_read/spill_write run on the I/O thread; they feed the
        overlap audit, never same-thread step attribution."""
        assert phase_of(_span("spill_read", "spill_io", 0, 1)) is None
        assert phase_of(_span("spill_write", "spill_io", 0, 1)) is None


class TestSpillOverlapAudit:
    def _disk_report(self, tmp_path, every=0):
        from repro.exec.pool import KernelPool
        from repro.training.dp_trainer import DataParallelTrainer

        profiler = StepProfiler()
        pool = KernelPool(2, telemetry=profiler.telemetry)
        try:
            dp = DataParallelTrainer(
                TINY, world_size=2, telemetry=profiler.telemetry,
                pipeline=True, bucket_elements=4096, pool=pool,
                offload="disk", spill_dir=str(tmp_path / "spill"),
            )
            if every:
                dp.attach_checkpointer(str(tmp_path / "ckpt"), every=every)
            dp.train(2, batch=4)
            dp.finish_checkpoints()
            dp.optimizer.release_staging()
            dp.optimizer.close_spill()
            return profiler.report()
        finally:
            pool.shutdown()

    def test_disk_steps_report_spill_io_and_efficiency(self, tmp_path):
        report = self._disk_report(tmp_path)
        assert len(report.overlap) == 2
        for audit in report.overlap:
            assert audit.spill_read_seconds > 0
            assert audit.spill_write_seconds > 0
            assert audit.spill_wait_seconds >= 0
            assert 0.0 <= audit.spill_overlap_efficiency <= 1.0

    def test_resident_steps_have_no_spill_audit(self):
        from repro.exec.pool import KernelPool
        from repro.training.dp_trainer import DataParallelTrainer

        profiler = StepProfiler()
        pool = KernelPool(2, telemetry=profiler.telemetry)
        try:
            dp = DataParallelTrainer(
                TINY, world_size=2, telemetry=profiler.telemetry,
                pipeline=True, bucket_elements=4096, pool=pool,
            )
            dp.train(1, batch=4)
        finally:
            pool.shutdown()
        report = profiler.report()
        for audit in report.overlap:
            assert audit.spill_overlap_efficiency is None
            assert audit.spill_read_seconds == 0.0

    def test_checkpointed_run_shows_checkpoint_phase(self, tmp_path):
        report = self._disk_report(tmp_path, every=1)
        assert report.phase_totals.get("checkpoint", 0.0) > 0.0

    def test_spill_sim_rows_cover_both_directions(self, tmp_path):
        from repro.telemetry.report import SPILL_SIM_HEADERS, spill_sim_rows

        rows = spill_sim_rows(1 << 20, 1 << 19, 0.004, 0.002)
        assert [r[0] for r in rows] == ["read", "write"]
        for _, nbytes, measured_ms, predicted_ms, delta in rows:
            assert nbytes > 0
            assert measured_ms > 0 and predicted_ms > 0
            assert delta == pytest.approx(
                (measured_ms - predicted_ms) / predicted_ms * 100.0
            )
        assert len(SPILL_SIM_HEADERS) == len(rows[0])
        assert spill_sim_rows(0, 0, 0.0, 0.0) == []
