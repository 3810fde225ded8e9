"""The data-parallel step's fused gradient path: backward lands in the
rank arenas, one validated reduce-scatter feeds the health check and the
shard Adam.  Held against the unfused reference step, across schedules,
and under injected non-finite gradients."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import reference
from repro.data import SyntheticPile
from repro.exec.pool import KernelPool
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.optim.adam import AdamConfig
from repro.parallel.plan import ParallelPlan
from repro.parallel.zero import ZeroShardedAdam
from repro.telemetry import Telemetry
from repro.training.dp_trainer import DataParallelTrainer

SPEC = TransformerParams(vocab=67, max_seq=12, hidden=16, n_layers=2,
                         n_heads=4)
ADAM = AdamConfig(lr=5e-3)
#: Clip thresholds around this model's gradient norms (~0.75 .. 1.8):
#: TIGHT clips every step, LOOSE some of them.
TIGHT, LOOSE = 0.05, 1.1


def batches(n, batch=8, seed=11):
    gen = SyntheticPile(SPEC.vocab, seed=seed).batches(batch, SPEC.max_seq)
    return [next(gen) for _ in range(n)]


def schedule_args(mode, spill_dir):
    """Constructor arguments (shared by the trainer and the bare
    optimizer) selecting one of the three schedules."""
    args = dict(pipeline=mode != "serial", bucket_elements=1000)
    if mode == "disk":
        args.update(offload="disk", spill_dir=str(spill_dir))
    return args


def close(trainer):
    trainer.optimizer.release_staging()
    trainer.optimizer.close_spill()


def planes(trainer):
    """Every plane a step may write, plus the step counters."""
    out = dict(trainer.optimizer.moment_planes())
    out["master"] = trainer.arena.flat.copy()
    out["fp16"] = trainer._fp16_arena.flat.copy()
    out["steps"] = np.array(trainer.optimizer.shard_steps())
    return out


def assert_same_planes(a, b):
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def reference_twin(world, seed, mode, spill_dir):
    """(model, optimizer, fp16 arena): the state
    :func:`reference.dp_step_reference` steps."""
    model = TinyTransformer(SPEC, seed=seed)
    optimizer = ZeroShardedAdam(model.params, world, config=ADAM,
                                **schedule_args(mode, spill_dir))
    fp16 = optimizer.arena.like(np.float16)
    fp16.flat[...] = optimizer.arena.flat
    return model, optimizer, fp16


class TestAgainstReference:
    @given(world=st.sampled_from([1, 2, 4]),
           clip=st.sampled_from([None, TIGHT, LOOSE]),
           mode=st.sampled_from(["serial", "pipelined", "disk"]),
           seed=st.integers(min_value=0, max_value=2**10))
    @settings(max_examples=12, deadline=None)
    def test_same_decisions_norms_and_parameters(self, world, clip, mode,
                                                 seed):
        """Six steps in lockstep: the reference is put in the trainer's
        state before every step, so each comparison is of one step from
        identical bits.  (Left to run free, a clipped pair drifts: the
        two round the clip in a different order, and a 1-ulp master
        difference that crosses an fp16 rounding boundary perturbs the
        next forward — mixed precision, not the step, sets that
        tolerance.)"""
        with tempfile.TemporaryDirectory() as tmp:
            trainer = DataParallelTrainer(
                SPEC, world, adam=ADAM, clip_norm=clip, seed=seed,
                **schedule_args(mode, Path(tmp) / "new"))
            model, optimizer, fp16 = reference_twin(
                world, seed, mode, Path(tmp) / "ref")
            try:
                for ids, targets in batches(6, seed=seed):
                    optimizer.arena.flat[...] = trainer.arena.flat
                    optimizer.load_moments(
                        **trainer.optimizer.moment_planes(),
                        steps=trainer.optimizer.shard_steps())
                    fp16.flat[...] = trainer._fp16_arena.flat
                    report = trainer.train_step(ids, targets)
                    loss, health = reference.dp_step_reference(
                        model, optimizer, fp16, ids, targets, clip)
                    assert report.loss == loss
                    assert not report.skipped
                    assert report.clipped == health.clip_triggered
                    assert report.grad_norm == pytest.approx(
                        health.global_norm, rel=1e-6)
                    np.testing.assert_allclose(
                        trainer.arena.flat, optimizer.arena.flat,
                        atol=1e-5)
            finally:
                close(trainer)
                optimizer.release_staging()
                optimizer.close_spill()

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_unclipped_free_run_is_bitwise(self, world):
        """Without a clip both paths feed Adam the same reduce-scatter
        bits, so six free-running steps agree exactly."""
        trainer = DataParallelTrainer(SPEC, world, adam=ADAM, seed=4)
        model, optimizer, fp16 = reference_twin(world, 4, "serial", None)
        for ids, targets in batches(6):
            report = trainer.train_step(ids, targets)
            loss, _ = reference.dp_step_reference(
                model, optimizer, fp16, ids, targets, None)
            assert report.loss == loss
        np.testing.assert_array_equal(trainer.arena.flat,
                                      optimizer.arena.flat)
        np.testing.assert_array_equal(trainer._fp16_arena.flat, fp16.flat)

    def test_loose_threshold_clips_some_steps_not_all(self):
        """LOOSE sits inside this model's gradient-norm range, so the
        suite above compares real decisions, not a constant."""
        trainer = DataParallelTrainer(SPEC, 2, adam=ADAM, clip_norm=LOOSE,
                                      seed=3)
        clipped = [trainer.train_step(*b).clipped for b in batches(8)]
        assert any(clipped) and not all(clipped)


class TestSchedulesAgree:
    def test_disk_equals_resident_bitwise(self, tmp_path):
        resident = DataParallelTrainer(
            SPEC, 2, adam=ADAM, clip_norm=0.5, seed=5,
            **schedule_args("pipelined", None))
        disk = DataParallelTrainer(
            SPEC, 2, adam=ADAM, clip_norm=0.5, seed=5,
            **schedule_args("disk", tmp_path))
        try:
            for batch in batches(5):
                assert resident.train_step(*batch) == \
                    disk.train_step(*batch)
            assert_same_planes(planes(resident), planes(disk))
        finally:
            close(resident)
            close(disk)

    def test_grad_norm_independent_of_worker_count(self):
        norms = []
        for workers in (1, 3):
            pool = KernelPool(workers)
            trainer = DataParallelTrainer(
                SPEC, 4, adam=ADAM, clip_norm=0.5, seed=6, pool=pool,
                **schedule_args("pipelined", None))
            try:
                norms.append([trainer.train_step(*b).grad_norm
                              for b in batches(4)])
            finally:
                close(trainer)
                pool.shutdown()
        assert norms[0] == norms[1]


def plant(trainer, rank, value):
    """Wrap the model's ``loss_and_grads`` so the next call for ``rank``
    leaves ``value`` in that rank's gradient arena (one-shot)."""
    real = trainer.model.loss_and_grads
    calls = {"n": 0}

    def wrapped(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        if calls["n"] == rank:
            grads["h0.fc1.w"][1, 2] = value
            trainer.model.loss_and_grads = real
        calls["n"] += 1
        return loss, grads

    trainer.model.loss_and_grads = wrapped


class TestOverflowSkip:
    @pytest.mark.parametrize("mode", ["serial", "pipelined", "disk"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_gradient_is_not_applied(self, tmp_path, mode,
                                                value):
        telemetry = Telemetry()
        data = batches(4)

        def make(name, **kw):
            return DataParallelTrainer(
                SPEC, 2, adam=ADAM, clip_norm=0.5, seed=7,
                **schedule_args(mode, tmp_path / name), **kw)

        hit = make("hit", telemetry=telemetry)
        spared = make("spared")     # never sees the poisoned batch
        try:
            for trainer in (hit, spared):
                trainer.train_step(*data[0])
            before = planes(hit)
            written = hit.optimizer.spill.bytes_written \
                if mode == "disk" else 0
            plant(hit, rank=1, value=value)
            report = hit.train_step(*data[1])
            assert report.skipped and not report.clipped
            assert report.grad_norm == 0.0
            assert np.isfinite(report.loss)
            assert hit.iteration == 2
            assert_same_planes(planes(hit), before)
            if mode == "disk":
                assert hit.optimizer.spill.bytes_written == written
            assert telemetry.metrics.counter(
                "dp_overflow_skips_total").value == 1
            # the next clean steps proceed as if it never happened
            for batch in data[2:]:
                after = hit.train_step(*batch)
                assert not after.skipped
                assert after == dataclasses.replace(
                    spared.train_step(*batch), iteration=after.iteration)
            assert_same_planes(planes(hit), planes(spared))
        finally:
            close(hit)
            close(spared)

    def test_skip_is_reported_per_step(self):
        trainer = DataParallelTrainer(SPEC, 2, adam=ADAM, seed=8)
        (batch,) = batches(1)
        assert not trainer.train_step(*batch).skipped
        plant(trainer, rank=0, value=-np.inf)
        assert trainer.train_step(*batch).skipped
        assert not trainer.train_step(*batch).skipped


class TestArenaTraffic:
    def _copied_per_step(self, **kw):
        telemetry = Telemetry()
        trainer = DataParallelTrainer(SPEC, 2, adam=ADAM, clip_norm=0.5,
                                      telemetry=telemetry, **kw)
        copied = telemetry.metrics.counter("arena_bytes_copied")
        data = batches(3)
        trainer.train_step(*data[0])
        settled = copied.value
        for batch in data[1:]:
            trainer.train_step(*batch)
        return (copied.value - settled) / 2, trainer

    def test_plain_route_moves_no_arena_bytes(self):
        """Backward wrote the arenas; nothing is ingested afterwards."""
        per_step, _ = self._copied_per_step()
        assert per_step == 0

    def test_plan_route_keeps_one_counted_copy_per_rank(self):
        per_step, trainer = self._copied_per_step(
            plan=ParallelPlan(pp=2, dp=2), n_microbatches=2)
        assert per_step == 2 * trainer.arena.layout.unpadded * 4
