"""Tests for ZeRO-style sharded optimization (§4.7)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optim import AdamConfig, GraceAdam
from repro.parallel import ZeroConfig, ZeroShardedAdam


def make_params(rng):
    return {
        "a": rng.standard_normal((3, 5)).astype(np.float32),
        "b": rng.standard_normal(7).astype(np.float32),
    }


class TestZeroShardedAdam:
    def test_matches_unsharded_adam(self, rng):
        """The core ZeRO invariant: sharding optimizer states across ranks
        reproduces the unsharded update."""
        cfg = AdamConfig(lr=1e-2, weight_decay=0.01)
        base = make_params(rng)
        ref = GraceAdam({k: v.copy() for k, v in base.items()}, cfg)
        sharded = ZeroShardedAdam(
            {k: v.copy() for k, v in base.items()}, world_size=4, config=cfg
        )
        for _ in range(4):
            per_rank = [
                {k: rng.standard_normal(v.shape).astype(np.float32)
                 for k, v in base.items()}
                for _ in range(4)
            ]
            # reference: same sum-then-divide averaging the group performs
            avg = {}
            for k in base:
                total = per_rank[0][k].copy()
                for g in per_rank[1:]:
                    total = total + g[k]
                avg[k] = (total / np.float32(4)).astype(np.float32)
            ref.step(avg)
            sharded.step(per_rank)
        for k in base:
            np.testing.assert_allclose(
                ref.params[k], sharded.params[k], atol=1e-6
            )

    def test_world_size_one_degenerates(self, rng):
        cfg = AdamConfig(lr=1e-2)
        base = make_params(rng)
        ref = GraceAdam({k: v.copy() for k, v in base.items()}, cfg)
        sharded = ZeroShardedAdam(
            {k: v.copy() for k, v in base.items()}, world_size=1, config=cfg
        )
        grads = {k: rng.standard_normal(v.shape).astype(np.float32)
                 for k, v in base.items()}
        ref.step(grads)
        sharded.step([grads])
        for k in base:
            np.testing.assert_allclose(ref.params[k], sharded.params[k],
                                       atol=1e-7)

    def test_state_bytes_shrink_with_world(self, rng):
        base = make_params(rng)
        per_rank_4 = ZeroShardedAdam(
            {k: v.copy() for k, v in base.items()}, 4
        ).optimizer_state_bytes_per_rank()
        per_rank_2 = ZeroShardedAdam(
            {k: v.copy() for k, v in base.items()}, 2
        ).optimizer_state_bytes_per_rank()
        assert per_rank_4 == pytest.approx(per_rank_2 / 2, rel=0.2)

    def test_owned_slices_disjoint_and_cover(self, rng):
        opt = ZeroShardedAdam(make_params(rng), 4)
        slices = [opt.owned_slice(r) for r in range(4)]
        assert slices[0][0] == 0
        for (a, b), (c, d) in zip(slices, slices[1:]):
            assert b == c
        assert slices[-1][1] == opt.arena.layout.total
        with pytest.raises(IndexError):
            opt.owned_slice(4)

    def test_step_count_advances(self, rng):
        opt = ZeroShardedAdam(make_params(rng), 2)
        grads = [{k: np.zeros_like(v) for k, v in opt.params.items()}
                 for _ in range(2)]
        assert opt.step_count == 0
        opt.step(grads)
        assert opt.step_count == 1

    def test_wrong_rank_count_rejected(self, rng):
        opt = ZeroShardedAdam(make_params(rng), 2)
        with pytest.raises(ValueError):
            opt.step([{k: np.zeros_like(v) for k, v in opt.params.items()}])

    def test_no_average_mode(self, rng):
        base = make_params(rng)
        cfg = AdamConfig(lr=1e-2)
        ref = GraceAdam({k: v.copy() for k, v in base.items()}, cfg)
        opt = ZeroShardedAdam(
            {k: v.copy() for k, v in base.items()}, 2, config=cfg,
            zero=ZeroConfig(average_gradients=False),
        )
        g = {k: rng.standard_normal(v.shape).astype(np.float32)
             for k, v in base.items()}
        half = {k: (v / np.float32(2)).astype(np.float32) for k, v in g.items()}
        ref.step({k: half[k] + half[k] for k in half})
        opt.step([half, half])
        for k in base:
            np.testing.assert_allclose(ref.params[k], opt.params[k], atol=1e-6)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ZeroConfig(stage=4)
        with pytest.raises(ValueError):
            ZeroShardedAdam({"a": np.zeros(2, np.float32)}, 0)

# -- serial == pipelined == disk ------------------------------------------

SMALL = {"a": (3, 5), "b": (7,)}  # 22 elements: pads at world 3 and 4


def zero_fixture(seed, shapes, world, mode="serial", spill_dir=None,
                 pool=None, **kw):
    """An (optimizer, per-rank flat gradients) pair in one of the three
    dataflows: ``serial``, ``pipelined`` or ``disk``.

    Same seed and shapes => identical parameters and gradients, so any
    two fixtures are bitwise comparables whatever their mode.
    """
    rng = np.random.default_rng(seed)
    params = {k: rng.standard_normal(shape, dtype=np.float32)
              for k, shape in shapes.items()}
    if mode == "disk":
        kw.update(offload="disk", spill_dir=str(spill_dir))
    opt = ZeroShardedAdam(params, world, pipeline=mode != "serial",
                          pool=pool, **kw)
    flats = []
    for r in range(world):
        ga = opt.grad_arena(r)
        for view in ga.views.values():
            view[...] = rng.standard_normal(view.shape, dtype=np.float32)
        flats.append(ga.flat)
    return opt, flats


def step_twins(twins, steps, seed=0):
    """Step every (optimizer, flats) twin ``steps`` times, on fresh but
    identical gradients each step."""
    rng = np.random.default_rng(seed)
    first = twins[0][0]
    n = first.arena.layout.unpadded  # the pad region stays zero
    for _ in range(steps):
        for r in range(first.world_size):
            fresh = rng.standard_normal(n, dtype=np.float32)
            for _, flats in twins:
                flats[r][:n] = fresh
        for opt, flats in twins:
            opt.step_flat(flats)


def assert_bitwise_twins(a, b):
    """Master weights, both moment planes and the step counters agree."""
    assert a.shard_steps() == b.shard_steps()
    np.testing.assert_array_equal(a.arena.flat, b.arena.flat)
    a_planes, b_planes = a.moment_planes(), b.moment_planes()
    for plane in ("m", "v"):
        np.testing.assert_array_equal(a_planes[plane], b_planes[plane])


def close_all(*opts):
    for opt in opts:
        opt.release_staging()
        opt.close_spill()


class TestBitwiseIdentity:
    """One dataflow, three schedules: the pipelined and the disk step
    must equal the serial ``step_flat`` bit for bit — master weights
    *and* moment planes — at every world size and bucket size, including
    buckets that leave ragged shard tails."""

    @pytest.mark.parametrize("world", [1, 2, 3])
    @pytest.mark.parametrize("bucket", [1, 5, 7, 64, 1 << 20])
    @pytest.mark.parametrize("mode", ["pipelined", "disk"])
    def test_matches_serial(self, tmp_path, mode, world, bucket):
        serial = zero_fixture(3, SMALL, world)
        other = zero_fixture(3, SMALL, world, mode, tmp_path,
                             bucket_elements=bucket)
        try:
            step_twins([serial, other], steps=3)
            assert_bitwise_twins(serial[0], other[0])
        finally:
            close_all(serial[0], other[0])

    def test_checkpoint_crosses_disk_and_resident(self, tmp_path):
        """One state representation: moments saved from a disk optimizer
        load into a resident one (and back) and training continues bit
        for bit."""
        def make(mode, name):
            return zero_fixture(3, SMALL, 2, mode, tmp_path / name,
                                bucket_elements=5)

        disk, resident = make("disk", "d0"), make("pipelined", "r0")
        twins = [resident, disk]
        try:
            step_twins(twins, steps=2)
            for (saved, _), mode in ((disk, "pipelined"), (resident, "disk")):
                fresh = make(mode, f"from-{mode}")
                twins.append(fresh)
                fresh[0].arena.flat[...] = saved.arena.flat
                fresh[0].load_moments(**saved.moment_planes(),
                                      steps=saved.shard_steps())
            step_twins(twins, steps=2, seed=1)
            for other, _ in twins[1:]:
                assert_bitwise_twins(resident[0], other)
        finally:
            close_all(*(opt for opt, _ in twins))


class TestPipelinedStep:
    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("bucket_elements", [1, 5, 64, 1 << 20])
    def test_bitwise_matches_serial_step_flat(self, world, bucket_elements):
        """The same identity on a dedicated two-worker pool."""
        from repro.exec.pool import KernelPool

        pool = KernelPool(2)
        serial = zero_fixture(4, SMALL, world)
        pipe = zero_fixture(4, SMALL, world, "pipelined", pool=pool,
                            bucket_elements=bucket_elements)
        try:
            step_twins([serial, pipe], steps=3)
            assert_bitwise_twins(serial[0], pipe[0])
        finally:
            close_all(pipe[0])
            pool.shutdown()

    def test_payload_accounting_matches_serial(self):
        """The pipeline bypasses the collective entry points but must
        report the same reduce-scatter/all-gather payload bytes."""
        from repro.telemetry import Telemetry

        results = {}
        for mode in ("serial", "pipelined"):
            telemetry = Telemetry()
            opt, flats = zero_fixture(5, SMALL, 2, mode,
                                      telemetry=telemetry)
            opt.step_flat(flats)
            results[mode] = {
                op: telemetry.metrics.counter(
                    "collective_bytes_total", op=op
                ).value
                for op in ("reduce_scatter", "all_gather")
            }
            opt.release_staging()
        assert results["serial"] == results["pipelined"]

    def test_pinned_staging_reserved_and_released(self):
        from repro.tensors import MemoryPool, PinnedBufferPool

        host = MemoryPool("cpu:0", 1 << 20)
        pinned = PinnedBufferPool(1 << 20, host_pool=host)
        opt, flats = zero_fixture(6, SMALL, 2, "pipelined",
                                  bucket_elements=4, pinned_pool=pinned)
        for _ in range(3):  # staging is built once, reused per step
            opt.step_flat(flats)
        staged = 2 * opt.bucket_elements * 4  # double-buffered fp32
        assert pinned.free_bytes == pinned.capacity - staged
        assert host.used == staged
        opt.release_staging()
        assert pinned.free_bytes == pinned.capacity
        assert host.used == 0

    def test_full_pinned_pool_degrades_to_pageable(self):
        from repro.tensors import PinnedBufferPool

        pinned = PinnedBufferPool(1)  # can't fit any staging bucket
        opt, flats = zero_fixture(7, SMALL, 2, "pipelined",
                                  bucket_elements=4, pinned_pool=pinned)
        opt.step_flat(flats)  # must not raise
        assert pinned.free_bytes == pinned.capacity
        opt.release_staging()

    def test_invalid_bucket_elements_rejected(self, rng):
        with pytest.raises(ValueError, match="bucket_elements"):
            ZeroShardedAdam(make_params(rng), 2, pipeline=True,
                            bucket_elements=0)

    def test_bucket_elements_clamped_to_shard(self, rng):
        opt = ZeroShardedAdam(make_params(rng), 2, pipeline=True,
                              bucket_elements=1 << 30)
        assert opt.bucket_elements == opt.arena.layout.total // 2

    @given(world=st.integers(min_value=1, max_value=4),
           bucket=st.integers(min_value=1, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_any_bucket_size_bitwise(self, world, bucket):
        serial = zero_fixture(world * 100 + bucket, {"w": (37,)}, world)
        pipe = zero_fixture(world * 100 + bucket, {"w": (37,)}, world,
                            "pipelined", bucket_elements=bucket)
        step_twins([serial, pipe], steps=1)
        pipe[0].release_staging()
        assert_bitwise_twins(serial[0], pipe[0])


class TestValidatedStep:
    """``step_flat(validate=True)``: the §4.4 global check rides the
    reduce-scatter.  Same bucket loop, one wait point moved — so a
    finite, unclipped validated step must equal the plain step bit for
    bit in every schedule, and the verdict must not depend on who ran
    the reduces."""

    MODES = ["serial", "pipelined", "disk"]

    @staticmethod
    def reduced_fold(flats, world):
        """The left fold / world the reduce-scatter performs."""
        total = flats[0].copy()
        for f in flats[1:]:
            total = total + f
        return total / np.float32(world)

    @pytest.mark.parametrize("world", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_unclipped_validated_step_is_the_plain_step(
            self, tmp_path, mode, world):
        plain = zero_fixture(8, SMALL, world)
        checked = zero_fixture(8, SMALL, world, mode, tmp_path,
                               bucket_elements=5)
        rng = np.random.default_rng(0)
        n = plain[0].arena.layout.unpadded
        try:
            for _ in range(3):
                for r in range(world):
                    fresh = rng.standard_normal(n, dtype=np.float32)
                    plain[1][r][:n] = fresh
                    checked[1][r][:n] = fresh
                before = [f.copy() for f in checked[1]]
                assert plain[0].step_flat(plain[1]) is None
                health = checked[0].step_flat(checked[1], validate=True)
                assert not health.has_nan_or_inf
                assert not health.clip_triggered
                expected = np.linalg.norm(
                    self.reduced_fold(before, world).astype(np.float64))
                assert health.global_norm == pytest.approx(expected,
                                                           rel=1e-12)
                # the caller's flats are inputs, never scratch
                for f, b in zip(checked[1], before):
                    np.testing.assert_array_equal(f, b)
            assert_bitwise_twins(plain[0], checked[0])
        finally:
            close_all(plain[0], checked[0])

    @pytest.mark.parametrize("mode", MODES)
    def test_clip_scales_the_reduced_gradient_once(self, tmp_path, mode):
        """A clipped step equals a plain single-rank step fed the
        reduced gradient times the clip coefficient — and still leaves
        the caller's flats alone."""
        from repro.optim.mixed_precision import clip_coefficient

        world = 2
        checked, flats = zero_fixture(9, SMALL, world, mode, tmp_path,
                                      bucket_elements=5)
        oracle, (oracle_flat,) = zero_fixture(9, SMALL, 1)
        oracle.arena.flat[:22] = checked.arena.flat[:22]
        before = [f.copy() for f in flats]
        try:
            health = checked.step_flat(flats, clip_norm=0.5)
            assert health.clip_triggered and health.global_norm > 0.5
            coef = np.float32(clip_coefficient(health.global_norm, 0.5))
            oracle_flat[:22] = (self.reduced_fold(before, world) * coef)[:22]
            oracle.step_flat([oracle_flat])
            np.testing.assert_array_equal(checked.arena.flat[:22],
                                          oracle.arena.flat[:22])
            for f, b in zip(flats, before):
                np.testing.assert_array_equal(f, b)
        finally:
            close_all(checked, oracle)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_skips_the_update(self, tmp_path, mode,
                                                  poison):
        """No Adam, no step-counter bump, no moment write — and the next
        clean step proceeds as if the poisoned one never happened."""
        world = 2
        a = zero_fixture(10, SMALL, world, mode, tmp_path / "a",
                         bucket_elements=5)
        b = zero_fixture(10, SMALL, world, mode, tmp_path / "b",
                         bucket_elements=5)
        try:
            step_twins([a, b], steps=1)           # non-trivial moments
            clean = a[1][1][7]
            a[1][1][7] = poison
            written = a[0].spill.bytes_written if a[0].spill else 0
            health = a[0].step_flat(a[1], validate=True)
            assert health.has_nan_or_inf
            assert health.global_norm == 0.0 and not health.clip_triggered
            assert_bitwise_twins(a[0], b[0])      # pre-step bits
            if a[0].spill:
                assert a[0].spill.bytes_written == written
            a[1][1][7] = clean
            for opt, flats in (a, b):
                assert not opt.step_flat(flats, validate=True) \
                    .has_nan_or_inf
            assert_bitwise_twins(a[0], b[0])
            assert a[0].step_count == 2
        finally:
            close_all(a[0], b[0])

    def test_fp32_overflow_inside_the_reduce_is_caught(self):
        """Finite per-rank gradients whose *sum* overflows fp32: the
        check sees what Adam would consume, so this is a skip (a check
        on a float64 mean would have passed it)."""
        opt, flats = zero_fixture(11, SMALL, 2)
        for f in flats:
            f[3] = np.float32(3e38)
        before = opt.arena.flat.copy()
        assert opt.step_flat(flats, validate=True).has_nan_or_inf
        np.testing.assert_array_equal(opt.arena.flat, before)
        assert opt.step_count == 0

    def test_verdict_is_independent_of_worker_count(self):
        from repro.exec.pool import KernelPool

        norms = []
        for workers in (1, 3):
            pool = KernelPool(workers)
            opt, flats = zero_fixture(12, {"w": (4099,)}, 3, "pipelined",
                                      pool=pool, bucket_elements=64)
            try:
                norms.append(opt.step_flat(flats, clip_norm=1e-3)
                             .global_norm)
            finally:
                close_all(opt)
                pool.shutdown()
        assert norms[0] == norms[1]

    def test_clip_norm_implies_validation(self):
        opt, flats = zero_fixture(13, SMALL, 2)
        health = opt.step_flat(flats, clip_norm=1e9)
        assert health is not None and not health.clip_triggered


class TestZeroHypothesis:
    @given(world=st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_sharded_invariant_any_world_size(self, world):
        rng = np.random.default_rng(world)
        base = {"w": rng.standard_normal(13).astype(np.float32)}
        cfg = AdamConfig(lr=5e-3)
        ref = GraceAdam({"w": base["w"].copy()}, cfg)
        opt = ZeroShardedAdam({"w": base["w"].copy()}, world, config=cfg)
        per_rank = [
            {"w": rng.standard_normal(13).astype(np.float32)}
            for _ in range(world)
        ]
        total = per_rank[0]["w"].copy()
        for g in per_rank[1:]:
            total = total + g["w"]
        ref.step({"w": (total / np.float32(world)).astype(np.float32)})
        opt.step(per_rank)
        np.testing.assert_allclose(ref.params["w"], opt.params["w"], atol=1e-6)
