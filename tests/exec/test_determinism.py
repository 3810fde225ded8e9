"""Bitwise identity of chunked execution vs. the serial ancestors.

The executor's contract (``repro.exec.kernels``): for *any* chunk plan,
any worker count, and any plane size — including adversarial sizes that
leave ragged tails and chunks that don't divide the worker count — the
parallel result equals the serial ancestor bit for bit.  These tests
force real multi-chunk dispatch by dropping the inline-dispatch cutoffs
to zero, so even tiny hypothesis-generated planes exercise the pool.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.exec.ops as ops
from repro import reference
from repro.exec import kernels
from repro.exec.ops import (
    parallel_adam_flat,
    parallel_copy,
    parallel_reduce,
    parallel_scale,
)
from repro.exec.plan import ChunkPlan
from repro.exec.pool import KernelPool
from repro.numeric.lowprec import ROUND_TILE, land_grad, round_bf16, round_fp16
from repro.optim import AdamConfig, GraceAdam
from repro.tensors.arena import FlatArena

WORKER_COUNTS = (1, 2, 4)

#: Adversarial plane sizes: vector-tile multiples, off-by-one tails,
#: primes, and sizes not divisible by any tested worker count.
ADVERSARIAL_SIZES = (1, 15, 16, 17, 97, 255, 256, 1009, 4096, 4097)

#: The rounding kernels tile internally by ``ROUND_TILE``: sizes that
#: straddle it make a worker's chunk start mid-tile of the serial call.
ROUNDING_SIZES = ADVERSARIAL_SIZES + (ROUND_TILE + 1, 2 * ROUND_TILE + 5)


@pytest.fixture(autouse=True)
def force_dispatch(monkeypatch):
    """Drop the inline cutoffs so small planes still hit the pool."""
    monkeypatch.setattr(ops, "MIN_PARALLEL_FUSED", 0)
    monkeypatch.setattr(ops, "MIN_PARALLEL_SIMPLE", 0)


@pytest.fixture(params=WORKER_COUNTS)
def pool(request):
    p = KernelPool(request.param)
    yield p
    p.shutdown()


def _split_params(rng, sizes):
    return {f"p{i:03d}": rng.standard_normal(s).astype(np.float32)
            for i, s in enumerate(sizes)}


class TestAdamStepIdentity:
    """Chunked GraceAdam == serial flat ancestor == per-tensor ancestor."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("n", ADVERSARIAL_SIZES)
    def test_three_way_bitwise(self, workers, n):
        rng = np.random.default_rng(n * 31 + workers)
        sizes = [max(1, n // 3), max(1, n // 4), n]
        cfg = AdamConfig(lr=1e-2, weight_decay=0.01)
        base = _split_params(rng, sizes)
        pool = KernelPool(workers)
        try:
            par_params = {k: v.copy() for k, v in base.items()}
            tensor_params = {k: v.copy() for k, v in base.items()}
            FlatArena.adopt(par_params)
            par = GraceAdam(par_params, cfg, pool=pool)
            per_tensor = GraceAdam(tensor_params, cfg)
            # the serial flat ancestor walks bare (p, m, v) planes
            total = par.arena.layout.unpadded
            flat_p = par.arena.flat[:total].copy()
            flat_m = np.zeros(total, dtype=np.float32)
            flat_v = np.zeros(total, dtype=np.float32)
            for step in range(3):
                grads = {k: rng.standard_normal(v.shape, dtype=np.float32)
                         for k, v in base.items()}
                par_g = par.arena.like()
                par_g.fill_from(grads)
                par.step(dict(par_g.views))
                reference.grace_adam_serial(
                    flat_p, flat_m, flat_v, par_g.flat[:total], cfg,
                    step + 1, par.tile_size,
                )
                # plain dict grads: not arena-backed -> per-tensor loop
                per_tensor.step({k: g.copy() for k, g in grads.items()})
            np.testing.assert_array_equal(par.arena.flat[:total], flat_p)
            np.testing.assert_array_equal(par.arena_m.flat[:total], flat_m)
            np.testing.assert_array_equal(par.arena_v.flat[:total], flat_v)
            for k in base:
                np.testing.assert_array_equal(par.params[k],
                                              per_tensor.params[k])
                np.testing.assert_array_equal(par.state[k].m,
                                              per_tensor.state[k].m)
                np.testing.assert_array_equal(par.state[k].v,
                                              per_tensor.state[k].v)
        finally:
            pool.shutdown()

    @given(
        n=st.integers(min_value=1, max_value=3000),
        workers=st.sampled_from(WORKER_COUNTS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_flat_step_any_size(self, n, workers, seed):
        rng = np.random.default_rng(seed)
        cfg = AdamConfig(lr=3e-3, weight_decay=0.02)
        p0 = rng.standard_normal(n).astype(np.float32)
        m0 = np.abs(rng.standard_normal(n)).astype(np.float32) * 0.1
        v0 = np.abs(rng.standard_normal(n)).astype(np.float32) * 0.01
        g = rng.standard_normal(n).astype(np.float32)
        hyper = kernels.AdamChunkHyper.from_config(cfg, step=2)

        p_ref, m_ref, v_ref = p0.copy(), m0.copy(), v0.copy()
        kernels.adam_chunk(0, n, p_ref, m_ref, v_ref, g, hyper)

        pool = KernelPool(workers)
        try:
            p, m, v = p0.copy(), m0.copy(), v0.copy()
            parallel_adam_flat(p, m, v, g, cfg, 2, pool=pool)
            np.testing.assert_array_equal(p, p_ref)
            np.testing.assert_array_equal(m, m_ref)
            np.testing.assert_array_equal(v, v_ref)
        finally:
            pool.shutdown()


class TestSimpleOpIdentity:
    """scale / copy and the rounding kernels (fp16, bf16, gradient
    landing) match their serial forms for any tiling, on any thread."""

    @pytest.mark.parametrize("n", ADVERSARIAL_SIZES)
    def test_scale_matches_inplace_multiply(self, pool, n):
        rng = np.random.default_rng(n)
        buf = rng.standard_normal(n).astype(np.float32)
        coef = np.float32(0.4372)
        ref = buf.copy()
        ref *= coef
        parallel_scale(buf, coef, pool=pool)
        np.testing.assert_array_equal(buf, ref)

    @pytest.mark.parametrize("n", ADVERSARIAL_SIZES)
    def test_copy_matches_memcpy(self, pool, n):
        rng = np.random.default_rng(n)
        src = rng.standard_normal(n).astype(np.float32)
        dst = np.zeros(n, dtype=np.float32)
        parallel_copy(dst, src, pool=pool)
        np.testing.assert_array_equal(dst, src)

    @pytest.mark.parametrize("n", ROUNDING_SIZES)
    def test_fp16_cast_matches_astype(self, pool, n):
        rng = np.random.default_rng(n)
        # include overflow values: the rounding must saturate to inf
        # identically, with no warning escaping the worker thread
        src = (rng.standard_normal(n) * 1e5).astype(np.float32)
        with np.errstate(over="ignore"):
            ref = src.astype(np.float16).astype(np.float32)
        np.testing.assert_array_equal(round_fp16(src), ref)
        dst = np.empty(n, dtype=np.float32)
        pool.run(lambda lo, hi: round_fp16(src[lo:hi], dst[lo:hi]),
                 ChunkPlan.split(n, pool.workers, 1))
        np.testing.assert_array_equal(dst.view(np.uint32),
                                      ref.view(np.uint32))

    @pytest.mark.parametrize("n", ROUNDING_SIZES)
    def test_bf16_cast_matches_to_bf16(self, pool, n):
        rng = np.random.default_rng(n)
        src = rng.standard_normal(n).astype(np.float32)
        bits = src.view(np.uint32)
        ref = ((bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000).view(
            np.float32)
        np.testing.assert_array_equal(round_bf16(src), ref)
        dst = np.empty(n, dtype=np.float32)
        pool.run(lambda lo, hi: round_bf16(src[lo:hi], dst[lo:hi]),
                 ChunkPlan.split(n, pool.workers, 1))
        np.testing.assert_array_equal(dst, ref)

    @pytest.mark.parametrize("n", ROUNDING_SIZES)
    def test_accumulate_matches_serial(self, pool, n):
        """The STV gradient landing: first landing and accumulation equal
        the unfused fp16 round trip + multiply (+ add), split across the
        pool's threads."""
        rng = np.random.default_rng(n)
        dst0 = rng.standard_normal(n).astype(np.float32)
        src = (rng.standard_normal(n) * 300).astype(np.float32)
        scale = np.float32(1.0 / 7.0)
        boost = np.float32(250.0)
        with np.errstate(over="ignore"):
            g16 = (src * boost).astype(np.float16)
        with np.errstate(invalid="ignore"):
            ref_acc = dst0 + g16 * scale
        ref_land = g16 * scale
        for accumulate, ref in ((True, ref_acc), (False, ref_land)):
            serial = dst0.copy()
            land_grad(serial, src, scale, boost=boost, accumulate=accumulate)
            np.testing.assert_array_equal(serial, ref)
            dst = dst0.copy()
            pool.run(
                lambda lo, hi: land_grad(
                    dst[lo:hi], src[lo:hi], scale, boost=boost,
                    accumulate=accumulate),
                ChunkPlan.split(n, pool.workers, 1))
            np.testing.assert_array_equal(dst, ref)


class TestReduceIdentity:
    """Fixed-order chunked reduce == the serial left fold."""

    @pytest.mark.parametrize("world", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", ADVERSARIAL_SIZES)
    def test_matches_left_fold(self, pool, world, n):
        rng = np.random.default_rng(n * 7 + world)
        sources = [rng.standard_normal(n).astype(np.float32)
                   for _ in range(world)]
        ref = sources[0].copy()
        for s in sources[1:]:
            ref = ref + s
        ref = ref / np.float32(world)
        dst = np.empty(n, dtype=np.float32)
        parallel_reduce(dst, 0, sources, 0, n,
                        divisor=np.float32(world), pool=pool)
        np.testing.assert_array_equal(dst, ref)

    @given(
        n=st.integers(min_value=1, max_value=2000),
        world=st.integers(min_value=1, max_value=6),
        workers=st.sampled_from(WORKER_COUNTS),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_size_any_world(self, n, world, workers):
        rng = np.random.default_rng(n + world)
        sources = [rng.standard_normal(n).astype(np.float32)
                   for _ in range(world)]
        ref = sources[0].copy()
        for s in sources[1:]:
            ref = ref + s
        dst = np.empty(n, dtype=np.float32)
        pool = KernelPool(workers)
        try:
            parallel_reduce(dst, 0, sources, 0, n, pool=pool)
        finally:
            pool.shutdown()
        np.testing.assert_array_equal(dst, ref)


class TestSumsqKernel:
    """The validated reduce's norm term: exact squares, a value that is
    a function of the bits alone, and non-finite iff an element is."""

    @given(n=st.integers(min_value=1, max_value=3 * kernels.CACHE_TILE),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_matches_float64_dot(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(
            n, dtype=np.float32) * np.float32(1e3)
        x64 = x.astype(np.float64)
        got = kernels.sumsq_chunk(0, n, x)
        assert got == pytest.approx(float(np.dot(x64, x64)), rel=1e-12)
        # a sub-range sees only its own elements
        lo = n // 3
        assert kernels.sumsq_chunk(lo, n, x) == pytest.approx(
            float(np.dot(x64[lo:], x64[lo:])), rel=1e-12)

    def test_same_value_on_every_thread(self):
        x = np.random.default_rng(5).standard_normal(
            100_003, dtype=np.float32)
        here = kernels.sumsq_chunk(0, x.size, x)
        pool = KernelPool(3)
        try:
            there = [pool.submit(kernels.sumsq_chunk, 0, x.size, x)
                     for _ in range(6)]
            assert {f.result() for f in there} == {here}
        finally:
            pool.shutdown()

    def test_finite_extremes_do_not_overflow(self):
        x = np.full(4 * kernels.CACHE_TILE, np.finfo(np.float32).max,
                    dtype=np.float32)
        assert np.isfinite(kernels.sumsq_chunk(0, x.size, x))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_element_gives_non_finite_sum(self, bad):
        x = np.ones(kernels.CACHE_TILE + 9, dtype=np.float32)
        x[-2] = bad
        assert not np.isfinite(kernels.sumsq_chunk(0, x.size, x))
        assert np.isfinite(kernels.sumsq_chunk(0, x.size - 2, x))

    def test_fused_reduce_reports_what_it_wrote(self):
        rng = np.random.default_rng(6)
        sources = [rng.standard_normal(1000, dtype=np.float32)
                   for _ in range(3)]
        plain = np.empty(1000, dtype=np.float32)
        fused = np.empty(400, dtype=np.float32)
        kernels.reduce_chunk(0, 1000, plain, 0, sources, np.float32(3))
        got = kernels.reduce_sumsq_chunk(300, 700, fused, 300, sources,
                                         np.float32(3))
        np.testing.assert_array_equal(fused, plain[300:700])
        assert got == kernels.sumsq_chunk(300, 700, plain)
        # a sum that overflows fp32 is reported, not warned about
        big = [np.full(8, 3e38, dtype=np.float32)] * 2
        with np.errstate(all="raise"):
            assert not np.isfinite(kernels.reduce_sumsq_chunk(
                0, 8, np.empty(8, dtype=np.float32), 0, big))
