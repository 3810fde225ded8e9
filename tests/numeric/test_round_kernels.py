"""The rounding kernels: fp16 and bf16 values in fp32 storage.

``round_fp16`` must be bitwise ``x.astype(np.float16).astype(np.float32)``
on every fp32 input (NaN stays NaN) and independent of its tiling;
``round_bf16`` is round-to-nearest-even on the top 16 bits with NaN kept
a quiet NaN of the same sign.  The full 2^32 sweep of ``round_fp16`` is
``test_round_exhaustive.py`` (marker ``exhaustive``, outside tier-1);
here every exponent class is covered at the rounding-relevant mantissa
patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.plan import ChunkPlan
from repro.numeric.lowprec import ROUND_TILE, land_grad, round_bf16, round_fp16
from repro.optim.mixed_precision import grad_sumsq

#: Low 13 mantissa bits — the ones fp16 drops — around the rounding
#: decision: exact, just above, just below / at / just above the
#: halfway point, and the largest pattern.
LOW_BITS = (0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF)


def numpy_fp16(x):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(x, np.float32).astype(np.float16).astype(np.float32)


def assert_split_invariant(fn, x, whole):
    """``fn`` called once per chunk — so the chunks' tiles start at
    offsets the whole call's tiles do not — gives ``whole``'s bits."""
    for n_chunks in (2, 3, 7):
        out = np.empty_like(x)
        for lo, hi in ChunkPlan.split(x.size, n_chunks, 1).chunks:
            fn(x[lo:hi], out[lo:hi])
        np.testing.assert_array_equal(out.view(np.uint32),
                                      whole.view(np.uint32))


def assert_fp16_exact(x):
    """round_fp16(x) has the oracle's bits; NaN positions stay NaN."""
    x = np.asarray(x, dtype=np.float32)
    got, ref = round_fp16(x), numpy_fp16(x)
    assert got.dtype == np.float32 and got.shape == x.shape
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bad = (got.view(np.uint32) != ref.view(np.uint32)) & ~nan
    assert not bad.any(), (
        f"{int(bad.sum())} mismatches, e.g. input bits "
        f"{x.view(np.uint32)[bad][:4]}")


class TestRoundFp16:
    def test_every_exponent_class_at_rounding_patterns(self):
        sign = np.arange(2, dtype=np.uint32)[:, None, None, None] << 31
        exp = np.arange(256, dtype=np.uint32)[None, :, None, None] << 23
        high = np.arange(1024, dtype=np.uint32)[None, None, :, None] << 13
        low = np.array(LOW_BITS, dtype=np.uint32)[None, None, None, :]
        bits = (sign | exp | high | low).reshape(-1)
        assert bits.size == 2 * 256 * 1024 * len(LOW_BITS)
        assert_fp16_exact(bits.view(np.float32))

    def test_all_fp16_values_and_midpoints(self):
        values = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        with np.errstate(invalid="ignore"):
            h = values.view(np.float16).astype(np.float32)
        finite = np.sort(h[np.isfinite(h)].astype(np.float64))
        # neighbour midpoints are exact in fp32 (fp16 has 13 fewer bits)
        mids = (finite[:-1] + finite[1:]) / 2
        assert_fp16_exact(h)
        assert_fp16_exact(mids.astype(np.float32))
        nudged = mids.astype(np.float32)
        assert_fp16_exact(np.nextafter(nudged, np.float32(np.inf)))
        assert_fp16_exact(np.nextafter(nudged, np.float32(-np.inf)))

    def test_boundaries(self):
        f = np.float32
        edge = [
            65504.0, np.nextafter(f(65520.0), f(0.0)), 65520.0, 65536.0,
            1e38, 3.4028235e38,
            2.0**-14, np.nextafter(f(2.0**-14), f(0.0)),
            2.0**-24, 2.0**-25, np.nextafter(f(2.0**-25), f(1.0)),
            1.5 * 2.0**-24, 2.0**-26, 1e-45,
        ]
        x = np.array(edge, dtype=np.float32)
        assert_fp16_exact(np.concatenate([x, -x]))
        got = round_fp16(x)
        assert got[0] == 65504.0 and got[1] == 65504.0
        assert np.isinf(got[2]) and np.isinf(round_fp16(-x)[2])
        assert round_fp16(x)[4] == np.inf
        assert got[9] == 0.0                 # 2^-25 ties to even (zero)

    def test_signed_zeros_infinities_nan(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
                     dtype=np.float32)
        got = round_fp16(x)
        np.testing.assert_array_equal(np.signbit(got[:4]),
                                      [False, True, False, True])
        np.testing.assert_array_equal(got[:4], x[:4])
        assert np.isnan(got[4:]).all()
        payloads = np.array([0x7F800001, 0x7FBFFFFF, 0x7FC00000, 0xFFFFFFFF,
                             0xFF800001], dtype=np.uint32)
        assert np.isnan(round_fp16(payloads.view(np.float32))).all()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300))
    def test_random_bits(self, bits):
        assert_fp16_exact(np.array(bits, dtype=np.uint32).view(np.float32))

    @pytest.mark.parametrize("n", [1, 7, 33, 1023, ROUND_TILE - 1, ROUND_TILE,
                                   ROUND_TILE + 1, 2 * ROUND_TILE + 5])
    def test_tiling_is_bitwise_invariant(self, n):
        rng = np.random.default_rng(n)
        x = (rng.standard_normal(n) * 3e4).astype(np.float32)
        whole = round_fp16(x)
        np.testing.assert_array_equal(whole, numpy_fp16(x))
        assert_split_invariant(round_fp16, x, whole)

    def test_views_shapes_and_aliasing(self, rng):
        base = (rng.standard_normal((37, 29)) * 1e3).astype(np.float32)
        for view in (base, base[:, ::3], base[::-1], base.T, base[5:6]):
            np.testing.assert_array_equal(round_fp16(view), numpy_fp16(view))
            out = np.empty_like(view)
            assert round_fp16(view, out) is out
            np.testing.assert_array_equal(out, numpy_fp16(view))
        strided_out = np.zeros((37, 58), np.float32)[:, ::2]
        round_fp16(base, strided_out)
        np.testing.assert_array_equal(strided_out, numpy_fp16(base))
        inplace = base.copy()
        round_fp16(inplace, inplace)
        np.testing.assert_array_equal(inplace, numpy_fp16(base))

    def test_rejects_bad_out(self):
        x = np.ones(4, np.float32)
        with pytest.raises(ValueError):
            round_fp16(x, np.empty(5, np.float32))
        with pytest.raises(ValueError):
            round_fp16(x, np.empty(4, np.float16))

    def test_no_warning_escapes(self):
        x = np.array([1e6, -1e38, np.inf, np.nan], dtype=np.float32)
        with np.errstate(all="raise"):
            round_fp16(x)
            land_grad(np.empty(4, np.float32), x, np.float32(0.5),
                              boost=np.float32(1e30))


def bf16_bits(x):
    return round_bf16(np.asarray(x, np.float32)).view(np.uint32)


class TestRoundBf16:
    @pytest.mark.parametrize("nan_bits", [
        0xFFFFFFFF, 0xFFFF8000, 0x7F800001, 0x7F807FFF, 0x7FFFFFFF,
        0x7FC00000, 0xFFC00000, 0x7F80FFFF, 0xFF800001,
    ])
    def test_nan_stays_quiet_nan_of_same_sign(self, nan_bits):
        x = np.array([nan_bits], dtype=np.uint32).view(np.float32)
        out = round_bf16(x)
        assert np.isnan(out[0])
        assert np.signbit(out[0]) == bool(nan_bits >> 31)
        b = int(out.view(np.uint32)[0])
        assert b & 0xFFFF == 0 and b & 0x00400000   # bf16, quiet bit set
        assert b & 0xFFBF0000 == nan_bits & 0xFFBF0000  # sign, top payload

    def test_ties_to_even_at_every_exponent(self):
        exp = np.arange(256, dtype=np.uint32)[:, None] << 23
        # high mantissa even (bit 16 clear) / odd (set), low half = tie
        kept = np.array([0x0000, 0x10000, 0x20000, 0x7E0000, 0x7F0000],
                        dtype=np.uint32)[None, :]
        bits = (exp | kept | 0x8000).reshape(-1)
        bits = bits[(bits & 0x7F800000) != 0x7F800000]  # finite only
        for sign in (0, 0x80000000):
            x = (bits | np.uint32(sign)).view(np.float32)
            up = ((bits >> 16) & 1) == 1
            expected = np.where(up, (bits & 0xFFFF0000) + 0x10000,
                                bits & 0xFFFF0000) | np.uint32(sign)
            np.testing.assert_array_equal(bf16_bits(x),
                                          expected.astype(np.uint32))

    def test_below_and_above_tie_round_to_nearest(self):
        bits = np.array([0x3F807FFF, 0x3F808001, 0x00007FFF, 0x00008001],
                        dtype=np.uint32)
        np.testing.assert_array_equal(
            bf16_bits(bits.view(np.float32)),
            np.array([0x3F800000, 0x3F810000, 0x0, 0x00010000], np.uint32))

    def test_overflow_boundary(self):
        big = np.array([0x7F7F7FFF, 0x7F7F8000, 0x7F7F8001, 0x7F7FFFFF],
                       dtype=np.uint32)
        for sign in (0, 0x80000000):
            out = bf16_bits((big | np.uint32(sign)).view(np.float32))
            np.testing.assert_array_equal(
                out, np.array([0x7F7F0000] + [0x7F800000] * 3,
                              np.uint32) | np.uint32(sign))

    def test_infinities_and_zeros_pass_through(self):
        x = np.array([np.inf, -np.inf, 0.0, -0.0], dtype=np.float32)
        np.testing.assert_array_equal(bf16_bits(x), x.view(np.uint32))

    @pytest.mark.parametrize("n", [1, 17, ROUND_TILE + 3, 2 * ROUND_TILE + 5])
    def test_tiling_is_bitwise_invariant(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
        x = bits.view(np.float32)
        assert_split_invariant(round_bf16, x, round_bf16(x))


class TestLandGrad:
    """The STV gradient landing against the unfused sequence it fuses."""

    @pytest.mark.parametrize("precision", ["fp16", "bf16"])
    @pytest.mark.parametrize("n", [1, 31, ROUND_TILE + 9, 2 * ROUND_TILE + 5])
    def test_matches_unfused(self, precision, n):
        rng = np.random.default_rng(n)
        g = (rng.standard_normal(n) * 2e3).astype(np.float32)
        g[::17] = np.float32(1e5)            # fp16 overflow
        inv = np.float32(1.0 / 1024.0)
        boost = np.float32(3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            low = (numpy_fp16(g * boost) if precision == "fp16"
                   else round_bf16(g * boost))
            land = low * inv
            acc0 = rng.standard_normal(n).astype(np.float32)
            acc = acc0 + low * inv
        out = np.empty(n, np.float32)
        land_grad(out, g, inv, precision, boost)
        np.testing.assert_array_equal(out, land)
        assert_split_invariant(
            lambda src, dst: land_grad(dst, src, inv, precision, boost),
            g, land)
        land_grad(acc0, g, inv, precision, boost, accumulate=True)
        np.testing.assert_array_equal(acc0, acc)

    def test_shapes_and_rejects_strided_dst(self):
        g = np.ones((4, 6), np.float32)
        out = np.empty((4, 6), np.float32)
        land_grad(out, g, np.float32(0.5))
        np.testing.assert_array_equal(out, 0.5)
        with pytest.raises(ValueError):
            land_grad(np.empty((4, 12), np.float32)[:, ::2], g,
                              np.float32(0.5))


class TestGradSumsq:
    def test_matches_check_gradients_dot(self, rng):
        for n in (1, 5, 1000, 70001):
            g = (rng.standard_normal(n) * 37).astype(np.float32)
            g64 = np.asarray(g, dtype=np.float64)
            assert grad_sumsq(g) == float(np.dot(g64, g64))

    def test_non_finite_iff_element_is(self):
        assert np.isinf(grad_sumsq(np.array([1.0, np.inf],
                                                    np.float32)))
        assert np.isnan(grad_sumsq(np.array([np.nan], np.float32)))
        top = np.full(10, 3.4028235e38, np.float32)
        assert np.isfinite(grad_sumsq(top))
