"""Tests for low-precision emulation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.numeric.lowprec import (
    cast_roundtrip_error,
    from_fp16,
    round_bf16,
    to_fp16,
)


def test_fp16_overflow_to_inf():
    x = np.array([1e5, -1e5], dtype=np.float32)
    y = to_fp16(x)
    assert np.isinf(y).all()


def test_fp16_roundtrip_small_values_exact():
    x = np.array([1.0, 0.5, -2.0, 1024.0], dtype=np.float32)
    np.testing.assert_array_equal(from_fp16(to_fp16(x)), x)


@given(arrays(np.float32, (8,), elements=st.floats(-1e3, 1e3, width=32)))
def test_fp16_roundtrip_error_bounded(x):
    # fp16 has ~3 decimal digits: relative error <= 2^-10 plus denormal floor.
    err = cast_roundtrip_error(x, "fp16")
    assert err <= np.abs(x).max() * 2**-10 + 1e-6


@given(arrays(np.float32, (8,), elements=st.floats(-1e6, 1e6, width=32)))
def test_bf16_roundtrip_error_bounded(x):
    err = cast_roundtrip_error(x, "bf16")
    assert err <= np.abs(x).max() * 2**-7 + 1e-30


def test_bf16_preserves_exact_powers_of_two():
    x = np.array([2.0**-30, 2.0**40, -2.0**10], dtype=np.float32)
    np.testing.assert_array_equal(round_bf16(x), x)


def test_bf16_keeps_fp32_range():
    """bf16's raison d'etre: 1e38 survives (it overflows fp16)."""
    x = np.array([1e38], dtype=np.float32)
    assert np.isfinite(round_bf16(x)).all()
    assert np.isinf(to_fp16(x)).all()


def test_bf16_round_to_nearest_even():
    # 1 + 2^-8 is exactly halfway between bf16 neighbours 1.0 and 1+2^-7;
    # round-to-even picks 1.0 (even mantissa).
    x = np.array([1.0 + 2.0**-8], dtype=np.float32)
    assert round_bf16(x)[0] == 1.0


def test_unknown_dtype_rejected():
    with pytest.raises(ValueError):
        cast_roundtrip_error(np.ones(2, dtype=np.float32), "fp8")


def test_bf16_preserves_shape_noncontiguous():
    x = np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2]
    y = round_bf16(x)
    assert y.shape == x.shape
    np.testing.assert_array_equal(y, x)
