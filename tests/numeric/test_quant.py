"""Property tests for blocked int8 quantization and the fused qmatmul.

The contracts under test:

- round-trip error of ``dequantize(quantize(w))`` stays within the
  analytic per-group bound ``scale / 2`` (elementwise);
- degenerate groups (all-zero, non-finite) quantize to exact zero codes
  with scale 1.0, so dequantization is exact there;
- the fused :func:`~repro.exec.ops.parallel_qmatmul` agrees with the
  dense-dequant reference within fp32-reassociation tolerance, and with
  the analytic bound against the exact fp32 product;
- results are bitwise identical across worker counts 1/2/4 (the column
  tile decomposition never depends on the pool);
- :class:`~repro.numeric.lowprec.QuantizedStore` packs planes into one
  contiguous code/scale buffer pair with zero-copy views.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.exec.ops as ops
from repro.exec.ops import parallel_qmatmul
from repro.exec.pool import KernelPool
from repro.numeric.lowprec import (
    QuantizedStore,
    QuantizedTensor,
    cast_roundtrip_error,
    dequantize_int8_blocked,
    quantization_error_bound,
    quantize_int8_blocked,
)
from repro.reference import qmatmul_reference


def _weights(rng, rows, cols, scale=0.1):
    return (scale * rng.standard_normal((rows, cols))).astype(np.float32)


def _sum_magnitude(x, qt, bias=None):
    """``|x| @ |dequant(w)| (+ |bias|)``: the size of the terms each
    output sums.  A reassociated fp32 sum moves by ulps of *this*, not of
    the output, which can cancel to nothing."""
    magnitude = np.abs(x) @ np.abs(qt.dequantize())
    return magnitude if bias is None else magnitude + np.abs(bias)


# -- round-trip bound ----------------------------------------------------


@given(
    rows=st.integers(1, 130),
    cols=st.integers(1, 17),
    group_size=st.sampled_from([1, 3, 8, 32, 64, 128]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_error_within_analytic_bound(rows, cols, group_size,
                                               seed):
    rng = np.random.default_rng(seed)
    w = _weights(rng, rows, cols)
    q, scales = quantize_int8_blocked(w, group_size)
    back = dequantize_int8_blocked(q, scales, group_size)
    bound = quantization_error_bound(scales, group_size, rows)
    assert q.dtype == np.int8 and scales.dtype == np.float32
    # rint quantization: error <= scale / 2 elementwise, plus an epsilon
    # for the fp32 division/multiply in the round trip itself.
    assert np.all(np.abs(back - w) <= bound * (1 + 1e-5) + 1e-12)


def test_non_dividing_group_size_covers_tail():
    rng = np.random.default_rng(0)
    w = _weights(rng, 100, 5)
    q, scales = quantize_int8_blocked(w, 64)  # groups: 64 + 36-row tail
    assert scales.shape == (2, 5)
    back = dequantize_int8_blocked(q, scales, 64)
    bound = quantization_error_bound(scales, 64, 100)
    assert bound.shape == (100, 5)
    assert np.all(np.abs(back - w) <= bound * (1 + 1e-5))


def test_degenerate_groups_exact_zero():
    """All-zero and non-finite groups get scale 1.0 and zero codes."""
    w = np.zeros((8, 3), dtype=np.float32)
    w[4:, 1] = np.nan
    w[4:, 2] = np.inf
    q, scales = quantize_int8_blocked(w, 4)
    assert np.array_equal(q, np.zeros_like(q))
    assert np.array_equal(scales, np.ones_like(scales))
    assert np.array_equal(
        dequantize_int8_blocked(q, scales, 4), np.zeros_like(w)
    )


def test_cast_roundtrip_error_ignores_nonfinite():
    x = np.array([1.0, np.nan, np.inf, -2.0], dtype=np.float32)
    err = cast_roundtrip_error(x, "fp16")
    assert np.isfinite(err)
    all_bad = np.array([np.nan, np.inf], dtype=np.float32)
    assert cast_roundtrip_error(all_bad, "bf16") == 0.0


# -- fused qmatmul vs reference -----------------------------------------


@given(
    m=st.integers(1, 9),
    k=st.integers(1, 200),
    n=st.integers(1, 40),
    group_size=st.sampled_from([8, 64, 128]),
    seed=st.integers(0, 2**16),
)
@example(m=1, k=191, n=1, group_size=8, seed=1351)  # output cancels to 6.5e-5
@settings(max_examples=30, deadline=None)
def test_qmatmul_matches_reference(m, k, n, group_size, seed):
    rng = np.random.default_rng(seed)
    w = _weights(rng, k, n)
    x = rng.standard_normal((m, k)).astype(np.float32)
    bias = rng.standard_normal(n).astype(np.float32)
    qt = QuantizedTensor(*quantize_int8_blocked(w, group_size), group_size)
    got = parallel_qmatmul(x, qt, bias, tile=16)
    ref = qmatmul_reference(x, qt, bias)
    assert np.all(np.abs(got - ref) <= 1e-4 * _sum_magnitude(x, qt, bias))


def test_qmatmul_within_analytic_bound_of_exact():
    """|fused - x @ w_fp32| <= |x| @ bound, plus reassociation slack."""
    rng = np.random.default_rng(7)
    w = _weights(rng, 256, 64)
    x = rng.standard_normal((4, 256)).astype(np.float32)
    qt = QuantizedTensor(*quantize_int8_blocked(w, 64), 64)
    got = parallel_qmatmul(x, qt)
    exact = x @ w
    bound = np.abs(x) @ qt.error_bound()
    assert np.all(np.abs(got - exact) <= bound * (1 + 1e-4) + 1e-5)


def test_qmatmul_leading_dims_and_out():
    rng = np.random.default_rng(3)
    w = _weights(rng, 48, 32)
    qt = QuantizedTensor(*quantize_int8_blocked(w, 16), 16)
    x = rng.standard_normal((2, 5, 48)).astype(np.float32)
    out = np.empty((2, 5, 32), dtype=np.float32)
    got = parallel_qmatmul(x, qt, out=out)
    assert got is out
    flat = parallel_qmatmul(x.reshape(10, 48), qt)
    assert np.array_equal(out.reshape(10, 32), flat)


def test_qmatmul_rejects_feature_mismatch():
    rng = np.random.default_rng(1)
    qt = QuantizedTensor(*quantize_int8_blocked(_weights(rng, 16, 8), 8), 8)
    with pytest.raises(ValueError):
        parallel_qmatmul(np.ones((2, 17), dtype=np.float32), qt)


# -- determinism across worker counts -----------------------------------


@pytest.mark.parametrize("group_size", [32, 64, 100])
def test_qmatmul_bitwise_across_workers(monkeypatch, group_size):
    """Workers 1/2/4 produce bitwise-identical outputs.

    The dispatcher clamps fan-out to the host's usable CPUs, so the
    pool path is forced via monkeypatch — the determinism contract must
    hold when threads really race over the column tiles.
    """
    monkeypatch.setattr(ops, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(ops, "QMATMUL_MIN_PARALLEL", 1)
    rng = np.random.default_rng(11)
    w = _weights(rng, 200, 96)
    x = rng.standard_normal((6, 200)).astype(np.float32)
    bias = rng.standard_normal(96).astype(np.float32)
    qt = QuantizedTensor(*quantize_int8_blocked(w, group_size), group_size)
    outs = []
    for workers in (1, 2, 4):
        pool = KernelPool(workers)
        try:
            outs.append(
                parallel_qmatmul(x, qt, bias, pool=pool, tile=16)
            )
        finally:
            pool.shutdown()
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_qmatmul_tiles_agree_within_tolerance():
    """Tile width re-chunks the fan-out; results agree to fp32 slack.

    Not bitwise: the BLAS kernels may reassociate dot products
    differently per operand width.  Bitwise invariance is only promised
    across *worker counts* at a fixed tile (the test above).
    """
    rng = np.random.default_rng(13)
    w = _weights(rng, 128, 64)
    x = rng.standard_normal((3, 128)).astype(np.float32)
    qt = QuantizedTensor(*quantize_int8_blocked(w, 32), 32)
    ref = parallel_qmatmul(x, qt, tile=64)
    magnitude = _sum_magnitude(x, qt)
    for tile in (8, 16, 48):
        got = parallel_qmatmul(x, qt, tile=tile)
        assert np.all(np.abs(got - ref) <= 1e-5 * magnitude)


# -- packed store --------------------------------------------------------


def test_quantized_store_roundtrip_and_views():
    rng = np.random.default_rng(5)
    planes = {
        "a": _weights(rng, 96, 32),
        "b": _weights(rng, 64, 48),
        "c": _weights(rng, 100, 8),  # ragged tail group
    }
    store = QuantizedStore.pack(planes.items(), group_size=64)
    for name, w in planes.items():
        qt = store.get(name)
        solo = QuantizedTensor(*quantize_int8_blocked(w, 64), 64)
        assert np.array_equal(qt.qweight, solo.qweight)
        assert np.array_equal(qt.scales, solo.scales)
        # zero-copy: views alias the packed buffers
        assert qt.qweight.base is not None
    fp32 = sum(w.nbytes for w in planes.values())
    assert fp32 / store.nbytes >= 3.0
    assert store.compression_ratio >= 3.0


def test_quantized_store_accepts_generator():
    rng = np.random.default_rng(6)
    planes = [("x", _weights(rng, 32, 16)), ("y", _weights(rng, 16, 16))]
    store = QuantizedStore.pack((p for p in planes), group_size=16)
    assert np.array_equal(
        store.get("x").dequantize(),
        QuantizedTensor(
            *quantize_int8_blocked(planes[0][1], 16), 16
        ).dequantize(),
    )


def test_dequantize_rows_matches_full():
    rng = np.random.default_rng(8)
    w = _weights(rng, 90, 24)
    qt = QuantizedTensor(*quantize_int8_blocked(w, 32), 32)
    rows = np.array([0, 5, 63, 64, 89])
    assert np.array_equal(
        qt.dequantize_rows(rows), qt.dequantize()[rows]
    )
