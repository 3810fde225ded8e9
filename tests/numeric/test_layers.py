"""Finite-difference and invariant tests for the numpy layers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.numeric.layers import (
    Dense,
    Embedding,
    LayerNorm,
    cross_entropy,
    gelu,
    gelu_grad,
    softmax,
)
from repro.reference import gelu_grad_pow, gelu_pow
from repro.tensors.workspace import ActivationWorkspace


def fd_check(f, x, analytic, eps=1e-4, tol=2e-3):
    """Central finite differences over a few random coordinates."""
    rng = np.random.default_rng(0)
    for _ in range(5):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        fd = (fp - fm) / (2 * eps)
        assert abs(fd - analytic[idx]) <= tol * max(1.0, abs(fd)), idx


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((4, 9)).astype(np.float32)
        p = softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_handles_large_values(self):
        p = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)


class TestGelu:
    def test_known_values(self):
        assert gelu(np.array(0.0)) == 0.0
        assert gelu(np.array(10.0)) == pytest.approx(10.0, rel=1e-4)
        assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-3)

    @given(st.floats(min_value=-5, max_value=5))
    @settings(max_examples=30)
    def test_grad_matches_finite_difference(self, x):
        eps = 1e-5
        fd = (gelu(np.array(x + eps)) - gelu(np.array(x - eps))) / (2 * eps)
        assert gelu_grad(np.array(x)) == pytest.approx(fd, abs=1e-4)


#: fp32 inputs for the new-vs-ancestor suites: signed zeros, subnormals
#: and the whole |x| <= 1e4 range are in the draw.
FP32_ARRAYS = arrays(
    np.float32,
    array_shapes(min_dims=0, max_dims=3, max_side=6),
    elements=st.floats(-1e4, 1e4, width=32),
)
#: the edges by hand, plus the fp32 value where ``gelu_grad`` is furthest
#: from its ancestor (found by an exhaustive scan of [2**-6, 16))
EDGES = np.array(
    [0.0, -0.0, 1e-45, -1e-45, 1e-39, 1.1754944e-38, 1e4, -1e4,
     5.418707370758057, 4.049808502197266],
    dtype=np.float32,
)


def assert_close_to_ancestor(new, old, abs_tol):
    """Within 2 ulp of the ancestor, or ``abs_tol`` where the result
    passes through a cancellation (1 + tanh, 1 - tanh**2)."""
    assert new.dtype == old.dtype and new.shape == old.shape
    err = np.abs(new.astype(np.float64) - old.astype(np.float64))
    assert (err <= np.maximum(abs_tol, 2 * np.spacing(np.abs(old)))).all()


class TestGeluAgainstPowAncestor:
    """``(x*x)*x`` moves the cube by at most one ulp; what that does to
    the outputs is bounded here against the ``x**3`` spelling."""

    @given(FP32_ARRAYS)
    @example(EDGES)
    def test_gelu(self, x):
        assert_close_to_ancestor(gelu(x), np.asarray(gelu_pow(x)), 1e-6)

    # 2e-6: near x = 5.4 a one-ulp flip of tanh (6e-8) is amplified by
    # the cancelling 1 - tanh**2 times x * d_inner ~ 11 -> 1.3e-6 at
    # exactly one fp32 value; everywhere else the gap is below 1e-6
    @given(FP32_ARRAYS)
    @example(EDGES)
    def test_gelu_grad(self, x):
        assert_close_to_ancestor(
            gelu_grad(x), np.asarray(gelu_grad_pow(x)), 2e-6)

    def test_exact_at_zero(self):
        zeros = np.array([0.0, -0.0], dtype=np.float32)
        np.testing.assert_array_equal(gelu(zeros), [0.0, 0.0])
        np.testing.assert_array_equal(gelu_grad(zeros), [0.5, 0.5])


class TestGeluSingleImplementation:
    """Every input kind goes through the one ``out=`` op sequence."""

    @pytest.mark.parametrize("make", [
        lambda r: np.array(r.standard_normal()),                  # 0-d
        lambda r: r.standard_normal((3, 5)),                      # float64
        lambda r: r.standard_normal((4, 6)).T[::2],               # strided
        lambda r: r.standard_normal((3, 8))[:, ::3],
    ], ids=["0d", "float64", "transposed", "strided"])
    def test_grad_matches_finite_difference(self, rng, make):
        x = make(rng)
        eps = 1e-6
        fd = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(x), fd, atol=1e-8, rtol=1e-7)
        assert gelu(x).shape == gelu_grad(x).shape == x.shape

    @given(arrays(
        st.sampled_from([np.float32, np.float64]),
        array_shapes(min_dims=0, max_dims=3, max_side=5),
        elements=st.floats(-50, 50, width=32),
    ), st.booleans())
    def test_workspace_result_equals_plain(self, x, strided):
        if strided and x.ndim:
            x = x[..., ::2]
        ws = ActivationWorkspace()
        for fn in (gelu, gelu_grad):
            plain = fn(x)
            backed = fn(x, ws)
            assert backed.dtype == plain.dtype == x.dtype
            np.testing.assert_array_equal(backed, plain)
        assert ws.live_bytes == 2 * x.nbytes  # scratch was given back

    def test_input_is_not_written(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32)
        before = x.copy()
        ws = ActivationWorkspace()
        for fn in (gelu, gelu_grad):
            fn(x)
            fn(x, ws)
        np.testing.assert_array_equal(x, before)


class TestDense:
    def test_forward_shape_and_value(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        y, _ = Dense.forward(x, w, b)
        assert y.shape == (2, 3, 5)
        np.testing.assert_allclose(y, x @ w + b)

    def test_backward_gradients(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        dy = rng.standard_normal((2, 3, 5))

        def loss():
            return float((Dense.forward(x, w, b)[0] * dy).sum())

        _, cache = Dense.forward(x, w, b)
        dx, dw, db = Dense.backward(dy, cache)
        fd_check(loss, x, dx)
        fd_check(loss, w, dw)
        fd_check(loss, b, db)


class TestLayerNorm:
    def test_output_normalized_with_unit_gain(self, rng):
        x = rng.standard_normal((4, 16)) * 5 + 3
        y, _ = LayerNorm.forward(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-3)

    def test_backward_gradients(self, rng):
        x = rng.standard_normal((3, 8))
        g = rng.standard_normal(8)
        b = rng.standard_normal(8)
        dy = rng.standard_normal((3, 8))

        def loss():
            return float((LayerNorm.forward(x, g, b)[0] * dy).sum())

        _, cache = LayerNorm.forward(x, g, b)
        dx, dg, db = LayerNorm.backward(dy, cache)
        fd_check(loss, x, dx)
        fd_check(loss, g, dg)
        fd_check(loss, b, db)


class TestEmbedding:
    def test_lookup(self, rng):
        table = rng.standard_normal((10, 4))
        ids = np.array([[1, 3], [0, 9]])
        y, _ = Embedding.forward(ids, table)
        np.testing.assert_array_equal(y[0, 1], table[3])

    def test_out_of_range_rejected(self, rng):
        table = rng.standard_normal((10, 4))
        with pytest.raises(IndexError):
            Embedding.forward(np.array([[10]]), table)

    def test_backward_scatter_adds_duplicates(self, rng):
        table = rng.standard_normal((5, 3))
        ids = np.array([[2, 2, 1]])
        _, cache = Embedding.forward(ids, table)
        dy = np.ones((1, 3, 3))
        dtable = Embedding.backward(dy, cache)
        np.testing.assert_allclose(dtable[2], 2.0)
        np.testing.assert_allclose(dtable[1], 1.0)
        np.testing.assert_allclose(dtable[0], 0.0)


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((2, 3, 7), dtype=np.float32)
        targets = np.zeros((2, 3), dtype=np.int64)
        loss, _ = cross_entropy(logits, targets)
        assert loss == pytest.approx(np.log(7))

    def test_gradient_sums_to_zero_per_row(self, rng):
        logits = rng.standard_normal((2, 4, 9)).astype(np.float32)
        targets = rng.integers(0, 9, size=(2, 4))
        _, dlogits = cross_entropy(logits, targets)
        np.testing.assert_allclose(dlogits.sum(axis=-1), 0, atol=1e-6)

    def test_gradient_finite_difference(self, rng):
        logits = rng.standard_normal((1, 2, 5)).astype(np.float64)
        targets = rng.integers(0, 5, size=(1, 2))

        def loss():
            return cross_entropy(logits, targets)[0]

        _, d = cross_entropy(logits, targets)
        fd_check(loss, logits, d, eps=1e-5, tol=1e-4)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.standard_normal((2, 3, 11)) * 4
        targets = rng.integers(0, 11, size=(2, 3))
        _, d = cross_entropy(logits, targets)
        expected = softmax(logits)
        expected[np.arange(2)[:, None], np.arange(3), targets] -= 1.0
        np.testing.assert_allclose(d, expected / 6, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_workspace_stages_every_plane(self, rng, dtype):
        logits = (rng.standard_normal((2, 4, 9)) * 3).astype(dtype)
        targets = rng.integers(0, 9, size=(2, 4))
        loss, d = cross_entropy(logits, targets)
        ws = ActivationWorkspace()
        for _ in range(2):
            ws.new_step()
            ws_loss, ws_d = cross_entropy(logits, targets, ws)
            assert ws_loss == loss and ws_d.dtype == d.dtype
            np.testing.assert_array_equal(ws_d, d)
            # shifted logits, exp/softmax and dlogits; the fp64 pair is
            # handed back, so the second call allocates nothing
            assert ws.alloc_count == 3
            assert ws.live_bytes == d.nbytes

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3, 5)), np.zeros((2, 4), dtype=int))

    def test_perfect_prediction_low_loss(self):
        logits = np.full((1, 1, 4), -30.0, dtype=np.float64)
        logits[0, 0, 2] = 30.0
        loss, _ = cross_entropy(logits, np.array([[2]]))
        assert loss < 1e-6
