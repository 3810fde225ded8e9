"""Tests for attention and the full transformer (gradients, causality)."""

import numpy as np
import pytest

from repro.numeric import TinyTransformer, TransformerParams
from repro.numeric.attention import MultiHeadAttention
from repro.numeric.layers import cross_entropy


class TestAttention:
    def test_causality(self, rng):
        """Changing a future token must not affect earlier outputs."""
        attn = MultiHeadAttention(2)
        qkv = rng.standard_normal((1, 6, 3 * 8)).astype(np.float32)
        out1, _ = attn.forward(qkv)
        qkv2 = qkv.copy()
        qkv2[0, 5] += 10.0
        out2, _ = attn.forward(qkv2)
        np.testing.assert_allclose(out1[0, :5], out2[0, :5], atol=1e-6)
        assert not np.allclose(out1[0, 5], out2[0, 5])

    def test_split_merge_roundtrip(self, rng):
        attn = MultiHeadAttention(4)
        x = rng.standard_normal((2, 5, 16))
        np.testing.assert_array_equal(
            attn.merge_heads(attn.split_heads(x)), x
        )

    def test_split_heads_validates_divisibility(self, rng):
        attn = MultiHeadAttention(3)
        with pytest.raises(ValueError):
            attn.split_heads(rng.standard_normal((1, 2, 16)))

    def test_backward_matches_finite_difference(self, rng):
        attn = MultiHeadAttention(2)
        qkv = rng.standard_normal((1, 4, 3 * 8)).astype(np.float64)
        dout = rng.standard_normal((1, 4, 8))
        out, cache = attn.forward(qkv)
        dqkv = attn.backward(dout, cache)
        eps = 1e-6
        for _ in range(6):
            idx = tuple(rng.integers(0, s) for s in qkv.shape)
            orig = qkv[idx]
            qkv[idx] = orig + eps
            lp = float((attn.forward(qkv)[0] * dout).sum())
            qkv[idx] = orig - eps
            lm = float((attn.forward(qkv)[0] * dout).sum())
            qkv[idx] = orig
            fd = (lp - lm) / (2 * eps)
            assert fd == pytest.approx(dqkv[idx], abs=2e-4)

    def test_uniform_attention_averages_values(self):
        """With identical q/k, attention over a prefix is a running mean."""
        attn = MultiHeadAttention(1)
        seq, dim = 4, 2
        q = np.zeros((1, 1, seq, dim))
        k = np.zeros((1, 1, seq, dim))
        v = np.arange(seq, dtype=np.float64).reshape(1, 1, seq, 1) * np.ones(
            (1, 1, seq, dim)
        )
        ctx, _ = attn.attend(q, k, v)
        np.testing.assert_allclose(ctx[0, 0, 2, 0], 1.0)  # mean(0,1,2)=1


class TestTransformer:
    def test_forward_shapes(self, tiny_model, rng):
        ids = rng.integers(0, 61, size=(2, 10))
        logits, _ = tiny_model.forward(ids)
        assert logits.shape == (2, 10, 61)

    def test_sequence_too_long_rejected(self, tiny_model, rng):
        ids = rng.integers(0, 61, size=(1, 17))
        with pytest.raises(ValueError):
            tiny_model.forward(ids)

    def test_deterministic_init(self, tiny_spec):
        m1 = TinyTransformer(tiny_spec, seed=5)
        m2 = TinyTransformer(tiny_spec, seed=5)
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_param_count(self, tiny_model):
        assert tiny_model.param_count() == sum(
            p.size for p in tiny_model.params.values()
        )

    def test_gradients_match_finite_difference(self, tiny_model, rng):
        ids = rng.integers(0, 61, size=(2, 8))
        targets = rng.integers(0, 61, size=(2, 8))
        loss, grads = tiny_model.loss_and_grads(ids, targets)
        assert set(grads) == set(tiny_model.params)
        eps = 1e-3
        checked = 0
        for name in ("h0.qkv.w", "h1.fc1.w", "tok_emb", "ln_f.g", "head.w",
                     "pos_emb", "h0.proj.b", "h1.ln2.g"):
            p = tiny_model.params[name]
            for _ in range(2):
                idx = tuple(rng.integers(0, s) for s in p.shape)
                orig = p[idx]
                p[idx] = orig + eps
                lp = tiny_model.loss(ids, targets)
                p[idx] = orig - eps
                lm = tiny_model.loss(ids, targets)
                p[idx] = orig
                fd = (lp - lm) / (2 * eps)
                an = grads[name][idx]
                assert abs(fd - an) <= 2e-4 + 0.05 * abs(fd), (name, idx)
                checked += 1
        assert checked == 16

    def test_loss_scale_multiplies_gradients(self, tiny_model, rng):
        ids = rng.integers(0, 61, size=(1, 8))
        targets = rng.integers(0, 61, size=(1, 8))
        _, g1 = tiny_model.loss_and_grads(ids, targets, loss_scale=1.0)
        _, g2 = tiny_model.loss_and_grads(ids, targets, loss_scale=8.0)
        for k in g1:
            np.testing.assert_allclose(g2[k], 8.0 * g1[k], rtol=1e-4, atol=1e-6)

    def test_external_params_used(self, tiny_model, rng):
        ids = rng.integers(0, 61, size=(1, 6))
        zeroed = {k: np.zeros_like(v) for k, v in tiny_model.params.items()}
        logits, _ = tiny_model.forward(ids, params=zeroed)
        np.testing.assert_allclose(logits, 0.0)

    def test_training_reduces_loss(self, tiny_model, tiny_batches):
        """A few plain SGD steps on real data reduce the loss."""
        ids, targets = tiny_batches[0]
        loss0, _ = cross_entropy(tiny_model.forward(ids)[0], targets)
        for _ in range(30):
            _, grads = tiny_model.loss_and_grads(ids, targets)
            for k, g in grads.items():
                tiny_model.params[k] -= (0.5 * g).astype(np.float32)
        loss1, _ = cross_entropy(tiny_model.forward(ids)[0], targets)
        assert loss1 < loss0 - 0.2
