"""Streaming blocked attention vs. the dense reference.

The contract under test (ISSUE 5 / DESIGN §9): streaming agrees with
dense to fp32 tolerance (NOT bitwise — the online softmax reorders the
reduction), is bitwise identical across worker counts, never
materializes an ``S x S`` array, and slots into the Ulysses shard path
and the workspace-backed transformer unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.pool import KernelPool
from repro.numeric import flash
from repro.numeric.attention import (
    BACKENDS,
    MultiHeadAttention,
    causal_mask,
    masked_fill_value,
)
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.parallel.comm import SimProcessGroup
from repro.parallel.ulysses import UlyssesAttention
from repro.tensors.workspace import ActivationWorkspace

FWD_TOL = 1e-5
BWD_TOL = 1e-4


def _qkv(rng, b, h, sq, sk, d):
    q = rng.standard_normal((b, h, sq, d)).astype(np.float32)
    k = rng.standard_normal((b, h, sk, d)).astype(np.float32)
    v = rng.standard_normal((b, h, sk, d)).astype(np.float32)
    return q, k, v


def _max_grad_diff(got, ref):
    return max(float(np.abs(a - b).max()) for a, b in zip(got, ref))


class TestForwardAgainstDense:
    @given(
        seq=st.integers(min_value=1, max_value=65),
        block_q=st.integers(min_value=1, max_value=70),
        block_k=st.integers(min_value=1, max_value=70),
        causal=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tolerance_any_blocking(self, seq, block_q, block_k, causal):
        """Odd lengths, blocks that do not divide S, both mask modes."""
        rng = np.random.default_rng(seq * 1000 + block_q * 10 + block_k)
        q, k, v = _qkv(rng, 1, 2, seq, seq, 8)
        ref, _ = MultiHeadAttention.core_forward(q, k, v, causal)
        out, cache = flash.streaming_attention_forward(
            q, k, v, causal=causal, block_q=block_q, block_k=block_k
        )
        assert float(np.abs(out - ref).max()) <= FWD_TOL
        assert cache.lse.shape == q.shape[:3]
        assert np.isfinite(cache.lse).all()

    def test_cross_attention_shapes(self, rng):
        q, k, v = _qkv(rng, 2, 2, 13, 29, 8)
        ref, _ = MultiHeadAttention.core_forward(q, k, v, causal=False)
        out, _ = flash.streaming_attention_forward(
            q, k, v, causal=False, block_q=5, block_k=7
        )
        assert float(np.abs(out - ref).max()) <= FWD_TOL

    def test_causal_rejects_longer_queries(self, rng):
        q, k, v = _qkv(rng, 1, 1, 8, 4, 4)
        with pytest.raises(ValueError, match="seq_q <= seq_k"):
            flash.streaming_attention_forward(q, k, v, causal=True)

    def test_rejects_non_4d(self, rng):
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        with pytest.raises(ValueError, match="expected"):
            flash.streaming_attention_forward(x, x, x)

    def test_rejects_bad_blocks(self, rng):
        q, k, v = _qkv(rng, 1, 1, 4, 4, 4)
        with pytest.raises(ValueError, match="block"):
            flash.streaming_attention_forward(q, k, v, block_q=0)


class TestBackwardAgainstDense:
    @given(
        seq=st.integers(min_value=1, max_value=48),
        block=st.integers(min_value=1, max_value=50),
        causal=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_gradients_tolerance(self, seq, block, causal):
        rng = np.random.default_rng(seq * 100 + block)
        q, k, v = _qkv(rng, 1, 2, seq, seq, 8)
        dout = rng.standard_normal(q.shape).astype(np.float32)
        _, ref_cache = MultiHeadAttention.core_forward(q, k, v, causal)
        ref = MultiHeadAttention.core_backward(dout, ref_cache)
        _, cache = flash.streaming_attention_forward(
            q, k, v, causal=causal, block_q=block, block_k=block
        )
        got = flash.streaming_attention_backward(dout, cache)
        assert _max_grad_diff(got, ref) <= BWD_TOL

    def test_gradients_match_finite_difference(self, rng):
        """Direct gradcheck, independent of the dense implementation."""
        q, k, v = _qkv(rng, 1, 1, 6, 6, 4)
        dout = rng.standard_normal(q.shape).astype(np.float32)
        _, cache = flash.streaming_attention_forward(
            q, k, v, causal=True, block_q=3, block_k=3
        )
        dq, dk, dv = flash.streaming_attention_backward(dout, cache)
        eps, tol = 1e-3, 2e-2
        for arr, grad in ((q, dq), (k, dk), (v, dv)):
            for idx in [(0, 0, 1, 2), (0, 0, 5, 0), (0, 0, 3, 3)]:
                orig = arr[idx]
                arr[idx] = orig + eps
                up, _ = flash.streaming_attention_forward(q, k, v)
                arr[idx] = orig - eps
                dn, _ = flash.streaming_attention_forward(q, k, v)
                arr[idx] = orig
                fd = float(((up - dn) * dout).sum() / (2 * eps))
                assert abs(fd - grad[idx]) <= tol * max(1.0, abs(fd))


class TestWorkerDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_across_worker_counts(self, rng, workers):
        """Every tile has one writer and a fixed reduction order, so the
        fan-out width cannot change a single bit."""
        q, k, v = _qkv(rng, 2, 4, 37, 37, 8)
        dout = rng.standard_normal(q.shape).astype(np.float32)
        out1, cache1 = flash.streaming_attention_forward(
            q, k, v, block_q=8, block_k=8, pool=None
        )
        grads1 = flash.streaming_attention_backward(dout, cache1)
        pool = KernelPool(workers)
        try:
            outn, cachen = flash.streaming_attention_forward(
                q, k, v, block_q=8, block_k=8, pool=pool
            )
            gradsn = flash.streaming_attention_backward(
                dout, cachen, pool=pool
            )
        finally:
            pool.shutdown()
        assert np.array_equal(out1, outn)
        assert np.array_equal(cache1.lse, cachen.lse)
        for a, b in zip(grads1, gradsn):
            assert np.array_equal(a, b)


class TestMemoryFootprint:
    def test_scratch_stays_within_tile_bound(self, rng):
        """Steady-state tile scratch is O(block), not O(S) — re-running
        the same shapes allocates nothing, and the per-thread total sits
        under the documented bound (far below any S x S plane)."""
        seq, d, bq, bk = 96, 8, 16, 16
        q, k, v = _qkv(rng, 1, 2, seq, seq, d)
        dout = rng.standard_normal(q.shape).astype(np.float32)

        # pool=None would be the shared multi-worker default pool, where
        # which worker first sees a scratch key depends on scheduling; a
        # one-worker pool runs every tile on the calling thread.
        pool = KernelPool(1)

        def step():
            _, cache = flash.streaming_attention_forward(
                q, k, v, block_q=bq, block_k=bk, pool=pool
            )
            flash.streaming_attention_backward(dout, cache, pool=pool)
            return flash.scratch_bytes_total()

        try:
            # Warm until the process-global counter is at a fixed point.
            before = step()
            for _ in range(8):
                after = step()
                if after == before:
                    break
                before = after
            assert step() == before
        finally:
            pool.shutdown()
        # This thread's share of the global total is bounded by the
        # per-thread tile bound, which is itself far below one S x S.
        assert flash.tile_scratch_bytes(bq, bk, d) < seq * seq * 4

    def test_workspace_peak_is_linear_not_quadratic(self, rng):
        """A workspace-backed streaming attention holds O(B*H*S*d)
        bytes; the dense S x S planes for the same shape would dwarf it."""
        b, h, seq, d = 1, 4, 96, 8
        hidden = h * d
        ws = ActivationWorkspace()
        attn = MultiHeadAttention(
            h, backend="streaming", block_q=16, block_k=16,
            workspace=ws, pool=None,
        )
        qkv = rng.standard_normal((b, seq, 3 * hidden)).astype(np.float32)
        out, cache = attn.forward(qkv)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        attn.backward(dout, cache)
        dense_scores = b * h * seq * seq * 4
        assert ws.peak_bytes < dense_scores


class TestBackendDispatch:
    def test_backends_tuple(self):
        assert BACKENDS == ("dense", "streaming")
        with pytest.raises(ValueError, match="backend"):
            MultiHeadAttention(2, backend="sparse")

    def test_streaming_hidden_level_matches_dense(self, rng):
        qkv = rng.standard_normal((2, 21, 3 * 24)).astype(np.float32)
        dout = rng.standard_normal((2, 21, 24)).astype(np.float32)
        dense = MultiHeadAttention(4)
        stream = MultiHeadAttention(
            4, backend="streaming", block_q=8, block_k=8, pool=None
        )
        ref, ref_cache = dense.forward(qkv)
        got, got_cache = stream.forward(qkv)
        assert float(np.abs(got - ref).max()) <= FWD_TOL
        dref = dense.backward(dout, ref_cache)
        dgot = stream.backward(dout, got_cache)
        assert float(np.abs(dgot - dref).max()) <= BWD_TOL

    def test_dense_is_bitwise_stable_reference(self, rng):
        """The dense backend is the seed path: same call, same bits."""
        q, k, v = _qkv(rng, 2, 2, 11, 11, 4)
        a, cache_a = MultiHeadAttention.core_forward(q, k, v, True)
        b_, cache_b = MultiHeadAttention.core_forward(q, k, v, True)
        assert np.array_equal(a, b_)
        dout = rng.standard_normal(a.shape).astype(np.float32)
        for ga, gb in zip(
            MultiHeadAttention.core_backward(dout, cache_a),
            MultiHeadAttention.core_backward(dout, cache_b),
        ):
            assert np.array_equal(ga, gb)


class TestMaskHelpers:
    def test_causal_mask_memoized_and_readonly(self):
        m1 = causal_mask(9, 9)
        assert m1 is causal_mask(9, 9)
        assert not m1.flags.writeable
        assert m1[0, 1] and not m1[1, 0] and not m1[3, 3]

    def test_masked_fill_is_finite_and_underflows(self):
        for dtype in (np.float16, np.float32, np.float64):
            fill = masked_fill_value(dtype)
            assert np.isfinite(fill)
            assert fill.dtype == np.dtype(dtype)
        # fp32: exp(fill - max) must be exactly zero, like the old -1e9
        fill = float(masked_fill_value(np.float32))
        assert np.exp(np.float32(fill) - np.float32(10.0)) == 0.0


class TestUlyssesStreaming:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_sharded_streaming_matches_single_rank_dense(self, rng, world):
        """The Ulysses exchange with streaming per-rank cores still
        reproduces single-rank attention (tolerance, like the backend)."""
        b, seq, heads, d = 2, 16, 4, 6
        hidden = heads * d
        qkv = rng.standard_normal((b, seq, 3 * hidden)).astype(np.float32)
        single = MultiHeadAttention(heads)
        ref, ref_cache = single.forward(qkv)
        group = SimProcessGroup(world)
        ua = UlyssesAttention(
            heads, group, backend="streaming", block_q=8, block_k=8,
            pool=None,
        )
        shard = seq // world
        shards = [qkv[:, r * shard : (r + 1) * shard] for r in range(world)]
        outs, caches = ua.forward(shards)
        got = np.concatenate(outs, axis=1)
        assert float(np.abs(got - ref).max()) <= FWD_TOL
        dout = rng.standard_normal(ref.shape).astype(np.float32)
        dref = single.backward(dout, ref_cache)
        dshards = [
            dout[:, r * shard : (r + 1) * shard] for r in range(world)
        ]
        dgot = np.concatenate(ua.backward(dshards, caches), axis=1)
        assert float(np.abs(dgot - dref).max()) <= BWD_TOL

    def test_dense_default_unchanged(self, rng):
        """Ulysses without a backend argument still runs the bitwise
        dense core (the seed equivalence tests rely on it)."""
        group = SimProcessGroup(2)
        ua = UlyssesAttention(4, group)
        assert ua.attn.backend == "dense"


class TestTransformerStreaming:
    def test_streaming_workspace_model_matches_dense(self, rng):
        spec = TransformerParams(
            vocab=64, max_seq=24, hidden=32, n_layers=2, n_heads=4
        )
        ids = rng.integers(0, spec.vocab, size=(2, 19))
        targets = rng.integers(0, spec.vocab, size=(2, 19))
        base = TinyTransformer(spec, seed=3)
        loss0, grads0 = base.loss_and_grads(ids, targets, loss_scale=4.0)
        ws = ActivationWorkspace()
        model = TinyTransformer(
            spec, seed=3, workspace=ws, attn_backend="streaming",
            block_q=8, block_k=8,
        )
        loss1, grads1 = model.loss_and_grads(ids, targets, loss_scale=4.0)
        assert abs(loss1 - loss0) <= FWD_TOL
        assert set(grads1) == set(grads0)
        worst = max(
            float(np.abs(grads0[k] - grads1[k]).max()) for k in grads0
        )
        assert worst <= BWD_TOL

    def test_dense_workspace_model_is_bitwise(self, rng):
        """Workspace buffers change where activations live, not their
        bits: the dense+workspace model reproduces the seed exactly."""
        spec = TransformerParams(
            vocab=32, max_seq=16, hidden=16, n_layers=2, n_heads=2
        )
        ids = rng.integers(0, spec.vocab, size=(2, 13))
        targets = rng.integers(0, spec.vocab, size=(2, 13))
        base = TinyTransformer(spec, seed=5)
        loss0, grads0 = base.loss_and_grads(ids, targets, loss_scale=2.0)
        model = TinyTransformer(
            spec, seed=5, workspace=ActivationWorkspace()
        )
        for _ in range(2):  # cold and warm workspace steps
            loss1, grads1 = model.loss_and_grads(ids, targets,
                                                 loss_scale=2.0)
            assert loss1 == loss0
            for key in grads0:
                assert np.array_equal(grads0[key], grads1[key]), key
