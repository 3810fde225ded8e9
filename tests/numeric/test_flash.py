"""Streaming blocked attention — the one production core — vs. the
dense oracle in :mod:`repro.reference`.

The contract under test (DESIGN §9): streaming agrees with dense to
fp32 tolerance (NOT bitwise — the online softmax reorders the
reduction), gives each head the same bits whichever heads share its
call, visits every tile pair once per direction, never materializes an
``S x S`` array, and slots into the Ulysses shard path and the
workspace-backed transformer unchanged.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import reference
from repro.numeric import flash
from repro.numeric.attention import MultiHeadAttention
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.parallel.comm import SimProcessGroup
from repro.parallel.ulysses import UlyssesAttention
from repro.tensors.workspace import ActivationWorkspace
from tests.dense_oracle import use_dense_reference

FWD_TOL = 1e-5
BWD_TOL = 1e-4


def _qkv(rng, b, h, sq, sk, d):
    q = rng.standard_normal((b, h, sq, d)).astype(np.float32)
    k = rng.standard_normal((b, h, sk, d)).astype(np.float32)
    v = rng.standard_normal((b, h, sk, d)).astype(np.float32)
    return q, k, v


def _max_grad_diff(got, ref):
    return max(float(np.abs(a - b).max()) for a, b in zip(got, ref))


def _fwd_bwd(q, k, v, dout, **kwargs):
    """(out, lse, dq, dk, dv) of one streaming forward + backward."""
    out, cache = flash.streaming_attention_forward(q, k, v, **kwargs)
    return (out, cache.lse) + flash.streaming_attention_backward(dout, cache)


def _dense_hidden(qkv, heads, dout):
    """The dense oracle at the hidden level: (out, dqkv) over a fused
    ``(b, s, 3h)`` projection."""
    b, s, h3 = qkv.shape
    d = h3 // 3 // heads

    def split(x):
        return x.reshape(b, s, heads, d).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, s, heads * d)

    q, k, v = (split(x) for x in np.split(qkv, 3, axis=-1))
    out, cache = reference.dense_attention_forward(q, k, v, True)
    grads = reference.dense_attention_backward(split(dout), cache)
    return merge(out), np.concatenate([merge(g) for g in grads], axis=-1)


def _in_thread(fn):
    """Run ``fn`` on a fresh thread (fresh tile scratch); return its
    result, re-raising anything it raised."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the caller below
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


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
        ref, _ = reference.dense_attention_forward(q, k, v, causal)
        out, cache = flash.streaming_attention_forward(
            q, k, v, causal=causal, block_q=block_q, block_k=block_k
        )
        assert float(np.abs(out - ref).max()) <= FWD_TOL
        assert cache.lse.shape == q.shape[:3]
        assert np.isfinite(cache.lse).all()

    def test_cross_attention_shapes(self, rng):
        q, k, v = _qkv(rng, 2, 2, 13, 29, 8)
        ref, _ = reference.dense_attention_forward(q, k, v, causal=False)
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
        extra_k=st.integers(min_value=0, max_value=9),
        block_q=st.integers(min_value=1, max_value=60),
        block_k=st.integers(min_value=1, max_value=60),
        causal=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_gradients_tolerance(self, seq, extra_k, block_q, block_k,
                                 causal, dtype):
        """The one-pass backward against the dense oracle: both mask
        modes, ``seq_q < seq_k``, block sides of 1, larger than the
        sequence and not dividing it, fp32 and fp64."""
        rng = np.random.default_rng(seq * 100 + block_q + 7 * block_k)
        q, k, v = (x.astype(dtype)
                   for x in _qkv(rng, 1, 2, seq, seq + extra_k, 8))
        dout = rng.standard_normal(q.shape).astype(dtype)
        _, ref_cache = reference.dense_attention_forward(q, k, v, causal)
        ref = reference.dense_attention_backward(dout, ref_cache)
        _, cache = flash.streaming_attention_forward(
            q, k, v, causal=causal, block_q=block_q, block_k=block_k
        )
        got = flash.streaming_attention_backward(dout, cache)
        assert all(g.dtype == dtype for g in got)
        tol = BWD_TOL if dtype == np.float32 else 1e-12
        assert _max_grad_diff(got, ref) <= tol

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

    @pytest.mark.parametrize("causal", [True, False])
    def test_dirty_output_buffers_are_overwritten(self, rng, causal):
        """Workspace buffers arrive holding the last step's bytes: every
        element of dq/dk/dv is rewritten, including the keys no causal
        query reaches (exact zeros)."""
        q, k, v = _qkv(rng, 2, 2, 19, 31, 8)
        dout = rng.standard_normal(q.shape).astype(np.float32)
        _, cache = flash.streaming_attention_forward(
            q, k, v, causal=causal, block_q=8, block_k=5
        )
        clean = flash.streaming_attention_backward(dout, cache)
        dirty = [np.full_like(x, np.nan) for x in (q, k, v)]
        got = flash.streaming_attention_backward(
            dout, cache, dq=dirty[0], dk=dirty[1], dv=dirty[2]
        )
        for buf, g, c in zip(dirty, got, clean):
            assert g is buf
            assert np.array_equal(g, c)
        if causal:
            assert not got[1][:, :, 19:].any() and not got[2][:, :, 19:].any()

    def test_rejects_non_contiguous_outputs(self, rng):
        q, k, v = _qkv(rng, 1, 2, 8, 8, 4)
        strided = np.empty((1, 2, 8, 8), dtype=np.float32)[..., ::2]
        with pytest.raises(ValueError, match="contiguous"):
            flash.streaming_attention_forward(q, k, v, out=strided)


class _CountingNumpy:
    """``numpy`` with ``exp`` calls on stacked tiles counted."""

    def __init__(self):
        self.exp_tiles = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exp_tiles += x.ndim == 3
        return np.exp(x, *args, **kwargs)


class TestOnePass:
    @pytest.mark.parametrize("causal", [True, False])
    def test_each_tile_pair_is_recomputed_once(self, rng, monkeypatch,
                                               causal):
        """Backward rebuilds one probability tile per (query-tile,
        key-tile) pair — the same count the forward visits — not one per
        pair per gradient."""
        seq_q, seq_k, bq, bk = 37, 45, 8, 16
        q, k, v = _qkv(rng, 2, 2, seq_q, seq_k, 8)
        dout = rng.standard_normal(q.shape).astype(np.float32)
        pairs = sum(
            math.ceil((min(seq_k, q0 + bq, seq_q) if causal else seq_k) / bk)
            for q0 in range(0, seq_q, bq)
        )
        counting = _CountingNumpy()
        monkeypatch.setattr(flash, "np", counting)
        _, cache = flash.streaming_attention_forward(
            q, k, v, causal=causal, block_q=bq, block_k=bk
        )
        assert counting.exp_tiles == pairs  # all four heads in one group
        flash.streaming_attention_backward(dout, cache)
        assert counting.exp_tiles == 2 * pairs


class TestGroupingInvariance:
    @pytest.mark.parametrize("causal", [True, False])
    def test_bitwise_across_head_grouping(self, rng, monkeypatch, causal):
        """A head's out/lse/dq/dk/dv do not depend on which heads share
        its numpy calls: each head alone, all heads together, and any
        group budget in between agree bit for bit — what Ulysses and TP
        head sharding rely on."""
        for shape, blocks in (((2, 4, 37, 8), 8), ((1, 5, 200, 16), 128)):
            b, h, seq, d = shape
            q, k, v = _qkv(rng, b, h, seq, seq, d)
            dout = rng.standard_normal(q.shape).astype(np.float32)
            kwargs = dict(causal=causal, block_q=blocks, block_k=blocks)
            together = _fwd_bwd(q, k, v, dout, **kwargs)
            per_head = flash.tile_scratch_bytes(
                min(blocks, seq), min(blocks, seq), d)
            for budget in (1, 2 * per_head, 3 * per_head):
                with monkeypatch.context() as patch:
                    patch.setattr(flash, "GROUP_SCRATCH_BYTES", budget)
                    grouped = _fwd_bwd(q, k, v, dout, **kwargs)
                for a, g in zip(grouped, together):
                    assert np.array_equal(a, g), budget
            for bi in range(b):
                for hi in range(h):
                    one = (slice(bi, bi + 1), slice(hi, hi + 1))
                    alone = _fwd_bwd(q[one], k[one], v[one], dout[one],
                                     **kwargs)
                    for a, g in zip(alone, together):
                        assert np.array_equal(a, g[one]), (bi, hi)


class TestThreads:
    def test_concurrent_callers_have_private_scratch(self, rng):
        """The kernel runs on whichever thread calls it; two callers at
        once each use their own tile scratch, and both get the serial
        result bit for bit."""
        cases = []
        for _ in range(2):
            q, k, v = _qkv(rng, 1, 3, 56, 56, 8)
            dout = rng.standard_normal(q.shape).astype(np.float32)
            cases.append((q, k, v, dout))
        kwargs = dict(block_q=16, block_k=8)
        serial = [_fwd_bwd(*case, **kwargs) for case in cases]
        solo_bytes = flash.scratch_bytes_total()
        _in_thread(lambda: _fwd_bwd(*cases[0], **kwargs))
        solo_bytes = flash.scratch_bytes_total() - solo_bytes

        results = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait(timeout=30)
            for _ in range(20):
                results[i] = _fwd_bwd(*cases[i], **kwargs)

        before = flash.scratch_bytes_total()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for got, ref in zip(results, serial):
            for a, r in zip(got, ref):
                assert np.array_equal(a, r)
        # Each fresh thread allocated what a lone fresh thread does.
        assert flash.scratch_bytes_total() - before == 2 * solo_bytes


class TestMemoryFootprint:
    def test_scratch_stays_within_tile_bound(self, rng):
        """Tile scratch is O(group * block), not O(S): a fresh thread's
        first step allocates no more than the documented bound for its
        head group (far below any S x S plane), and re-running the same
        shapes allocates nothing."""
        seq, d, bq, bk, heads = 96, 8, 16, 16, 2
        q, k, v = _qkv(rng, 1, heads, seq, seq, d)
        dout = rng.standard_normal(q.shape).astype(np.float32)

        def steps():
            grown = []
            for _ in range(3):
                before = flash.scratch_bytes_total()
                _fwd_bwd(q, k, v, dout, block_q=bq, block_k=bk)
                grown.append(flash.scratch_bytes_total() - before)
            return grown

        first, *steady = _in_thread(steps)
        bound = flash.tile_scratch_bytes(bq, bk, d, group=heads)
        assert 0 < first <= bound
        assert steady == [0, 0]
        assert bound < seq * seq * 4

    def test_workspace_peak_is_linear_not_quadratic(self, rng):
        """A workspace-backed streaming attention holds O(B*H*S*d)
        bytes; the dense S x S planes for the same shape would dwarf it."""
        b, h, seq, d = 1, 4, 96, 8
        hidden = h * d
        ws = ActivationWorkspace()
        attn = MultiHeadAttention(h, block_q=16, block_k=16, workspace=ws)
        qkv = rng.standard_normal((b, seq, 3 * hidden)).astype(np.float32)
        out, cache = attn.forward(qkv)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        attn.backward(dout, cache)
        dense_scores = b * h * seq * seq * 4
        assert ws.peak_bytes < dense_scores


class TestBackendDispatch:
    """There is no dispatch left: one core, the dense oracle in
    :mod:`repro.reference`."""

    def test_no_backend_option(self):
        """One core: there is no attention backend to choose."""
        with pytest.raises(TypeError, match="backend"):
            MultiHeadAttention(2, backend="dense")

    def test_streaming_hidden_level_matches_dense(self, rng):
        qkv = rng.standard_normal((2, 21, 3 * 24)).astype(np.float32)
        dout = rng.standard_normal((2, 21, 24)).astype(np.float32)
        attn = MultiHeadAttention(4, block_q=8, block_k=8)
        got, cache = attn.forward(qkv)
        ref, dref = _dense_hidden(qkv, 4, dout)
        assert float(np.abs(got - ref).max()) <= FWD_TOL
        assert float(np.abs(attn.backward(dout, cache) - dref).max()) \
            <= BWD_TOL

    def test_dense_is_bitwise_stable_reference(self, rng):
        """The oracle itself: same call, same bits."""
        q, k, v = _qkv(rng, 2, 2, 11, 11, 4)
        a, cache_a = reference.dense_attention_forward(q, k, v, True)
        b_, cache_b = reference.dense_attention_forward(q, k, v, True)
        assert np.array_equal(a, b_)
        dout = rng.standard_normal(a.shape).astype(np.float32)
        for ga, gb in zip(
            reference.dense_attention_backward(dout, cache_a),
            reference.dense_attention_backward(dout, cache_b),
        ):
            assert np.array_equal(ga, gb)


class TestMaskHelpers:
    def test_causal_mask_memoized_and_readonly(self):
        m1 = reference.causal_mask(9, 9)
        assert m1 is reference.causal_mask(9, 9)
        assert not m1.flags.writeable
        assert m1[0, 1] and not m1[1, 0] and not m1[3, 3]

    def test_masked_fill_is_finite_and_underflows(self):
        for dtype in (np.float16, np.float32, np.float64):
            fill = reference.masked_fill_value(dtype)
            assert np.isfinite(fill)
            assert fill.dtype == np.dtype(dtype)
        # fp32: exp(fill - max) must be exactly zero, like the old -1e9
        fill = float(reference.masked_fill_value(np.float32))
        assert np.exp(np.float32(fill) - np.float32(10.0)) == 0.0


class TestUlyssesStreaming:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_sharded_streaming_matches_single_rank_dense(self, rng, world):
        """The Ulysses exchange with streaming per-rank cores reproduces
        single-rank dense attention to tolerance (and the single-rank
        streaming module bit for bit: a head's bits do not depend on
        which rank's call it rides in)."""
        b, seq, heads, d = 2, 16, 4, 6
        hidden = heads * d
        qkv = rng.standard_normal((b, seq, 3 * hidden)).astype(np.float32)
        dout = rng.standard_normal((b, seq, hidden)).astype(np.float32)
        ref, dref = _dense_hidden(qkv, heads, dout)
        single = MultiHeadAttention(heads, block_q=8, block_k=8)
        one, one_cache = single.forward(qkv)
        group = SimProcessGroup(world)
        ua = UlyssesAttention(heads, group, block_q=8, block_k=8)
        shard = seq // world
        shards = [qkv[:, r * shard : (r + 1) * shard] for r in range(world)]
        outs, caches = ua.forward(shards)
        got = np.concatenate(outs, axis=1)
        assert float(np.abs(got - ref).max()) <= FWD_TOL
        assert np.array_equal(got, one)
        dshards = [
            dout[:, r * shard : (r + 1) * shard] for r in range(world)
        ]
        dgot = np.concatenate(ua.backward(dshards, caches), axis=1)
        assert float(np.abs(dgot - dref).max()) <= BWD_TOL
        assert np.array_equal(dgot, single.backward(dout, one_cache))


class TestTransformerStreaming:
    def test_streaming_workspace_model_matches_dense(self, rng):
        """The production model step (streaming, workspace-backed) vs.
        the same model over the dense reference oracle."""
        spec = TransformerParams(
            vocab=64, max_seq=24, hidden=32, n_layers=2, n_heads=4
        )
        ids = rng.integers(0, spec.vocab, size=(2, 19))
        targets = rng.integers(0, spec.vocab, size=(2, 19))
        base = use_dense_reference(TinyTransformer(spec, seed=3))
        loss0, grads0 = base.loss_and_grads(ids, targets, loss_scale=4.0)
        model = TinyTransformer(
            spec, seed=3, workspace=ActivationWorkspace(),
            block_q=8, block_k=8,
        )
        loss1, grads1 = model.loss_and_grads(ids, targets, loss_scale=4.0)
        assert abs(loss1 - loss0) <= FWD_TOL
        assert set(grads1) == set(grads0)
        worst = max(
            float(np.abs(grads0[k] - grads1[k]).max()) for k in grads0
        )
        assert worst <= BWD_TOL

    @staticmethod
    def _assert_workspace_bitwise(rng, wrap):
        spec = TransformerParams(
            vocab=32, max_seq=16, hidden=16, n_layers=2, n_heads=2
        )
        ids = rng.integers(0, spec.vocab, size=(2, 13))
        targets = rng.integers(0, spec.vocab, size=(2, 13))
        base = wrap(TinyTransformer(spec, seed=5))
        loss0, grads0 = base.loss_and_grads(ids, targets, loss_scale=2.0)
        model = wrap(TinyTransformer(
            spec, seed=5, workspace=ActivationWorkspace()
        ))
        for _ in range(2):  # cold and warm workspace steps
            loss1, grads1 = model.loss_and_grads(ids, targets,
                                                 loss_scale=2.0)
            assert loss1 == loss0
            for key in grads0:
                assert np.array_equal(grads0[key], grads1[key]), key

    def test_workspace_model_is_bitwise(self, rng):
        """Workspace buffers change where activations live, not their
        bits: the workspace-backed model reproduces the plain one
        exactly, cold and warm."""
        self._assert_workspace_bitwise(rng, lambda model: model)

    def test_dense_workspace_model_is_bitwise(self, rng):
        """The same contract with the blocks over the dense oracle: it is
        the block code's, not the attention core's."""
        self._assert_workspace_bitwise(rng, use_dense_reference)
