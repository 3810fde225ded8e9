"""Causal multi-head self-attention with explicit backward.

Exposes head-level entry points (:meth:`MultiHeadAttention.attend` /
``attend_backward``) so the Ulysses sequence-parallel implementation can
run the identical attention math on all-to-all-exchanged shards and be
tested for equivalence against the single-rank path (§4.7).

One core: :mod:`repro.numeric.flash` — blocked online-softmax forward
and one-pass tile-recompute backward that never materialize ``S x S``,
on the calling thread.  A head's bits do not depend on which heads share
the call, so head sharding (Ulysses, TP) is bitwise.  The dense
``S x S`` computation it replaced is the tolerance oracle in
:mod:`repro.reference` (the online softmax reorders reductions).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.numeric import flash
from repro.telemetry import NULL_TELEMETRY, Telemetry


class MultiHeadAttention:
    """Functional causal attention for ``(batch, seq, hidden)`` inputs.

    Args:
        n_heads: number of attention heads; must divide the hidden size.
        block_q, block_k: streaming tile sides; ``None`` resolves the
            host-tuned values via :func:`repro.numeric.flash.resolve_blocks`
            at construction, pinning them for the module's lifetime.
        workspace: optional
            :class:`~repro.tensors.workspace.ActivationWorkspace` backing
            the contiguous head copies, outputs, head merges, and qkv
            gradients.
        telemetry: sink for the cache-byte counter (no-op by default).
    """

    def __init__(
        self,
        n_heads: int,
        block_q: int | None = None,
        block_k: int | None = None,
        workspace=None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        if n_heads < 1:
            raise ValueError("n_heads must be positive")
        self.n_heads = n_heads
        self.block_q, self.block_k = flash.resolve_blocks(block_q, block_k)
        self.workspace = workspace
        self.telemetry = telemetry

    # -- head-level core (shared with Ulysses) ------------------------------

    def attend(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
        causal: bool = True,
    ) -> Tuple[np.ndarray, flash.FlashCache]:
        """Head-level attention over ``(b, heads, s, d)``; returns
        (context, cache)."""
        ws = self.workspace
        out = lse = None
        if ws is not None:
            # q/k/v arrive as non-contiguous split_heads views; the
            # streaming kernels need contiguous rows, so land the copies
            # (part of the O(B*H*S*d) cache) in the workspace.
            q = self._contiguous(q)
            k = self._contiguous(k)
            v = self._contiguous(v)
            out = ws.take(q.shape, q.dtype)
            lse = ws.take(q.shape[:3], q.dtype)
        context, cache = flash.streaming_attention_forward(
            q, k, v, causal=causal,
            block_q=self.block_q, block_k=self.block_k,
            out=out, lse=lse,
        )
        # Backward-cache bytes, so ``workspace_peak_bytes`` plus this
        # counter covers the step's retained activation footprint.
        self.telemetry.metrics.counter("attention_cache_bytes").inc(
            sum(a.nbytes for a in cache[:5])
        )
        return context, cache

    def attend_backward(
        self, dcontext: np.ndarray, cache: flash.FlashCache
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Head-level backward; gradients w.r.t. q, k, v."""
        ws = self.workspace
        dq = dk = dv = None
        if ws is not None:
            dq = ws.take(cache.q.shape, cache.q.dtype)
            dk = ws.take(cache.k.shape, cache.k.dtype)
            dv = ws.take(cache.v.shape, cache.v.dtype)
        return flash.streaming_attention_backward(
            dcontext, cache, dq=dq, dk=dk, dv=dv
        )

    def _contiguous(self, x: np.ndarray) -> np.ndarray:
        """A contiguous copy in the workspace (or ``x`` if already so)."""
        if x.flags.c_contiguous:
            return x
        buf = self.workspace.take(x.shape, x.dtype)
        np.copyto(buf, x)
        return buf

    # -- hidden-level wrappers ----------------------------------------------

    def split_heads(self, x: np.ndarray) -> np.ndarray:
        """``(b, s, h) -> (b, heads, s, h/heads)``."""
        b, s, h = x.shape
        if h % self.n_heads:
            raise ValueError(f"hidden {h} not divisible by {self.n_heads} heads")
        return x.reshape(b, s, self.n_heads, h // self.n_heads).transpose(0, 2, 1, 3)

    def merge_heads(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(b, heads, s, d) -> (b, s, heads*d)``."""
        b, n, s, d = x.shape
        if out is None:
            return x.transpose(0, 2, 1, 3).reshape(b, s, n * d)
        np.copyto(out.reshape(b, s, n, d), x.transpose(0, 2, 1, 3))
        return out

    def forward(
        self, qkv: np.ndarray, causal: bool = True
    ) -> Tuple[np.ndarray, flash.FlashCache]:
        """Attention over a fused ``(b, s, 3h)`` qkv projection output."""
        h = qkv.shape[-1] // 3
        q = self.split_heads(qkv[..., :h])
        k = self.split_heads(qkv[..., h : 2 * h])
        v = self.split_heads(qkv[..., 2 * h :])
        context, cache = self.attend(q, k, v, causal)
        ws = self.workspace
        if ws is None:
            return self.merge_heads(context), cache
        b, n, s, d = context.shape
        merged = self.merge_heads(context, out=ws.take((b, s, n * d),
                                                       context.dtype))
        return merged, cache

    def backward(
        self, dout: np.ndarray, cache: flash.FlashCache
    ) -> np.ndarray:
        """Gradient w.r.t. the fused qkv input."""
        dcontext = self.split_heads(dout)
        dq, dk, dv = self.attend_backward(dcontext, cache)
        ws = self.workspace
        if ws is None:
            return np.concatenate(
                [self.merge_heads(dq), self.merge_heads(dk),
                 self.merge_heads(dv)],
                axis=-1,
            )
        b, n, s, d = dq.shape
        h = n * d
        dqkv = ws.take((b, s, 3 * h), dq.dtype)
        self.merge_heads(dq, out=dqkv[..., :h])
        self.merge_heads(dk, out=dqkv[..., h : 2 * h])
        self.merge_heads(dv, out=dqkv[..., 2 * h :])
        for grad in (dq, dk, dv):
            ws.give(grad)
        return dqkv
