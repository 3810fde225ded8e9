"""Causal multi-head self-attention with explicit backward.

Exposes head-level entry points (:meth:`MultiHeadAttention.attend` /
``attend_backward``, plus the static dense reference ``core_forward`` /
``core_backward``) so the Ulysses sequence-parallel implementation can
run the identical attention math on all-to-all-exchanged shards and be
tested for equivalence against the single-rank path (§4.7).

Two backends:

* ``"dense"`` — the bitwise-stable reference: materializes the full
  score matrix, with the causal mask memoized per shape and the backward
  recomputing probabilities from ``(q, k)`` instead of retaining the
  ``S x S`` probability matrix across forward -> backward (identical
  bits, half the held activation bytes).
* ``"streaming"`` — :mod:`repro.numeric.flash`: blocked online-softmax
  forward and one-pass tile-recompute backward that never materialize
  ``S x S``, on the calling thread.  Tolerance-equal to dense (the
  online softmax reorders reductions); a head's bits do not depend on
  which heads share the call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.numeric import flash
from repro.numeric.layers import softmax
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Backends :class:`MultiHeadAttention` can route the core through.
BACKENDS = ("dense", "streaming")


@lru_cache(maxsize=64)
def causal_mask(seq_q: int, seq_k: int) -> np.ndarray:
    """The memoized upper-triangular causal mask (read-only).

    The dense path previously rebuilt this ``S x S`` bool array on every
    call; attention shapes repeat every layer and every step, so one
    cached copy per ``(seq_q, seq_k)`` serves the whole run.
    """
    mask = np.triu(np.ones((seq_q, seq_k), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def masked_fill_value(dtype) -> np.ndarray:
    """Finite, dtype-aware score fill for masked positions.

    Half the most negative finite value of ``dtype``: underflows to
    exactly zero probability after the softmax shift (same bits as the
    historical ``-1e9`` fill in fp32) without overflowing narrower
    dtypes — fp16's finite range ends at 65504, where ``-1e9`` is
    already infinite.
    """
    return np.asarray(np.finfo(np.dtype(dtype)).min / 2, dtype=dtype)


def _dense_probs(
    q: np.ndarray, k: np.ndarray, causal: bool
) -> np.ndarray:
    """The full probability matrix — shared by forward and the backward
    recomputation, so both produce identical bits."""
    dim = q.shape[-1]
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dim)
    if causal:
        seq_q, seq_k = scores.shape[-2], scores.shape[-1]
        scores = np.where(
            causal_mask(seq_q, seq_k),
            masked_fill_value(scores.dtype),
            scores,
        )
    return softmax(scores, axis=-1)


class MultiHeadAttention:
    """Functional causal attention for ``(batch, seq, hidden)`` inputs.

    Args:
        n_heads: number of attention heads; must divide the hidden size.
        backend: ``"dense"`` (reference) or ``"streaming"`` (blocked
            online-softmax, see :mod:`repro.numeric.flash`).
        block_q, block_k: streaming tile sides (ignored for dense);
            ``None`` resolves the host-tuned values via
            :func:`repro.numeric.flash.resolve_blocks` at construction,
            pinning them for the module's lifetime.
        workspace: optional
            :class:`~repro.tensors.workspace.ActivationWorkspace` backing
            the streaming outputs, head merges, and qkv gradients.
        telemetry: sink for the cache-byte counters (no-op by default).
    """

    def __init__(
        self,
        n_heads: int,
        backend: str = "dense",
        block_q: int | None = None,
        block_k: int | None = None,
        workspace=None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        if n_heads < 1:
            raise ValueError("n_heads must be positive")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown attention backend {backend!r}; one of {BACKENDS}"
            )
        self.n_heads = n_heads
        self.backend = backend
        self.block_q, self.block_k = flash.resolve_blocks(block_q, block_k)
        self.workspace = workspace
        self.telemetry = telemetry

    # -- head-level core (shared with Ulysses) ------------------------------

    @staticmethod
    def core_forward(
        q: np.ndarray, k: np.ndarray, v: np.ndarray, causal: bool = True
    ) -> Tuple[np.ndarray, Tuple]:
        """Dense scaled dot-product attention over ``(b, heads, s, d)``.

        The bitwise-stable reference path.  The cache holds only
        ``(q, k, v, causal)`` — the probability matrix is *recomputed*
        in :meth:`core_backward` with the identical operations, so the
        ``S x S`` array is transient in each direction instead of
        retained from forward to backward.
        """
        probs = _dense_probs(q, k, causal)
        context = probs @ v
        return context, (q, k, v, causal)

    @staticmethod
    def core_backward(
        dcontext: np.ndarray, cache: Tuple
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense gradients w.r.t. q, k, v (probabilities recomputed)."""
        q, k, v, causal = cache
        dim = q.shape[-1]
        probs = _dense_probs(q, k, causal)
        dv = probs.transpose(0, 1, 3, 2) @ dcontext
        dprobs = dcontext @ v.transpose(0, 1, 3, 2)
        # softmax backward: dS = P * (dP - sum(dP * P))
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        dscores = dscores / math.sqrt(dim)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q
        return dq, dk, dv

    # -- backend dispatch ---------------------------------------------------

    def attend(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
        causal: bool = True,
    ) -> Tuple[np.ndarray, Tuple]:
        """Backend-routed head-level attention; returns (context, cache)."""
        if self.backend == "streaming":
            ws = self.workspace
            out = lse = None
            if ws is not None:
                # q/k/v arrive as non-contiguous split_heads views; the
                # streaming kernels need contiguous rows, so land the
                # copies (part of the O(B*H*S*d) cache) in the workspace.
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
            self._meter_cache(cache)
            return context, cache
        context, cache = self.core_forward(q, k, v, causal)
        self._meter_cache(cache)
        return context, cache

    def attend_backward(
        self, dcontext: np.ndarray, cache: Tuple
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backend-routed head-level backward; gradients w.r.t. q, k, v."""
        if isinstance(cache, flash.FlashCache):
            ws = self.workspace
            dq = dk = dv = None
            if ws is not None:
                dq = ws.take(cache.q.shape, cache.q.dtype)
                dk = ws.take(cache.k.shape, cache.k.dtype)
                dv = ws.take(cache.v.shape, cache.v.dtype)
            return flash.streaming_attention_backward(
                dcontext, cache, dq=dq, dk=dk, dv=dv
            )
        return self.core_backward(dcontext, cache)

    def _contiguous(self, x: np.ndarray) -> np.ndarray:
        """A contiguous copy in the workspace (or ``x`` if already so)."""
        if x.flags.c_contiguous:
            return x
        buf = self.workspace.take(x.shape, x.dtype)
        np.copyto(buf, x)
        return buf

    def _meter_cache(self, cache) -> None:
        """Record backward-cache bytes so ``workspace_peak_bytes`` plus
        this counter covers the step's retained activation footprint."""
        metrics = self.telemetry.metrics
        if isinstance(cache, flash.FlashCache):
            nbytes = sum(
                a.nbytes for a in (cache.q, cache.k, cache.v, cache.out,
                                   cache.lse)
            )
            metrics.counter(
                "attention_cache_bytes", backend="streaming").inc(nbytes)
        else:
            q, k, v, _causal = cache
            metrics.counter(
                "attention_cache_bytes", backend="dense"
            ).inc(q.nbytes + k.nbytes + v.nbytes)

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
    ) -> Tuple[np.ndarray, Tuple]:
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

    def backward(self, dout: np.ndarray, cache: Tuple) -> np.ndarray:
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
