"""Flash-style streaming blocked attention: never materialize ``S x S``.

The dense reference (:mod:`repro.numeric.attention`) computes the full
score and probability matrices — ``O(B*H*S^2)`` activation bytes, the
exact memory wall that caps sequence length on the Hopper side of the
superchip and that the Ulysses path (§4.7) exists to push past.  This
module streams the same attention in ``(block_q, block_k)`` tiles:

* **Forward** — online softmax.  Each query tile keeps a running row
  maximum ``m`` and denominator ``l``; every key tile rescales the
  accumulated context by ``exp(m_old - m_new)`` and adds its own
  ``exp(s - m_new) @ v`` contribution.  Only ``out`` (``B*H*S*d``) and
  the log-sum-exp vector ``lse = m + log(l)`` (``B*H*S``) survive the
  op — the per-tile scores live in per-thread scratch.
* **Backward** — tile recomputation from the ``(q, k, v, out, lse)``
  cache.  Probabilities are rebuilt per tile as ``exp(s - lse)`` (exact,
  because ``lse`` *is* the forward's softmax normalizer), so no
  probability matrix is ever stored.  Two conflict-free passes: one over
  query tiles for ``dq``, one over key tiles for ``dk``/``dv``.

Both directions fan the ``(batch, head, tile)`` grid out through a
:class:`~repro.exec.pool.KernelPool` — the same executor that runs the
optimizer's chunk kernels — with all temporaries in per-thread scratch.
Every output element is written by exactly one task and every in-task
reduction runs in a fixed order, so results are **bitwise identical
across worker counts**.  Against the dense reference the contract is
tolerance, not bits: the online softmax reorders the reduction, so
forward agrees to ~1e-6 in fp32 (tested at 1e-5) and gradients to
gradcheck-level tolerance.

Peak activation bytes for the op are ``O(B*H*S*d)`` for out/lse/cache
plus ``O(workers * block_q * (block_k + d))`` scratch —
:func:`tile_scratch_bytes` gives the per-thread bound the tests assert
against the telemetry/workspace counters.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro import tune
from repro.exec.pool import KernelPool, get_pool
from repro.tune.registry import default as _registry_default

#: Default tile sides.  128x128 fp32 score tiles are 64 KiB — small
#: enough that scores, probabilities, and the two accumulator rows stay
#: cache-resident through the exp/rescale passes, large enough that the
#: per-tile BLAS calls amortize their dispatch.  The authored values live
#: in the tunable registry (``flash.block_q`` / ``flash.block_k``);
#: :func:`resolve_blocks` applies a host profile's measured sides.
DEFAULT_BLOCK_Q = _registry_default("flash.block_q")
DEFAULT_BLOCK_K = _registry_default("flash.block_k")


def resolve_blocks(
    block_q: Optional[int] = None, block_k: Optional[int] = None
) -> Tuple[int, int]:
    """Effective tile sides: explicit arguments win, then the active
    tuning profile, then the defaults above.

    Unlike the elementwise tunables, block sides change the online-
    softmax reduction *order*, so two different resolutions agree only to
    fp32 tolerance (still bitwise deterministic across worker counts for
    a fixed resolution) — which is why callers resolve once at
    construction and pin the result for the model's lifetime.
    """
    if block_q is None:
        block_q = tune.value("flash.block_q", DEFAULT_BLOCK_Q)
    if block_k is None:
        block_k = tune.value("flash.block_k", DEFAULT_BLOCK_K)
    return block_q, block_k

# -- per-thread tile scratch -------------------------------------------

_tls = threading.local()
_scratch_lock = threading.Lock()
_scratch_bytes_total = 0


def _scratch(tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A persistent per-thread buffer for one named tile temporary.

    Keyed by ``(tag, shape, dtype)`` so tail tiles (a sequence length the
    block size does not divide) get their own handful of buffers; after
    the first pass over a given shape the hot loop allocates nothing.
    """
    global _scratch_bytes_total
    bufs = getattr(_tls, "bufs", None)
    if bufs is None:
        bufs = _tls.bufs = {}
    key = (tag, shape, np.dtype(dtype).str)
    buf = bufs.get(key)
    if buf is None:
        buf = bufs[key] = np.empty(shape, dtype=dtype)
        with _scratch_lock:
            _scratch_bytes_total += buf.nbytes
    return buf


def scratch_bytes_total() -> int:
    """Bytes of per-thread tile scratch ever allocated, process-wide.

    Monotonic (scratch is retained per thread); tests assert deltas stay
    zero across steady-state steps and bounded by
    :func:`tile_scratch_bytes` per worker overall.
    """
    return _scratch_bytes_total


def tile_scratch_bytes(
    block_q: int, block_k: int, dim: int, itemsize: int = 4
) -> int:
    """Upper bound on one thread's tile scratch for given block sizes.

    Two ``(block_q, block_k)`` tiles (scores and dprobs), two
    ``(block_q, dim)`` rows (accumulator and tile product), two
    ``(block_k, dim)`` rows (the dk/dv partials), and a handful of
    ``block_q`` vectors — the ``O(S * block)`` term of the acceptance
    bound.  Tail tiles can add at most one more copy of each.
    """
    full = (
        2 * block_q * block_k
        + 2 * block_q * dim
        + 2 * block_k * dim
        + 6 * block_q
    ) * itemsize
    return 2 * full  # full tiles + one set of tail-tile shapes


@lru_cache(maxsize=256)
def _tile_mask(bq: int, bk: int, diff: int) -> np.ndarray:
    """Read-only causal mask for a tile: ``True`` where key > query.

    ``diff = q0 - k0``; entry ``(i, j)`` is masked when the global key
    index ``k0 + j`` exceeds the global query index ``q0 + i``.
    """
    mask = np.arange(bk)[None, :] > (np.arange(bq)[:, None] + diff)
    mask.setflags(write=False)
    return mask


def _neg_fill(dtype) -> np.ndarray:
    """A finite, dtype-aware 'minus infinity' for masked scores.

    Half the dtype's most negative finite value: guaranteed to underflow
    to exactly zero probability after the softmax shift, with headroom so
    ``masked - row_max`` cannot overflow even in fp16.
    """
    return np.asarray(np.finfo(np.dtype(dtype)).min / 2, dtype=dtype)


class FlashCache(NamedTuple):
    """Backward inputs saved by the streaming forward (no probabilities)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    out: np.ndarray
    lse: np.ndarray
    causal: bool
    block_q: int
    block_k: int


# -- forward ------------------------------------------------------------


def _forward_tile(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    out: np.ndarray,
    lse: np.ndarray,
    b: int,
    h: int,
    q0: int,
    q1: int,
    causal: bool,
    block_k: int,
) -> None:
    """Online-softmax attention for queries ``[q0, q1)`` of one head."""
    dim = q.shape[-1]
    seq_k = k.shape[2]
    dtype = q.dtype
    scale = np.asarray(1.0 / math.sqrt(dim), dtype=dtype)
    neg = _neg_fill(dtype)
    bq = q1 - q0
    qs = q[b, h, q0:q1]
    m = _scratch("m", (bq,), dtype)
    m.fill(-np.inf)
    l = _scratch("l", (bq,), dtype)
    l.fill(0.0)
    acc = _scratch("acc", (bq, dim), dtype)
    acc.fill(0.0)
    m_new = _scratch("m_new", (bq,), dtype)
    alpha = _scratch("alpha", (bq,), dtype)
    rowsum = _scratch("rowsum", (bq,), dtype)
    # Causal rows q0..q1-1 see keys up to q1-1; later key tiles are
    # entirely masked and never visited.
    kmax = min(seq_k, q1) if causal else seq_k
    for k0 in range(0, kmax, block_k):
        k1 = min(k0 + block_k, kmax)
        bk = k1 - k0
        s = _scratch("s", (bq, bk), dtype)
        np.matmul(qs, k[b, h, k0:k1].T, out=s)
        s *= scale
        if causal and k1 > q0 + 1:  # tile crosses the diagonal
            np.copyto(s, neg, where=_tile_mask(bq, bk, q0 - k0))
        np.max(s, axis=1, out=m_new)
        np.maximum(m, m_new, out=m_new)
        # p = exp(s - m_new), in place
        s -= m_new[:, None]
        np.exp(s, out=s)
        # rescale previous running sums by exp(m - m_new)
        np.subtract(m, m_new, out=alpha)
        np.exp(alpha, out=alpha)
        l *= alpha
        np.sum(s, axis=1, out=rowsum)
        l += rowsum
        acc *= alpha[:, None]
        pv = _scratch("pv", (bq, dim), dtype)
        np.matmul(s, v[b, h, k0:k1], out=pv)
        acc += pv
        m[...] = m_new
    np.divide(acc, l[:, None], out=out[b, h, q0:q1])
    np.log(l, out=l)
    np.add(l, m, out=lse[b, h, q0:q1])


def streaming_attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    causal: bool = True,
    block_q: Optional[int] = None,
    block_k: Optional[int] = None,
    pool: Optional[KernelPool] = None,
    out: Optional[np.ndarray] = None,
    lse: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, FlashCache]:
    """Blocked attention over ``(batch, heads, seq, dim)`` inputs.

    Args:
        q, k, v: contiguous per-head projections (same shape; ``k``/``v``
            may carry a different ``seq`` for cross-attention shapes).
        causal: mask keys beyond each query's position.
        block_q, block_k: tile sides (need not divide the sequence);
            ``None`` resolves through :func:`resolve_blocks`.
        pool: kernel pool for the ``(batch, head, q_tile)`` fan-out;
            ``None`` means the shared multi-worker process-default pool
            (as everywhere in :mod:`repro.exec`), not the calling
            thread — pass ``KernelPool(1)`` to pin the tiles, and their
            per-thread scratch, to one thread.
        out, lse: optional pre-allocated outputs (the workspace path).

    Returns:
        ``(out, cache)`` where cache feeds
        :func:`streaming_attention_backward`.
    """
    if q.ndim != 4:
        raise ValueError(f"expected (b, h, s, d) inputs, got {q.shape}")
    block_q, block_k = resolve_blocks(block_q, block_k)
    if block_q < 1 or block_k < 1:
        raise ValueError("block sizes must be positive")
    if causal and q.shape[2] > k.shape[2]:
        raise ValueError(
            "causal attention requires seq_q <= seq_k "
            f"(got {q.shape[2]} > {k.shape[2]})"
        )
    q = np.ascontiguousarray(q)
    k = np.ascontiguousarray(k)
    v = np.ascontiguousarray(v)
    bsz, heads, seq_q, _ = q.shape
    if out is None:
        out = np.empty_like(q)
    if lse is None:
        lse = np.empty(q.shape[:3], dtype=q.dtype)
    pool = pool if pool is not None else get_pool()
    tasks = [
        (b, h, q0, min(q0 + block_q, seq_q))
        for b in range(bsz)
        for h in range(heads)
        for q0 in range(0, seq_q, block_q)
    ]
    if pool.workers <= 1 or len(tasks) == 1:
        for b, h, q0, q1 in tasks:
            _forward_tile(q, k, v, out, lse, b, h, q0, q1, causal, block_k)
    else:
        pool.wait_all([
            pool.submit(_forward_tile, q, k, v, out, lse, b, h, q0, q1,
                        causal, block_k)
            for b, h, q0, q1 in tasks
        ])
    return out, FlashCache(q, k, v, out, lse, causal, block_q, block_k)


# -- backward -----------------------------------------------------------


def _recompute_probs(
    s: np.ndarray,
    qs: np.ndarray,
    k: np.ndarray,
    lses: np.ndarray,
    b: int,
    h: int,
    k0: int,
    k1: int,
    q0: int,
    scale: np.ndarray,
    neg: np.ndarray,
    causal: bool,
) -> None:
    """Rebuild one probability tile in ``s`` from the (q, k, lse) cache."""
    np.matmul(qs, k[b, h, k0:k1].T, out=s)
    s *= scale
    if causal and k1 > q0 + 1:
        np.copyto(s, neg, where=_tile_mask(s.shape[0], k1 - k0, q0 - k0))
    s -= lses[:, None]
    np.exp(s, out=s)


def _backward_dq_tile(
    dout: np.ndarray,
    cache: FlashCache,
    dq: np.ndarray,
    b: int,
    h: int,
    q0: int,
    q1: int,
) -> None:
    """``dq`` rows ``[q0, q1)`` of one head, accumulated over key tiles."""
    q, k, v, out, lse, causal, _, block_k = cache
    dim = q.shape[-1]
    seq_k = k.shape[2]
    dtype = q.dtype
    scale = np.asarray(1.0 / math.sqrt(dim), dtype=dtype)
    neg = _neg_fill(dtype)
    bq = q1 - q0
    qs = q[b, h, q0:q1]
    douts = dout[b, h, q0:q1]
    lses = lse[b, h, q0:q1]
    # D_i = dout_i . out_i  (= sum_j dP_ij P_ij, the softmax-backward
    # row term, recovered without the probability matrix)
    drow = _scratch("drow", (bq, dim), dtype)
    np.multiply(douts, out[b, h, q0:q1], out=drow)
    dvec = _scratch("dvec", (bq,), dtype)
    np.sum(drow, axis=1, out=dvec)
    dqs = _scratch("dqs", (bq, dim), dtype)
    dqs.fill(0.0)
    kmax = min(seq_k, q1) if causal else seq_k
    for k0 in range(0, kmax, block_k):
        k1 = min(k0 + block_k, kmax)
        bk = k1 - k0
        s = _scratch("s", (bq, bk), dtype)
        _recompute_probs(s, qs, k, lses, b, h, k0, k1, q0, scale, neg,
                         causal)
        dp = _scratch("dp", (bq, bk), dtype)
        np.matmul(douts, v[b, h, k0:k1].T, out=dp)
        dp -= dvec[:, None]
        s *= dp  # ds = P * (dP - D)
        np.matmul(s, k[b, h, k0:k1], out=drow)
        dqs += drow
    dqs *= scale
    dq[b, h, q0:q1] = dqs


def _backward_dkv_tile(
    dout: np.ndarray,
    cache: FlashCache,
    dk: np.ndarray,
    dv: np.ndarray,
    b: int,
    h: int,
    k0: int,
    k1: int,
) -> None:
    """``dk``/``dv`` rows ``[k0, k1)`` of one head, over query tiles."""
    q, k, v, out, lse, causal, block_q, _ = cache
    dim = q.shape[-1]
    seq_q = q.shape[2]
    dtype = q.dtype
    scale = np.asarray(1.0 / math.sqrt(dim), dtype=dtype)
    neg = _neg_fill(dtype)
    bk = k1 - k0
    dks = _scratch("dks", (bk, dim), dtype)
    dks.fill(0.0)
    dvs = _scratch("dvs", (bk, dim), dtype)
    dvs.fill(0.0)
    part = _scratch("part", (bk, dim), dtype)
    # Causal: queries before k0 never see these keys.
    qstart = (k0 // block_q) * block_q if causal else 0
    for q0 in range(qstart, seq_q, block_q):
        q1 = min(q0 + block_q, seq_q)
        bq = q1 - q0
        qs = q[b, h, q0:q1]
        douts = dout[b, h, q0:q1]
        s = _scratch("s", (bq, bk), dtype)
        _recompute_probs(s, qs, k, lse[b, h, q0:q1], b, h, k0, k1, q0,
                         scale, neg, causal)
        np.matmul(s.T, douts, out=part)
        dvs += part
        drow = _scratch("drow", (bq, dim), dtype)
        np.multiply(douts, out[b, h, q0:q1], out=drow)
        dvec = _scratch("dvec", (bq,), dtype)
        np.sum(drow, axis=1, out=dvec)
        dp = _scratch("dp", (bq, bk), dtype)
        np.matmul(douts, v[b, h, k0:k1].T, out=dp)
        dp -= dvec[:, None]
        s *= dp
        np.matmul(s.T, qs, out=part)
        dks += part
    dks *= scale
    dk[b, h, k0:k1] = dks
    dv[b, h, k0:k1] = dvs


def streaming_attention_backward(
    dout: np.ndarray,
    cache: FlashCache,
    pool: Optional[KernelPool] = None,
    dq: Optional[np.ndarray] = None,
    dk: Optional[np.ndarray] = None,
    dv: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. ``q``, ``k``, ``v`` by tile recomputation.

    Two pool passes — query tiles for ``dq``, key tiles for ``dk``/``dv``
    — so every output row has exactly one writer and no pass ever holds
    more than per-thread tile scratch.
    """
    q, k, _v, _out, _lse, _causal, block_q, block_k = cache
    dout = np.ascontiguousarray(dout)
    bsz, heads, seq_q, _ = q.shape
    seq_k = k.shape[2]
    if dq is None:
        dq = np.empty_like(q)
    if dk is None:
        dk = np.empty_like(k)
    if dv is None:
        dv = np.empty_like(_v)
    pool = pool if pool is not None else get_pool()
    q_tasks = [
        (b, h, q0, min(q0 + block_q, seq_q))
        for b in range(bsz)
        for h in range(heads)
        for q0 in range(0, seq_q, block_q)
    ]
    k_tasks = [
        (b, h, k0, min(k0 + block_k, seq_k))
        for b in range(bsz)
        for h in range(heads)
        for k0 in range(0, seq_k, block_k)
    ]
    if pool.workers <= 1:
        for b, h, q0, q1 in q_tasks:
            _backward_dq_tile(dout, cache, dq, b, h, q0, q1)
        for b, h, k0, k1 in k_tasks:
            _backward_dkv_tile(dout, cache, dk, dv, b, h, k0, k1)
    else:
        futures = [
            pool.submit(_backward_dq_tile, dout, cache, dq, b, h, q0, q1)
            for b, h, q0, q1 in q_tasks
        ]
        futures += [
            pool.submit(_backward_dkv_tile, dout, cache, dk, dv,
                        b, h, k0, k1)
            for b, h, k0, k1 in k_tasks
        ]
        pool.wait_all(futures)
    return dq, dk, dv
