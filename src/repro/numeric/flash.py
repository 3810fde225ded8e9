"""Flash-style streaming blocked attention: never materialize ``S x S``.

The dense oracle (:func:`repro.reference.dense_attention_forward`)
computes the full score and probability matrices — ``O(B*H*S^2)`` activation bytes, the
exact memory wall that caps sequence length on the Hopper side of the
superchip and that the Ulysses path (§4.7) exists to push past.  This
module streams the same attention in ``(block_q, block_k)`` tiles, each
(query-tile, key-tile) pair visited **once per direction**:

* **Forward** — online softmax.  Each query tile keeps a running row
  maximum ``m`` and denominator ``l``; every key tile rescales the
  accumulated context by ``exp(m_old - m_new)`` and adds its own
  ``exp(s - m_new) @ v`` contribution.  Only ``out`` (``B*H*S*d``) and
  the log-sum-exp vector ``lse = m + log(l)`` (``B*H*S``) survive the op.
* **Backward** — one pass of tile recomputation from the
  ``(q, k, v, out, lse)`` cache.  A pair's probabilities are rebuilt as
  ``exp(s - lse)`` (exact: ``lse`` *is* the forward's normalizer) and
  feed all three gradients before the tile is dropped: ``dq`` for the
  query tile accumulates in scratch and is written once, ``dk``/``dv``
  accumulate into their (zeroed) output planes in ascending query-tile
  order.  ``D = rowsum(dO * O)`` is taken once per query tile.

Score tiles are held **keys x queries**: the online-softmax row max/sum
then reduce over the strided axis (whole rows combined elementwise, ~3x
faster than numpy's contiguous-axis reduction at 128x128), the per-row
vectors broadcast along the contiguous axis, and ``dk``/``dv`` are plain
products of the tile.  ``1/sqrt(d)`` is folded into the ``(block_q, d)``
query tile once, not into every score tile.

The ``batch*head`` axis rides through every numpy call as a leading
stack axis, in groups of as many heads as fit
:data:`GROUP_SCRATCH_BYTES` of tile scratch.  Stacked ``matmul`` issues
the same per-head GEMM, elementwise ops are per element, and every
reduction runs over a fixed axis in a fixed order, so a head's result is
**bitwise independent of which heads share its call** — the property
head sharding (Ulysses, TP) relies on.  Everything runs on the calling
thread: a tile op is a ~10 us numpy call, far below the span at which
Python threads repay their hand-off (DESIGN §8).  Against the dense
reference the contract is tolerance, not bits: the online softmax
reorders the reduction, so forward agrees to ~1e-6 in fp32 (tested at
1e-5) and gradients to gradcheck-level tolerance.

Peak activation bytes for the op are ``O(B*H*S*d)`` for out/lse/cache
plus the calling thread's tile scratch, bounded by
:func:`tile_scratch_bytes` for the group.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from repro import tune
from repro.tune.registry import default as _registry_default

#: Default tile sides.  128x128 fp32 score tiles are 64 KiB — small
#: enough that scores, probabilities, and the two accumulator rows stay
#: cache-resident through the exp/rescale passes, large enough that the
#: per-tile BLAS calls amortize their dispatch.  The authored values live
#: in the tunable registry (``flash.block_q`` / ``flash.block_k``);
#: :func:`resolve_blocks` applies a host profile's measured sides.
DEFAULT_BLOCK_Q = _registry_default("flash.block_q")
DEFAULT_BLOCK_K = _registry_default("flash.block_k")

#: Tile-scratch budget that sizes a head group.  Stacking heads divides
#: numpy's per-call overhead (measured 1.25x from 1 to 4 heads at 128x128
#: tiles) until the stack outgrows L2; 1 MiB holds 6 default fp32 tiles.
GROUP_SCRATCH_BYTES = 1 << 20


def resolve_blocks(
    block_q: Optional[int] = None, block_k: Optional[int] = None
) -> Tuple[int, int]:
    """Effective tile sides: explicit arguments win, then the active
    tuning profile, then the defaults above.

    Unlike the elementwise tunables, block sides change the online-
    softmax reduction *order*, so two different resolutions agree only to
    fp32 tolerance (still bitwise deterministic for a fixed resolution)
    — which is why callers resolve once at construction and pin the
    result for the model's lifetime.
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
    """A contiguous ``shape`` view of this thread's buffer for one named
    tile temporary.

    One flat buffer per ``(tag, dtype)``, grown to the largest tile seen,
    so tail tiles and short causal tiles reuse the full tile's bytes and
    the hot loop allocates nothing after the first pass.
    """
    global _scratch_bytes_total
    bufs = getattr(_tls, "bufs", None)
    if bufs is None:
        bufs = _tls.bufs = {}
    key = (tag, np.dtype(dtype).str)
    size = math.prod(shape)
    buf = bufs.get(key)
    if buf is None or buf.size < size:
        held = 0 if buf is None else buf.nbytes
        buf = bufs[key] = np.empty(size, dtype=dtype)
        with _scratch_lock:
            _scratch_bytes_total += buf.nbytes - held
    return buf[:size].reshape(shape)


def scratch_bytes_total() -> int:
    """Bytes of tile scratch held, summed over every thread that has
    called in.

    Monotonic (scratch is retained per thread); tests assert deltas stay
    zero across steady-state steps and within :func:`tile_scratch_bytes`
    for a thread's first call.
    """
    return _scratch_bytes_total


def tile_scratch_bytes(
    block_q: int, block_k: int, dim: int, itemsize: int = 4, group: int = 1
) -> int:
    """Upper bound on one thread's tile scratch for a ``group``-head stack.

    Per head: two ``(block_k, block_q)`` tiles (probabilities and
    dprobs), three ``(block_q, dim)`` rows (scaled queries, accumulator,
    tile product), one ``(block_k, dim)`` row (the dk/dv partial) and
    five ``block_q`` vectors.
    """
    per_head = (
        2 * block_q * block_k + 3 * block_q * dim + block_k * dim
        + 5 * block_q
    )
    return group * per_head * itemsize


def group_size(n: int, bq: int, bk: int, dim: int, itemsize: int = 4) -> int:
    """Heads per numpy call for ``n`` stacked heads and ``(bq, bk)``
    tiles: as many as fit the scratch budget, at least one."""
    per_head = tile_scratch_bytes(bq, bk, dim, itemsize)
    return max(1, min(n, GROUP_SCRATCH_BYTES // per_head))


@lru_cache(maxsize=256)
def _tile_mask(bk: int, bq: int, diff: int) -> np.ndarray:
    """Read-only causal mask for a keys x queries tile: ``True`` where
    key > query.

    ``diff = q0 - k0``; entry ``(j, i)`` is masked when the global key
    index ``k0 + j`` exceeds the global query index ``q0 + i``.
    """
    mask = np.arange(bk)[:, None] > (np.arange(bq)[None, :] + diff)
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


# -- the tile walk both directions share ---------------------------------


def _stack(x: np.ndarray, name: str) -> np.ndarray:
    """``(b, h, ...) -> (b*h, ...)`` as a view, never a silent copy."""
    if not x.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    return x.reshape((-1,) + x.shape[2:])


def _query_tiles(
    q: np.ndarray, seq_k: int, block_q: int, block_k: int
) -> Iterator[Tuple[slice, slice, int, np.ndarray]]:
    """Yield ``(heads, rows, q0, qs)`` per (head group, query tile) of the
    stacked ``q``, where ``qs`` is the tile scaled by ``1/sqrt(d)``."""
    n, seq_q, dim = q.shape
    scale = np.asarray(1.0 / math.sqrt(dim), dtype=q.dtype)
    group = group_size(n, min(block_q, seq_q), min(block_k, seq_k), dim,
                       q.dtype.itemsize)
    for g0 in range(0, n, group):
        heads = slice(g0, min(g0 + group, n))
        for q0 in range(0, seq_q, block_q):
            rows = slice(q0, min(q0 + block_q, seq_q))
            tile = q[heads, rows]
            qs = _scratch("qs", tile.shape, q.dtype)
            np.multiply(tile, scale, out=qs)
            yield heads, rows, q0, qs


def _key_tiles(rows: slice, seq_k: int, block_k: int, causal: bool):
    """Key-tile slices a query tile attends to.  Causal rows
    ``q0..q1-1`` see keys up to ``q1-1``; later tiles are entirely masked
    and never visited."""
    kmax = min(seq_k, rows.stop) if causal else seq_k
    return [slice(k0, min(k0 + block_k, kmax))
            for k0 in range(0, kmax, block_k)]


def _score_tile(
    ks: np.ndarray, qs: np.ndarray, cols: slice, q0: int, causal: bool
) -> np.ndarray:
    """Scaled, masked scores of one pair, keys x queries, in scratch."""
    s = _scratch("s", ks.shape[:2] + qs.shape[1:2], qs.dtype)
    np.matmul(ks, qs.transpose(0, 2, 1), out=s)
    if causal and cols.stop > q0 + 1:  # tile crosses the diagonal
        mask = _tile_mask(s.shape[1], s.shape[2], q0 - cols.start)
        np.copyto(s, _neg_fill(s.dtype), where=mask)
    return s


# -- forward ------------------------------------------------------------


def streaming_attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    causal: bool = True,
    block_q: Optional[int] = None,
    block_k: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    lse: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, FlashCache]:
    """Blocked attention over ``(batch, heads, seq, dim)`` inputs.

    Args:
        q, k, v: per-head projections (same shape; ``k``/``v`` may carry
            a different ``seq`` for cross-attention shapes).
        causal: mask keys beyond each query's position.
        block_q, block_k: tile sides (need not divide the sequence);
            ``None`` resolves through :func:`resolve_blocks`.
        out, lse: optional pre-allocated contiguous outputs (the
            workspace path).

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
    if out is None:
        out = np.empty_like(q)
    if lse is None:
        lse = np.empty(q.shape[:3], dtype=q.dtype)
    k3, v3 = _stack(k, "k"), _stack(v, "v")
    out3, lse2 = _stack(out, "out"), _stack(lse, "lse")
    seq_k, dtype = k.shape[2], q.dtype
    for heads, rows, q0, qs in _query_tiles(
        _stack(q, "q"), seq_k, block_q, block_k
    ):
        vec = qs.shape[:2]
        m = _scratch("m", vec, dtype)
        m.fill(-np.inf)
        l = _scratch("l", vec, dtype)
        l.fill(0.0)
        acc = _scratch("acc", qs.shape, dtype)
        acc.fill(0.0)
        m_new = _scratch("m_new", vec, dtype)
        alpha = _scratch("alpha", vec, dtype)
        colsum = _scratch("colsum", vec, dtype)
        pv = _scratch("pv", qs.shape, dtype)
        for cols in _key_tiles(rows, seq_k, block_k, causal):
            s = _score_tile(k3[heads, cols], qs, cols, q0, causal)
            np.max(s, axis=1, out=m_new)
            np.maximum(m, m_new, out=m_new)
            # p = exp(s - m_new), in place
            s -= m_new[:, None, :]
            np.exp(s, out=s)
            # rescale previous running sums by exp(m - m_new)
            np.subtract(m, m_new, out=alpha)
            np.exp(alpha, out=alpha)
            l *= alpha
            np.sum(s, axis=1, out=colsum)
            l += colsum
            acc *= alpha[:, :, None]
            np.matmul(s.transpose(0, 2, 1), v3[heads, cols], out=pv)
            acc += pv
            m, m_new = m_new, m
        np.divide(acc, l[:, :, None], out=out3[heads, rows])
        np.log(l, out=l)
        np.add(l, m, out=lse2[heads, rows])
    return out, FlashCache(q, k, v, out, lse, causal, block_q, block_k)


# -- backward -----------------------------------------------------------


def streaming_attention_backward(
    dout: np.ndarray,
    cache: FlashCache,
    dq: Optional[np.ndarray] = None,
    dk: Optional[np.ndarray] = None,
    dv: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. ``q``, ``k``, ``v`` by one pass of tile
    recomputation.

    ``dq``/``dk``/``dv`` are optional pre-allocated contiguous outputs;
    whatever they hold is overwritten (keys no query attends to get
    exact zeros).
    """
    q, k, v, out, lse, causal, block_q, block_k = cache
    dout = np.ascontiguousarray(dout)
    if dq is None:
        dq = np.empty_like(q)
    if dk is None:
        dk = np.empty_like(k)
    if dv is None:
        dv = np.empty_like(v)
    dk.fill(0.0)
    dv.fill(0.0)
    k3, v3, out3, lse2 = (_stack(x, "cache") for x in (k, v, out, lse))
    do3 = _stack(dout, "dout")
    dq3, dk3, dv3 = _stack(dq, "dq"), _stack(dk, "dk"), _stack(dv, "dv")
    seq_k, dtype = k.shape[2], q.dtype
    scale = np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=dtype)
    for heads, rows, q0, qs in _query_tiles(
        _stack(q, "cache"), seq_k, block_q, block_k
    ):
        douts = do3[heads, rows]
        lses = lse2[heads, rows][:, None, :]
        # D_i = dout_i . out_i  (= sum_j dP_ij P_ij, the softmax-backward
        # row term, recovered without the probability matrix)
        drow = _scratch("pv", qs.shape, dtype)
        np.multiply(douts, out3[heads, rows], out=drow)
        dvec = _scratch("colsum", qs.shape[:2], dtype)
        np.sum(drow, axis=2, out=dvec)
        dqs = _scratch("acc", qs.shape, dtype)
        dqs.fill(0.0)
        for cols in _key_tiles(rows, seq_k, block_k, causal):
            ks = k3[heads, cols]
            s = _score_tile(ks, qs, cols, q0, causal)
            s -= lses
            np.exp(s, out=s)
            part = _scratch("part", ks.shape, dtype)
            np.matmul(s, douts, out=part)
            dv3[heads, cols] += part
            dp = _scratch("dp", s.shape, dtype)
            np.matmul(v3[heads, cols], douts.transpose(0, 2, 1), out=dp)
            dp -= dvec[:, None, :]
            s *= dp  # ds = P * (dP - D)
            # qs carries 1/sqrt(d) already, so this is the scaled dk
            np.matmul(s, qs, out=part)
            dk3[heads, cols] += part
            np.matmul(s.transpose(0, 2, 1), ks, out=drow)
            dqs += drow
        np.multiply(dqs, scale, out=dq3[heads, rows])
    return dq, dk, dv
