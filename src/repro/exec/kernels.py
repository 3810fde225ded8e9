"""Fused, allocation-free chunk kernels for the flat arena planes.

Each kernel processes one ``[lo, hi)`` range of a flat fp32 plane in
cache-sized sub-tiles, using per-thread scratch buffers instead of the
out-of-place temporaries the serial ancestors allocated — the numpy
analogue of the paper's fused SVE pipeline (§4.6): same arithmetic, same
operation order, zero heap traffic in the hot loop.

Bitwise fidelity is the contract.  Every kernel reproduces its serial
ancestor's exact operation sequence (scalars pre-demoted to ``float32``
exactly as NEP-50 weak promotion demotes python floats; multiplications
that the ancestor wrote scalar-first commute bitwise), so chunked
execution over *any* plan equals the ancestor bit for bit.  The
hypothesis suite in ``tests/exec`` holds this line.

Signature convention: every kernel takes ``(lo, hi, ...)`` first so a
:class:`~repro.exec.pool.KernelPool` can drive it directly from a
:class:`~repro.exec.plan.ChunkPlan`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.numeric.lowprec import to_bf16
from repro.tune.registry import default as _registry_default

#: Elements per cache sub-tile inside a chunk.  Six fp32 streams (p, m,
#: v, g + two scratch) at 32k elements is a ~768 KiB working set — sized
#: to sit in L2/L3 so the fused passes re-hit cache instead of streaming
#: DRAM (the whole-array fused variant measures *slower* than the tiled
#: serial ancestor; this tiling is where the kernel's win comes from).
#: The authored value lives in the tunable registry (``adam.cache_tile``);
#: dispatchers resolve the host-tuned value and pass it to ``adam_chunk``.
CACHE_TILE = _registry_default("adam.cache_tile")

_scratch = threading.local()


def _scratch_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two per-thread fp32 scratch buffers of at least ``n`` elements."""
    buf = getattr(_scratch, "bufs", None)
    if buf is None or buf[0].size < n:
        size = max(n, CACHE_TILE)
        buf = (np.empty(size, dtype=np.float32),
               np.empty(size, dtype=np.float32))
        _scratch.bufs = buf
    return buf


@dataclass(frozen=True)
class AdamChunkHyper:
    """Per-step scalar operands of the fused Adam kernel, pre-demoted to
    ``float32`` (the dtype NEP-50 weak promotion gives the ancestor's
    python-float scalars against fp32 arrays)."""

    lr: np.float32
    beta1: np.float32
    beta2: np.float32
    one_minus_beta1: np.float32
    one_minus_beta2: np.float32
    eps: np.float32
    bc1: np.float32
    bc2: np.float32
    decay_keep: np.float32  # 1 - lr * weight_decay; 1.0 disables decay

    @classmethod
    def from_config(cls, config, step: int) -> "AdamChunkHyper":
        """Demote an :class:`~repro.optim.adam.AdamConfig` for ``step``."""
        bc1 = 1 - config.beta1 ** step if config.bias_correction else 1.0
        bc2 = 1 - config.beta2 ** step if config.bias_correction else 1.0
        keep = 1.0 - config.lr * config.weight_decay \
            if config.weight_decay else 1.0
        return cls(
            lr=np.float32(config.lr),
            beta1=np.float32(config.beta1),
            beta2=np.float32(config.beta2),
            one_minus_beta1=np.float32(1 - config.beta1),
            one_minus_beta2=np.float32(1 - config.beta2),
            eps=np.float32(config.eps),
            bc1=np.float32(bc1),
            bc2=np.float32(bc2),
            decay_keep=np.float32(keep),
        )


def adam_chunk(
    lo: int,
    hi: int,
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    hyper: AdamChunkHyper,
    tile: int | None = None,
) -> None:
    """Fused AdamW over ``[lo, hi)`` of the (p, m, v, g) planes.

    Operation order matches the plain-numpy update
    (:func:`repro.optim.adam.adam_update`, and its oracle twin
    :func:`repro.reference.cpu_adam_serial`) exactly::

        m  = beta1*m + (1-beta1)*g
        v  = beta2*v + (1-beta2)*g^2
        d  = sqrt(v/bc2) + eps
        p *= 1 - lr*wd                  (when decaying)
        p -= lr * ((m/bc1) / d)

    but with every temporary landed in per-thread scratch.  ``tile``
    overrides :data:`CACHE_TILE` (the ``adam.cache_tile`` tunable —
    dispatchers resolve it once and pass it down); the arithmetic is
    purely elementwise, so any tiling is bitwise identical.
    """
    h = hyper
    if tile is None:
        tile = CACHE_TILE
    decaying = h.decay_keep != np.float32(1.0)
    s1, s2 = _scratch_pair(min(tile, hi - lo))
    for tlo in range(lo, hi, tile):
        thi = min(hi, tlo + tile)
        gg = g[tlo:thi]
        mm = m[tlo:thi]
        vv = v[tlo:thi]
        pp = p[tlo:thi]
        c1 = s1[: thi - tlo]
        c2 = s2[: thi - tlo]
        mm *= h.beta1
        np.multiply(gg, h.one_minus_beta1, out=c1)
        mm += c1
        vv *= h.beta2
        np.square(gg, out=c1)
        c1 *= h.one_minus_beta2
        vv += c1
        np.divide(vv, h.bc2, out=c1)
        np.sqrt(c1, out=c1)
        c1 += h.eps
        np.divide(mm, h.bc1, out=c2)
        c2 /= c1
        c2 *= h.lr
        if decaying:
            pp *= h.decay_keep
        pp -= c2


def scale_chunk(lo: int, hi: int, buf: np.ndarray, coef: np.float32) -> None:
    """In-place ``buf[lo:hi] *= coef`` (gradient clip / accumulation mean)."""
    buf[lo:hi] *= coef


def copy_chunk(lo: int, hi: int, dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[lo:hi] = src[lo:hi]`` — the parallel memcpy."""
    np.copyto(dst[lo:hi], src[lo:hi])


def cast_chunk(
    lo: int,
    hi: int,
    dst: np.ndarray,
    src: np.ndarray,
    ignore_overflow: bool = False,
) -> None:
    """Dtype-converting ``dst[lo:hi] = src[lo:hi]``.

    ``ignore_overflow`` silences the fp32→fp16 saturation warning the
    narrow cast legitimately produces (values beyond ~65504 become inf,
    as on the GPU).  ``np.errstate`` is thread-local, so the guard is
    applied here, inside the worker, not at the submitting call site.
    """
    if ignore_overflow:
        with np.errstate(over="ignore"):
            dst[lo:hi] = src[lo:hi]
    else:
        dst[lo:hi] = src[lo:hi]


def cast_bf16_chunk(lo: int, hi: int, dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[lo:hi] = to_bf16(src[lo:hi])`` — elementwise round-to-
    nearest-even truncation, so chunking cannot change any bit."""
    dst[lo:hi] = to_bf16(src[lo:hi])


def scale_into_chunk(
    lo: int, hi: int, dst: np.ndarray, src: np.ndarray, scale: np.float32
) -> None:
    """``dst[lo:hi] = src[lo:hi] * scale`` (first micro-batch landing).

    ``src`` may be low-precision; numpy upcasts it to fp32 before the
    multiply — the same bits as the ancestor's ``astype`` + multiply.
    """
    np.multiply(src[lo:hi], scale, out=dst[lo:hi])


def add_scaled_chunk(
    lo: int, hi: int, dst: np.ndarray, src: np.ndarray, scale: np.float32
) -> None:
    """``dst[lo:hi] += src[lo:hi] * scale`` (micro-batch accumulation).

    Runs under the same invalid/overflow silencing the serial
    accumulation loop used: inf - inf propagation is *expected* when a
    micro-batch overflowed — the health check flags it downstream.
    """
    s1, _ = _scratch_pair(hi - lo)
    c1 = s1[: hi - lo]
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(src[lo:hi], scale, out=c1)
        dst[lo:hi] += c1


def reduce_chunk(
    lo: int,
    hi: int,
    dst: np.ndarray,
    dst_base: int,
    sources,
    divisor: np.float32 | None = None,
) -> None:
    """Fixed-order reduction of rank buffers into a staging range.

    ``dst[lo-dst_base : hi-dst_base] = (((src0 + src1) + src2) + ...)``
    over ``src[lo:hi]``, optionally followed by an elementwise divide —
    the same left-fold order as
    :meth:`~repro.parallel.comm.SimProcessGroup.reduce_scatter`'s serial
    sum, for every chunk, so chunked reduction is bitwise identical to
    the serial ancestor and deterministic across worker counts (the
    combine order is fixed by rank, never by scheduling).
    """
    out = dst[lo - dst_base: hi - dst_base]
    if len(sources) == 1:
        np.copyto(out, sources[0][lo:hi])
    else:
        np.add(sources[0][lo:hi], sources[1][lo:hi], out=out)
        for src in sources[2:]:
            out += src[lo:hi]
    if divisor is not None:
        np.divide(out, divisor, out=out)


def sumsq_chunk(lo: int, hi: int, buf: np.ndarray) -> float:
    """float64 sum of squares of the fp32 range ``buf[lo:hi]``.

    The gradient health check's norm term, computed while the range is
    still cache-hot from the kernel that wrote it.  Every fp32 square is
    exact in float64 and the tile sums are numpy's pairwise reduction,
    so the value depends only on the bits and the range — never on
    which thread ran it.  A float64 sum of fp32 squares cannot overflow
    from finite inputs (``3.4e38**2 * n`` is far below ``1.8e308``), so
    the result is non-finite iff some element is: one pass answers both
    of the check's questions.
    """
    sq = getattr(_scratch, "sq64", None)
    if sq is None:
        sq = _scratch.sq64 = np.empty(CACHE_TILE, dtype=np.float64)
    total = 0.0
    for tlo in range(lo, hi, CACHE_TILE):
        tile = buf[tlo:min(hi, tlo + CACHE_TILE)]
        c = sq[: tile.size]
        np.square(tile, out=c, dtype=np.float64)
        total += float(np.add.reduce(c))
    return total


def reduce_sumsq_chunk(
    lo: int,
    hi: int,
    dst: np.ndarray,
    dst_base: int,
    sources,
    divisor: np.float32 | None = None,
) -> float:
    """:func:`reduce_chunk`, returning :func:`sumsq_chunk` of what it
    wrote — the validated reduce-scatter's bucket kernel.

    Non-finite inputs are the case the caller is checking for, so the
    fold runs with the overflow/invalid warnings off (``inf - inf`` and
    a finite sum overflowing fp32 both surface as a non-finite return
    value instead).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        reduce_chunk(lo, hi, dst, dst_base, sources, divisor)
    return sumsq_chunk(lo - dst_base, hi - dst_base, dst)


# -- fused int8 dequant-matmul ---------------------------------------------

#: Authored default of the qmatmul output-column tile width; the live
#: value is resolved through ``tune.value("quant.dequant_tile", ...)`` by
#: the dispatcher in :mod:`repro.exec.ops`.
DEQUANT_TILE = _registry_default("quant.dequant_tile")

_qscratch = threading.local()


def _qmatmul_scratch(tag: str, shape: tuple[int, int]) -> np.ndarray:
    """Per-thread exact-shape fp32 scratch (same idiom as flash tiles)."""
    store = getattr(_qscratch, "bufs", None)
    if store is None:
        store = {}
        _qscratch.bufs = store
    key = (tag, shape)
    buf = store.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=np.float32)
        store[key] = buf
    return buf


def qmatmul_xgroups(x: np.ndarray, group_size: int) -> np.ndarray | None:
    """Contiguous ``(n_full_groups, m, group_size)`` regrouping of ``x``.

    Precomputed once per qmatmul call (the activations are tiny next to
    the weight plane) and shared by every column chunk, so the batched
    per-group matmul inside :func:`qmatmul_chunk` reads contiguous
    operands.  Returns ``None`` when no full group fits (``k <
    group_size``); the chunk kernel then runs the ragged tail path only.
    """
    m, k = x.shape
    n_full = k // group_size
    if n_full == 0:
        return None
    xg = x[:, :n_full * group_size].reshape(m, n_full, group_size)
    return np.ascontiguousarray(xg.transpose(1, 0, 2))


def qmatmul_chunk(
    lo: int,
    hi: int,
    out: np.ndarray,
    x: np.ndarray,
    qweight: np.ndarray,
    scales: np.ndarray,
    group_size: int,
    bias: np.ndarray | None = None,
    xg: np.ndarray | None = None,
) -> None:
    """``out[:, lo:hi] = x @ dequant(qweight)[:, lo:hi] (+ bias)``, fused.

    The per-group scale is constant down a column within its group, so
    it commutes out of the contraction::

        x @ (q * s)  ==  sum_g (x_g @ float32(q_g)) * s_g

    That turns the dequant from a per-element broadcast *multiply* over
    the whole weight plane (the dense reference's dominant cost) into a
    pure int8->fp32 *cast* into an L2-sized ``(k, hi - lo)`` scratch
    tile, one batched matmul over the groups, and a scale application on
    the tiny ``(groups, m, hi - lo)`` partial stack.  The full fp32
    weight is never materialized, and the int8 plane is read once —
    ~1 byte/element of weight traffic instead of the ~9 (read int8,
    write fp32, re-read fp32) the dense-dequant reference pays.

    Determinism contract: the group partial-sum order is fixed by the
    quantization geometry and the column span ``[lo, hi)`` fully owns
    its output slice, so results are bitwise identical no matter how
    tiles are assigned to workers (the dispatcher keeps tile *shapes*
    independent of worker count).
    """
    m, k = x.shape
    width = hi - lo
    out_view = out[:, lo:hi]
    if xg is None:
        xg = qmatmul_xgroups(x, group_size)
    n_full = k // group_size
    kf = n_full * group_size
    if n_full:
        wtile = _qmatmul_scratch("w", (kf, width))
        np.copyto(wtile, qweight[:kf, lo:hi], casting="unsafe")
        part = _qmatmul_scratch("part", (n_full, m, width))
        np.matmul(xg, wtile.reshape(n_full, group_size, width), out=part)
        np.multiply(part, scales[:n_full, None, lo:hi], out=part)
        np.sum(part, axis=0, out=out_view)
    else:
        out_view[:] = 0.0
    if kf < k:  # ragged tail group (group_size does not divide k)
        wtail = _qmatmul_scratch("wt", (k - kf, width))
        np.copyto(wtail, qweight[kf:, lo:hi], casting="unsafe")
        ptail = _qmatmul_scratch("pt", (m, width))
        np.matmul(x[:, kf:], wtail, out=ptail)
        np.multiply(ptail, scales[n_full, lo:hi][None, :], out=ptail)
        out_view += ptail
    if bias is not None:
        out_view += bias[lo:hi]
