"""Low-precision emulation on numpy.

The training paths keep low-precision tensors as fp16 or bf16 *values* in
fp32 storage: :func:`round_fp16` and :func:`round_bf16` write the nearest
representable value of each fp32 element (round-to-nearest-even, the
convention hardware uses) into an fp32 buffer.  numpy's own fp32<->fp16
conversion is a scalar loop on common hosts (several ns per element each
way); the rounding kernels are ten vectorised ufunc passes per cache tile
and produce exactly the bits of ``x.astype(np.float16).astype(np.float32)``
— overflow to inf, subnormals, signed zeros and NaN included.
:func:`land_grad` fuses the fp16/bf16 round trip into the STV engines'
gradient landing.  :func:`to_fp16` / :func:`from_fp16` remain as the
numpy conversions (the oracle the kernel is tested against).  These helpers are the numeric twin
of the casting cost models in :mod:`repro.hardware.casting`.

The int8 half of the module is the inference weight format: symmetric
per-group block quantization (AWQ-style).  A 2-D fp32 plane ``(in, out)``
is cut into groups of ``group_size`` rows; each (group, column) cell gets
one fp32 scale ``amax / 127`` and the weights become ``round(w / scale)``
clipped to ``[-127, 127]``.  Reconstruction error is bounded per element
by ``scale / 2`` (half a quantization step), which
:func:`quantization_error_bound` exposes and the property tests assert.
Degenerate groups — all zeros, or containing any non-finite value —
quantize to exact zeros with scale 1.0, so the format never divides by
zero and NaN/inf never leak into the int8 plane.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

#: Elements per tile of the rounding kernels.  A tile's three fp32
#: scratch streams (768 KiB) stay in L2 across the kernel's ten passes.
ROUND_TILE = 1 << 16

_EXP_BITS = np.uint32(0x7F800000)
_SIGN_BIT = np.uint32(0x80000000)
# fp16's quantum is 2^-10 of the binade, floored at the subnormal quantum
# 2^-24 and capped at the top binade's 32: the binade base clamped to
# [2^-14, 2^15], times 2^13, is the constant whose fp32 ulp is that quantum.
_FP16_BINADE_LO = np.float32(2.0**-14)
_FP16_BINADE_HI = np.float32(2.0**15)
_FP16_SHIFT = np.float32(2.0**13)
# Rounded magnitudes are either <= 65504 or >= 65536 (fp16 overflow);
# scaling by 2^112 sends exactly the latter past fp32's range.
_OVERFLOW_UP = np.float32(2.0**112)
_OVERFLOW_DOWN = np.float32(2.0**-112)

_BF16_KEEP = np.uint32(0xFFFF0000)
_BF16_ROUND = np.uint32(0x7FFF)
_QUIET_BIT = np.uint32(0x00400000)

_scratch = threading.local()


def _round_scratch() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three per-thread fp32 scratch tiles of :data:`ROUND_TILE` elements."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None:
        bufs = tuple(np.empty(ROUND_TILE, dtype=np.float32) for _ in range(3))
        _scratch.bufs = bufs
    return bufs


def _round_fp16_tile(
    x: np.ndarray, out: np.ndarray, a: np.ndarray, c: np.ndarray
) -> None:
    """``out = fp16(x)`` as fp32 over one 1-D tile (``out`` may be ``x``).

    ``a`` and ``c`` are scratch of the same length.  ``c`` becomes the
    binade base of ``|x|`` (its exponent field) clamped to fp16's range
    and times 2^13, so ``(|x| + c) - c`` rounds ``|x|`` to fp16's quantum
    in one fp32 add (RNE, subnormals included).  Rounded magnitudes that
    overflow fp16 reach inf through the 2^112 scaling, and ``x``'s sign
    bit is or-ed back in (integer passes: ``copysign`` is several times
    slower).  Callers silence the fp32 overflow warning (and the
    invalid-operation one a signalling NaN input raises).
    """
    xb, ab, cb = x.view(np.uint32), a.view(np.uint32), c.view(np.uint32)
    np.bitwise_and(xb, _EXP_BITS, out=cb)
    np.clip(c, _FP16_BINADE_LO, _FP16_BINADE_HI, out=c)
    c *= _FP16_SHIFT
    np.abs(x, out=a)
    a += c
    a -= c
    a *= _OVERFLOW_UP
    a *= _OVERFLOW_DOWN
    np.bitwise_and(xb, _SIGN_BIT, out=cb)
    np.bitwise_or(ab, cb, out=out.view(np.uint32))


def _round_bf16_tile(
    x: np.ndarray, out: np.ndarray, a: np.ndarray, c: np.ndarray
) -> None:
    """``out = bf16(x)`` as fp32 over one 1-D tile (``out`` may be ``x``).

    Round-to-nearest-even on the top 16 bits of the encoding: add
    ``0x7FFF`` plus the lowest surviving mantissa bit, then clear the
    low half.  That carry would wrap a NaN into a zero or an infinity,
    so NaNs are written separately as the quiet NaN of the same sign and
    top payload bits.
    """
    bits = x.view(np.uint32)
    nan = np.isnan(x)
    quiet = (bits[nan] | _QUIET_BIT) & _BF16_KEEP if nan.any() else None
    cb = c.view(np.uint32)
    np.right_shift(bits, 16, out=cb)
    cb &= np.uint32(1)
    cb += _BF16_ROUND
    ob = out.view(np.uint32)
    np.add(bits, cb, out=ob)
    ob &= _BF16_KEEP
    if quiet is not None:
        ob[nan] = quiet


_ROUND_TILES = {"fp16": _round_fp16_tile, "bf16": _round_bf16_tile}


def _round(tile_fn, src, out) -> np.ndarray:
    src = np.asarray(src, dtype=np.float32)
    if out is None:
        out = np.empty(src.shape, dtype=np.float32)
    elif out.shape != src.shape or out.dtype != np.float32:
        raise ValueError(
            f"out must be fp32 of shape {src.shape}, got {out.dtype} "
            f"{out.shape}"
        )
    flat_src = src.reshape(-1)   # a copy only when src is strided
    flat_out = (
        out.reshape(-1) if out.flags.c_contiguous
        else np.empty(out.size, dtype=np.float32)
    )
    n = flat_src.size
    a, c, _ = _round_scratch()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, ROUND_TILE):
            hi = min(lo + ROUND_TILE, n)
            tile_fn(flat_src[lo:hi], flat_out[lo:hi], a[:hi - lo],
                    c[:hi - lo])
    if not out.flags.c_contiguous:
        out[...] = flat_out.reshape(out.shape)
    return out


def round_fp16(src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The nearest fp16 value of each fp32 element, stored as fp32.

    Bitwise equal to ``src.astype(np.float16).astype(np.float32)`` for
    every fp32 input (values that round past 65504 become inf; NaN stays
    NaN), at memory speed: ten ufunc passes per :data:`ROUND_TILE`
    elements on the calling thread.  ``out`` may alias ``src``; the
    kernel is elementwise, so any split of the input into separate calls
    gives the same bits.
    """
    return _round(_round_fp16_tile, src, out)


def round_bf16(src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The nearest bf16 value of each fp32 element, stored as fp32
    (round-to-nearest-even; NaN gives a quiet NaN of the same sign)."""
    return _round(_round_bf16_tile, src, out)


def land_grad(
    dst: np.ndarray,
    src: np.ndarray,
    inv: np.float32,
    precision: str = "fp16",
    boost: np.float32 | None = None,
    accumulate: bool = False,
) -> None:
    """Land one backward gradient: ``dst = round(src * boost) * inv``.

    ``round`` is the training precision's rounding kernel
    (:func:`round_fp16` or :func:`round_bf16`): the gradient passes
    through the low-precision format exactly where a mixed-precision
    backward produces it, so an fp16 overflow becomes inf.  ``inv``
    unscales the loss scale; ``boost`` (``None`` skips it) is the
    engines' gradient-injection multiplier.  With ``accumulate`` the
    product is added into ``dst`` instead (micro-batch accumulation),
    under the invalid/overflow silencing that ``inf - inf`` after an
    overflowed micro-batch needs — the health check flags it
    downstream.

    One :data:`ROUND_TILE` at a time through the rounding kernels'
    per-thread scratch, on the calling thread: bitwise the unfused
    sequence (fp32 multiply, round, fp32 multiply, fp32 add).
    """
    round_tile = _ROUND_TILES[precision]
    if dst.size != src.size or not dst.flags.c_contiguous:
        raise ValueError("land_grad needs a contiguous dst of src's size")
    flat_dst = dst.reshape(-1)
    flat_src = src.reshape(-1)
    n = flat_src.size
    t, a, c = _round_scratch()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, ROUND_TILE):
            hi = min(lo + ROUND_TILE, n)
            k = hi - lo
            tk = t[:k]
            g = flat_src[lo:hi]
            if boost is not None:
                np.multiply(g, boost, out=tk)
                g = tk
            round_tile(g, tk, a[:k], c[:k])
            if accumulate:
                tk *= inv
                flat_dst[lo:hi] += tk
            else:
                np.multiply(tk, inv, out=flat_dst[lo:hi])


def to_fp16(x: np.ndarray) -> np.ndarray:
    """Cast to IEEE fp16 (values beyond ~65504 overflow to inf, as on GPU)."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float32).astype(np.float16)


def from_fp16(x: np.ndarray) -> np.ndarray:
    """Widen fp16 back to fp32 (exact)."""
    return np.asarray(x, dtype=np.float16).astype(np.float32)


def cast_roundtrip_error(x: np.ndarray, dtype: str = "fp16") -> float:
    """Max absolute error of one fp32 -> low precision -> fp32 round trip.

    Non-finite inputs are excluded from the maximum: NaN round trips to
    NaN and ±inf to ±inf, and ``nan - nan`` / ``inf - inf`` would
    otherwise poison the whole reduction with NaN.  An input with no
    finite elements round trips exactly, so its error is 0.0.
    """
    if dtype == "fp16":
        back = round_fp16(x)
    elif dtype == "bf16":
        back = round_bf16(x)
    else:
        raise ValueError(f"unsupported low precision dtype {dtype!r}")
    as_f32 = np.asarray(x, dtype=np.float32)
    finite = np.isfinite(as_f32)
    if not finite.any():
        return 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(as_f32 - back)
    return float(np.max(err[finite]))


# -- int8 block quantization ------------------------------------------------

#: Quantized magnitudes span [-127, 127]; -128 is never produced, so the
#: format is symmetric and negation of a tensor negates its codes.
QMAX = 127


def group_count(rows: int, group_size: int) -> int:
    """Number of row groups covering ``rows`` (last group may be short)."""
    if group_size <= 0:
        raise ValueError(f"group_size must be positive, got {group_size}")
    return (rows + group_size - 1) // group_size


def quantize_int8_blocked(
    w: np.ndarray, group_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-group int8 quantization of a 2-D fp32 plane.

    Rows (the matmul contraction axis) are cut into groups of
    ``group_size``; each (group, column) cell is scaled independently by
    ``amax / 127``.  Groups that are all zero or contain a non-finite
    value get scale 1.0 and all-zero codes — no division by zero, and
    NaN/inf never reach the int8 plane.

    Args:
        w: ``(rows, cols)`` fp32 weight plane (the last group may be
            shorter than ``group_size``; non-dividing sizes are fine).
        group_size: rows per quantization group.

    Returns:
        (qweight int8 ``(rows, cols)``, scales fp32 ``(n_groups, cols)``).
    """
    w = np.ascontiguousarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {w.shape}")
    rows, cols = w.shape
    n_groups = group_count(rows, group_size)
    qweight = np.empty((rows, cols), dtype=np.int8)
    scales = np.empty((n_groups, cols), dtype=np.float32)
    for g in range(n_groups):
        lo, hi = g * group_size, min((g + 1) * group_size, rows)
        block = w[lo:hi]
        finite = np.isfinite(block).all(axis=0)
        with np.errstate(invalid="ignore"):
            amax = np.max(np.abs(block), axis=0)
        ok = finite & (amax > 0.0)
        scale = np.where(ok, amax / np.float32(QMAX), np.float32(1.0))
        scales[g] = scale
        with np.errstate(invalid="ignore", over="ignore"):
            q = np.rint(block / scale[None, :])
        q = np.where(ok[None, :], q, 0.0)
        np.clip(q, -QMAX, QMAX, out=q)
        qweight[lo:hi] = q.astype(np.int8)
    return qweight, scales


def dequantize_int8_blocked(
    qweight: np.ndarray,
    scales: np.ndarray,
    group_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reconstruct the fp32 plane (the dense-dequant reference path)."""
    rows, cols = qweight.shape
    if out is None:
        out = np.empty((rows, cols), dtype=np.float32)
    for g in range(group_count(rows, group_size)):
        lo, hi = g * group_size, min((g + 1) * group_size, rows)
        np.multiply(
            qweight[lo:hi], scales[g][None, :], out=out[lo:hi],
            casting="unsafe",
        )
    return out


def quantization_error_bound(
    scales: np.ndarray, group_size: int, rows: int
) -> np.ndarray:
    """Per-element reconstruction error bound, shaped ``(rows, cols)``.

    Rounding to the nearest code moves a value by at most half a step:
    ``|w - scale * round(w / scale)| <= scale / 2`` (clipping never
    engages because ``|w / scale| <= 127`` by construction).  Degenerate
    groups reconstruct exactly (their stored codes are 0 and the true
    finite values were 0), so ``scale / 2`` is a valid bound there too.
    """
    idx = np.arange(rows) // group_size
    return scales[idx] * np.float32(0.5)


@dataclass(frozen=True)
class QuantizedTensor:
    """One int8-quantized weight plane plus its per-group scales.

    ``qweight`` and ``scales`` are typically *views* into a
    :class:`QuantizedStore`'s contiguous buffers; the dataclass only
    carries the geometry needed by the fused matmul kernel.
    """

    qweight: np.ndarray  # (rows, cols) int8
    scales: np.ndarray   # (n_groups, cols) fp32
    group_size: int

    @property
    def shape(self) -> Tuple[int, int]:
        return self.qweight.shape

    @property
    def nbytes(self) -> int:
        return self.qweight.nbytes + self.scales.nbytes

    def dequantize(self, out: np.ndarray | None = None) -> np.ndarray:
        """Dense fp32 reconstruction (reference path; O(rows*cols))."""
        return dequantize_int8_blocked(
            self.qweight, self.scales, self.group_size, out
        )

    def dequantize_rows(self, rows: np.ndarray) -> np.ndarray:
        """Reconstruct a row subset (the quantized-embedding gather)."""
        rows = np.asarray(rows)
        return (
            self.qweight[rows].astype(np.float32)
            * self.scales[rows // self.group_size]
        )

    def error_bound(self) -> np.ndarray:
        """Per-element ``|w - dequant|`` bound (see module docstring)."""
        return quantization_error_bound(
            self.scales, self.group_size, self.qweight.shape[0]
        )


class QuantizedStore:
    """Packed storage for a set of quantized planes.

    FlatArena-style: all int8 codes live in one contiguous byte buffer
    and all scales in one contiguous fp32 buffer, so a quantized model is
    two allocations regardless of layer count and the memory footprint
    is exact (``nbytes``).  Planes are registered up front via
    :meth:`pack` and read back as zero-copy views via :meth:`get`.
    """

    def __init__(self, group_size: int):
        if group_size <= 0:
            raise ValueError(f"group_size must be positive, got {group_size}")
        self.group_size = group_size
        self._geometry: Dict[str, Tuple[int, int, int, int]] = {}
        self._codes = np.empty(0, dtype=np.int8)
        self._scales = np.empty(0, dtype=np.float32)
        self.source_bytes = 0  # fp32 footprint of everything quantized

    @classmethod
    def pack(
        cls, planes: Iterable[Tuple[str, np.ndarray]], group_size: int
    ) -> "QuantizedStore":
        """Quantize and pack named fp32 planes into one store."""
        store = cls(group_size)
        planes = list(planes)
        quantized = []
        code_total = scale_total = 0
        for name, w in planes:
            if name in store._geometry:
                raise ValueError(f"duplicate plane {name!r}")
            q, s = quantize_int8_blocked(w, group_size)
            store._geometry[name] = (
                code_total, scale_total, q.shape[0], q.shape[1]
            )
            quantized.append((q, s))
            code_total += q.size
            scale_total += s.size
            store.source_bytes += w.size * 4
        store._codes = np.empty(code_total, dtype=np.int8)
        store._scales = np.empty(scale_total, dtype=np.float32)
        for (name, _), (q, s) in zip(planes, quantized):
            c0, s0, rows, cols = store._geometry[name]
            store._codes[c0:c0 + q.size] = q.ravel()
            store._scales[s0:s0 + s.size] = s.ravel()
        return store

    def get(self, name: str) -> QuantizedTensor:
        """Zero-copy view of one packed plane."""
        c0, s0, rows, cols = self._geometry[name]
        n_groups = group_count(rows, self.group_size)
        return QuantizedTensor(
            self._codes[c0:c0 + rows * cols].reshape(rows, cols),
            self._scales[s0:s0 + n_groups * cols].reshape(n_groups, cols),
            self.group_size,
        )

    def __contains__(self, name: str) -> bool:
        return name in self._geometry

    def names(self) -> Tuple[str, ...]:
        return tuple(self._geometry)

    @property
    def nbytes(self) -> int:
        return self._codes.nbytes + self._scales.nbytes

    @property
    def compression_ratio(self) -> float:
        """fp32 bytes of the quantized planes / packed bytes."""
        return self.source_bytes / self.nbytes if self.nbytes else 1.0
