"""Primitive layers with explicit forward/backward on numpy.

Each forward returns ``(output, cache)``; each backward consumes the cache
and the upstream gradient and returns input/parameter gradients.  The
gradients are verified against central finite differences in the tests.

Every kernel takes an optional ``ws``
(:class:`~repro.tensors.workspace.ActivationWorkspace`).  Without one,
every call allocates afresh.  With one, outputs, caches, and large
temporaries land in reused workspace buffers, so routing a model through
a workspace changes *where* the bytes live, not what they hold: GELU and
cross-entropy are one ``out=`` op sequence whose buffers come from
``take_like`` either way; ``Dense``/``LayerNorm`` keep a plain expression
beside an ``out=`` variant whose operation order matches it bit for bit
(reordered only across commutations and exact power-of-two scalings).
Parameter gradients (``dw``/``db``/``dg``/``dtable``) never land in the
workspace: they outlive the step (accumulated across micro-batches and
ranks), which workspace buffers must not.  They are freshly allocated
unless the caller hands each backward its destination (``dw_out`` /
``db_out`` / ``dg_out`` / ``out`` — in practice views of a persistent
gradient arena), in which case the same BLAS call and the same reduction
write there directly: same bits, no allocation and no later copy.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.tensors.workspace import ActivationWorkspace, take_like

Cache = Tuple
Workspace = Optional[ActivationWorkspace]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


_GELU_C = math.sqrt(2.0 / math.pi)


def _inner_tanh(x: np.ndarray, ws: Workspace) -> np.ndarray:
    """``tanh(c * (x + 0.044715 * x**3))`` in a buffer the caller owns.

    The cube is two multiplies, associated ``(x*x)*x``: numpy fast-paths
    only exponents 2, 0.5 and -1, so ``x**3`` / ``np.power(x, 3)`` run
    libm ``powf`` per element (~100x slower; DESIGN "numeric slow paths").
    """
    t = take_like(ws, x.shape, x.dtype)
    np.multiply(x, x, out=t)
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def gelu(x: np.ndarray, ws: Workspace = None) -> np.ndarray:
    """GELU, tanh approximation (the GPT-2 variant)."""
    t = _inner_tanh(x, ws)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def gelu_grad(x: np.ndarray, ws: Workspace = None) -> np.ndarray:
    """d gelu / dx for the tanh approximation."""
    tanh_inner = _inner_tanh(x, ws)
    sech2 = take_like(ws, x.shape, x.dtype)
    np.multiply(tanh_inner, tanh_inner, out=sech2)
    np.subtract(1.0, sech2, out=sech2)
    d_inner = take_like(ws, x.shape, x.dtype)
    np.multiply(x, x, out=d_inner)
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _GELU_C
    # second term: ((0.5 * x) * sech2) * d_inner, the 0.5 scaling (exact)
    # applied last
    sech2 *= x
    sech2 *= d_inner
    sech2 *= 0.5
    # first term: 0.5 * (1 + tanh)
    tanh_inner += 1.0
    tanh_inner *= 0.5
    tanh_inner += sech2
    if ws is not None:
        ws.give(sech2)
        ws.give(d_inner)
    return tanh_inner


class Dense:
    """Affine map ``y = x @ w + b`` over the trailing axis."""

    @staticmethod
    def forward(
        x: np.ndarray, w: np.ndarray, b: np.ndarray, ws: Workspace = None
    ) -> Tuple[np.ndarray, Cache]:
        if ws is None:
            y = x @ w + b
        else:
            y = ws.take(x.shape[:-1] + (w.shape[-1],),
                        np.result_type(x, w))
            np.matmul(x, w, out=y)
            y += b
        return y, (x, w)

    @staticmethod
    def backward(
        dy: np.ndarray,
        cache: Cache,
        ws: Workspace = None,
        dw_out: Optional[np.ndarray] = None,
        db_out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, w = cache
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dy = dy.reshape(-1, dy.shape[-1])
        dw = np.matmul(flat_x.T, flat_dy, out=dw_out)
        db = flat_dy.sum(axis=0, out=db_out)
        if ws is None:
            dx = dy @ w.T
        else:
            dx = ws.take(dy.shape[:-1] + (w.shape[0],),
                         np.result_type(dy, w))
            np.matmul(dy, w.T, out=dx)
        return dx, dw, db


class LayerNorm:
    """Layer normalization with learned gain/bias over the trailing axis."""

    EPS = 1e-5

    @staticmethod
    def forward(
        x: np.ndarray, g: np.ndarray, b: np.ndarray, ws: Workspace = None
    ) -> Tuple[np.ndarray, Cache]:
        if ws is None:
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + LayerNorm.EPS)
            xhat = (x - mu) * inv
            return xhat * g + b, (xhat, inv, g)
        stat_shape = x.shape[:-1] + (1,)
        mu = ws.take(stat_shape, x.dtype)
        np.mean(x, axis=-1, keepdims=True, out=mu)
        inv = ws.take(stat_shape, x.dtype)
        np.var(x, axis=-1, keepdims=True, out=inv)
        inv += LayerNorm.EPS
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        xhat = ws.take(x.shape, x.dtype)
        np.subtract(x, mu, out=xhat)
        xhat *= inv
        ws.give(mu)
        out = ws.take(x.shape, x.dtype)
        np.multiply(xhat, g, out=out)
        out += b
        return out, (xhat, inv, g)

    @staticmethod
    def backward(
        dy: np.ndarray,
        cache: Cache,
        ws: Workspace = None,
        dg_out: Optional[np.ndarray] = None,
        db_out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        xhat, inv, g = cache
        n = xhat.shape[-1]
        dg = (dy * xhat).reshape(-1, n).sum(axis=0, out=dg_out)
        db = dy.reshape(-1, n).sum(axis=0, out=db_out)
        if ws is None:
            dxhat = dy * g
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            return dx, dg, db
        stat_shape = xhat.shape[:-1] + (1,)
        dxhat = ws.take(xhat.shape, xhat.dtype)
        np.multiply(dy, g, out=dxhat)
        scratch = ws.take(xhat.shape, xhat.dtype)
        np.multiply(dxhat, xhat, out=scratch)
        m2 = ws.take(stat_shape, xhat.dtype)
        np.mean(scratch, axis=-1, keepdims=True, out=m2)
        m1 = ws.take(stat_shape, xhat.dtype)
        np.mean(dxhat, axis=-1, keepdims=True, out=m1)
        # dx = inv * ((dxhat - m1) - xhat * m2), same association as the
        # plain expression
        np.multiply(xhat, m2, out=scratch)
        dxhat -= m1
        dxhat -= scratch
        dxhat *= inv
        ws.give(scratch)
        ws.give(m1)
        ws.give(m2)
        return dxhat, dg, db


class Embedding:
    """Token embedding lookup."""

    @staticmethod
    def forward(
        ids: np.ndarray, table: np.ndarray, ws: Workspace = None
    ) -> Tuple[np.ndarray, Cache]:
        if ids.min() < 0 or ids.max() >= table.shape[0]:
            raise IndexError("token id out of vocabulary range")
        if ws is None:
            return table[ids], (ids, table.shape)
        out = ws.take(ids.shape + (table.shape[-1],), table.dtype)
        np.take(table, ids, axis=0, out=out)
        return out, (ids, table.shape)

    @staticmethod
    def backward(
        dy: np.ndarray, cache: Cache, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        ids, shape = cache
        if out is None:
            dtable = np.zeros(shape, dtype=dy.dtype)
        else:
            # zero-then-accumulate: rows no token touched must not keep
            # the previous step's gradient
            dtable = out
            dtable[...] = 0
        np.add.at(dtable, ids.reshape(-1), dy.reshape(-1, dy.shape[-1]))
        return dtable


def cross_entropy(
    logits: np.ndarray, targets: np.ndarray, ws: Workspace = None
) -> Tuple[float, np.ndarray]:
    """Mean token-level cross-entropy and its gradient w.r.t. logits.

    Args:
        logits: ``(..., vocab)`` unnormalized scores.
        targets: integer class ids, shape ``logits.shape[:-1]``.
        ws: optional workspace for the fp64 staging buffers (the widened
            flat logits are the single largest activation of the step).

    Returns:
        (loss, dlogits) where dlogits already includes the 1/N mean factor.
    """
    vocab = logits.shape[-1]
    ids = targets.reshape(-1)
    flat_src = logits.reshape(-1, vocab)
    if ids.shape[0] != flat_src.shape[0]:
        raise ValueError("targets shape does not match logits")
    # two fp64 planes: ``flat`` becomes the shifted logits in place, ``e``
    # their exponentials and then, divided by its row sums, the softmax
    flat = take_like(ws, flat_src.shape, np.float64)
    flat[...] = flat_src
    flat -= flat.max(axis=1, keepdims=True)
    e = take_like(ws, flat.shape, np.float64)
    np.exp(flat, out=e)
    sum_e = e.sum(axis=1, keepdims=True)
    n = flat.shape[0]
    rows = np.arange(n)
    loss = -float((flat[rows, ids] - np.log(sum_e[:, 0])).mean())
    e /= sum_e
    e[rows, ids] -= 1.0
    e /= n
    dlogits = take_like(ws, logits.shape, logits.dtype)
    dlogits[...] = e.reshape(logits.shape)
    if ws is not None:
        ws.give(flat)
        ws.give(e)
    return loss, dlogits
