"""Functional Adam/AdamW kernels and their algebraic inverse.

The inverse is what makes the paper's *in-place rollback* (§4.4) possible
without snapshots: given the gradient that produced an update, the previous
(p, m, v) can be reconstructed exactly in real arithmetic (and to ~1 ulp in
floating point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AdamConfig:
    """Hyperparameters of AdamW (decoupled weight decay).

    Attributes:
        lr: learning rate.
        beta1: first-moment decay.
        beta2: second-moment decay.
        eps: denominator fuzz.
        weight_decay: decoupled L2 coefficient.
        bias_correction: apply the 1/(1-beta^t) warmup correction.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            # Strictly positive betas keep the update invertible (§4.4).
            raise ValueError("betas must be in (0, 1)")
        if self.lr < 0 or self.eps <= 0 or self.weight_decay < 0:
            raise ValueError("lr/weight_decay must be >= 0 and eps > 0")
        if self.lr * self.weight_decay >= 1:
            raise ValueError("lr * weight_decay must be < 1 (invertibility)")


@dataclass
class AdamParamState:
    """Per-parameter optimizer state (the 12-bytes/param of §2.2)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamParamState":
        """Fresh state for ``param``."""
        return cls(
            m=np.zeros_like(param, dtype=np.float32),
            v=np.zeros_like(param, dtype=np.float32),
        )


def _bias_corrections(config: AdamConfig, step: int) -> tuple[float, float]:
    if not config.bias_correction:
        return 1.0, 1.0
    return 1.0 - config.beta1**step, 1.0 - config.beta2**step


def adam_update(
    param: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    grad: np.ndarray,
    config: AdamConfig,
    step: int,
) -> None:
    """The in-place AdamW arithmetic of update number ``step``.

    Purely elementwise over four same-shape fp32 arrays, so applying it
    to any tiling of a plane gives the same bits as one whole-plane call
    (:class:`~repro.optim.implementations.GraceAdam` walks cache tiles
    with it).
    """
    c = config
    m *= c.beta1
    m += (1 - c.beta1) * grad
    v *= c.beta2
    v += (1 - c.beta2) * np.square(grad)
    bc1, bc2 = _bias_corrections(c, step)
    denom = np.sqrt(v / bc2)
    denom += c.eps
    if c.weight_decay:
        param *= 1.0 - c.lr * c.weight_decay
    param -= c.lr * ((m / bc1) / denom)


def adam_apply(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamParamState,
    config: AdamConfig,
) -> None:
    """One in-place AdamW update; increments ``state.step``.

    All buffers must be fp32 — mixed precision keeps the master copy and
    moments in full precision (§2.2), and the rollback inverse relies on it.
    """
    if param.dtype != np.float32 or grad.dtype != np.float32:
        raise TypeError("adam_apply operates on fp32 master weights/gradients")
    state.step += 1
    adam_update(param, state.m, state.v, grad, config, state.step)


def adam_invert(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamParamState,
    config: AdamConfig,
) -> None:
    """Invert the most recent :func:`adam_apply` in place.

    Requires the same ``grad`` that produced the update.  Exact in real
    arithmetic; in fp32 the reconstruction differs by at most a few ulps
    (the STV validation path re-applies with clipped gradients afterwards,
    so the residual does not accumulate — see tests).
    """
    if state.step < 1:
        raise ValueError("no update to invert")
    t = state.step
    c = config
    bc1, bc2 = _bias_corrections(c, t)
    denom = np.sqrt(state.v / bc2) + c.eps
    update = (state.m / bc1) / denom
    param += c.lr * update
    if c.weight_decay:
        param /= 1.0 - c.lr * c.weight_decay
    state.m -= (1 - c.beta1) * grad
    state.m /= c.beta1
    state.v -= (1 - c.beta2) * np.square(grad)
    state.v /= c.beta2
    state.step -= 1
