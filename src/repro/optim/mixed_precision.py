"""Mixed-precision training machinery (§2.2, §4.4, §4.5).

Holds the fp32 master copy plus the low-precision model copy, the dynamic
loss scaler, and the two *global* gradient checks whose synchronization
the paper's speculation-then-validation removes from the critical path:
NaN/Inf detection and gradient-norm clipping.

Storage rule: a low-precision copy holds fp16 (or bf16) *values* in fp32
storage, produced by the rounding kernels of :mod:`repro.numeric.lowprec`
— bitwise the values a native fp16/bf16 buffer widened back to fp32 would
hold, so the forward reads the copy directly with no widening pass.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from repro.numeric.lowprec import round_bf16, round_fp16
from repro.tensors.arena import FlatArena

Params = Dict[str, np.ndarray]

SUPPORTED_LOW_PRECISION = ("fp16", "bf16")


def lower_precision(
    x: np.ndarray, dtype: str, out: np.ndarray | None = None
) -> np.ndarray:
    """Round fp32 to the training's low-precision format, in fp32 storage.

    Both formats keep fp32 storage (the module's storage rule), so callers
    must not rely on ``dtype`` of the result to distinguish formats.
    ``out`` (fp32, ``x``'s shape) receives the result when given.
    """
    if dtype == "fp16":
        return round_fp16(x, out)
    if dtype == "bf16":
        return round_bf16(x, out)
    raise ValueError(
        f"unsupported low precision {dtype!r}; choose from "
        f"{SUPPORTED_LOW_PRECISION}"
    )


@dataclass(frozen=True)
class GradientHealth:
    """Outcome of the global gradient validation.

    Attributes:
        has_nan_or_inf: any gradient element is non-finite (iteration must
            be skipped and the update rolled back, §4.4 scenario 1).
        global_norm: L2 norm across all gradients (pre-clipping).
        clip_triggered: the norm exceeded the clipping threshold (update
            must be re-executed with clipped gradients, §4.4 scenario 2).
    """

    has_nan_or_inf: bool
    global_norm: float
    clip_triggered: bool

    @classmethod
    def from_sumsq(
        cls, sumsq: float, clip_norm: float | None
    ) -> "GradientHealth":
        """The verdict from a float64 sum of squared fp32 elements.

        Such a sum cannot overflow from finite inputs, so it is
        non-finite exactly when some element is — producers that fold
        the squares into a pass they already make (the ZeRO
        reduce-scatter) get both checks from one number.
        """
        if not math.isfinite(sumsq):
            return cls(True, 0.0, False)
        norm = math.sqrt(sumsq)
        return cls(False, norm, clip_norm is not None and norm > clip_norm)

    @property
    def speculation_valid(self) -> bool:
        """True when the speculative update can be kept as-is."""
        return not (self.has_nan_or_inf or self.clip_triggered)


def global_grad_norm(grads: Params) -> float:
    """L2 norm over the concatenation of all gradients."""
    total = 0.0
    for g in grads.values():
        g64 = np.asarray(g, dtype=np.float64)
        total += float(np.dot(g64.ravel(), g64.ravel()))
    return float(np.sqrt(total))


_dot_scratch = threading.local()


def grad_sumsq(g: np.ndarray) -> float:
    """float64 sum of squares of one fp32 tensor, by ``np.dot``.

    The widened copy goes to a persistent per-thread float64 scratch, so
    the value is bitwise the per-tensor term of :func:`global_grad_norm`
    (fp32 -> float64 is exact; ``np.dot`` does not depend on the buffer)
    without its allocation.  Non-finite iff some element is (see
    :meth:`GradientHealth.from_sumsq`).
    """
    flat = g.reshape(-1)
    buf = getattr(_dot_scratch, "buf", None)
    if buf is None or buf.size < flat.size:
        buf = _dot_scratch.buf = np.empty(flat.size, dtype=np.float64)
    w = buf[: flat.size]
    np.copyto(w, flat)
    return float(np.dot(w, w))


def health_from_sums(
    sums: Iterable[float], clip_norm: float | None
) -> GradientHealth:
    """The verdict from per-tensor float64 sums of squares.

    The sums are added in the order given, from ``0.0``, so for sums
    taken by :func:`grad_sumsq` this is bitwise :func:`check_gradients`
    over the tensors in that order (a sum is non-finite exactly when its
    tensor is; see :meth:`GradientHealth.from_sumsq`).
    """
    total = 0.0
    for s in sums:
        total += s
    return GradientHealth.from_sumsq(total, clip_norm)


def check_gradients(grads: Params, clip_norm: float | None) -> GradientHealth:
    """The global validation step (runs in the STV background process)."""
    has_bad = any(not np.all(np.isfinite(g)) for g in grads.values())
    norm = 0.0 if has_bad else global_grad_norm(grads)
    clipped = clip_norm is not None and not has_bad and norm > clip_norm
    return GradientHealth(
        has_nan_or_inf=has_bad, global_norm=norm, clip_triggered=clipped
    )


def clip_coefficient(global_norm: float, clip_norm: float) -> float:
    """Multiplier that rescales gradients to the clip threshold."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    if global_norm <= clip_norm:
        return 1.0
    return clip_norm / (global_norm + 1e-6)


class LossScaler:
    """Dynamic loss scaling (Micikevicius et al.).

    Scale doubles every ``growth_interval`` healthy steps and halves on any
    overflow; the STV rollback path consults it when an iteration is skipped.

    Args:
        init_scale: starting scale.
        growth_interval: healthy steps between doublings.
        growth_factor: multiplier on growth.
        backoff_factor: multiplier on overflow.
        min_scale: lower bound after repeated overflows.
    """

    def __init__(
        self,
        init_scale: float = 2.0**16,
        growth_interval: int = 2000,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        min_scale: float = 1.0,
    ):
        if init_scale <= 0 or min_scale <= 0:
            raise ValueError("scales must be positive")
        if growth_factor <= 1 or not 0 < backoff_factor < 1:
            raise ValueError("growth_factor > 1 and backoff_factor in (0,1)")
        self.scale = init_scale
        self.growth_interval = growth_interval
        self.growth_factor = growth_factor
        self.backoff_factor = backoff_factor
        self.min_scale = min_scale
        self._healthy_steps = 0

    def scale_loss(self, loss: float) -> float:
        """Scale the loss before backward."""
        return loss * self.scale

    def unscale(self, grads: Params) -> None:
        """Divide gradients by the current scale, in place."""
        inv = np.float32(1.0 / self.scale)
        for g in grads.values():
            g *= inv

    def update(self, found_overflow: bool) -> None:
        """Advance scaler state after an iteration's validation verdict."""
        if found_overflow:
            self.scale = max(self.min_scale, self.scale * self.backoff_factor)
            self._healthy_steps = 0
            return
        self._healthy_steps += 1
        if self._healthy_steps >= self.growth_interval:
            self.scale *= self.growth_factor
            self._healthy_steps = 0


@dataclass
class MixedPrecisionState:
    """Master fp32 weights plus their low-precision model copy.

    The forward/backward pass consumes :attr:`model_fp16` — fp16 values
    by default, bf16 when ``low_dtype="bf16"``, fp32 storage either way
    (the module's storage rule); the optimizer updates
    :attr:`master_fp32`; :meth:`sync_model_copy` is the cast the
    superchip-aware casting decision prices (§4.5).
    """

    master_fp32: Params
    model_fp16: Params = field(default_factory=dict)
    low_dtype: str = "fp16"
    #: Set when the master weights form a :class:`FlatArena`: the
    #: low-precision copy then lives in a same-layout fp32 arena and a
    #: full sync is one rounding pass over the buffer instead of
    #: per-tensor allocations.  ``model_fp16``'s values become *stable*
    #: views.
    master_arena: Optional[FlatArena] = field(default=None, repr=False)
    low_arena: Optional[FlatArena] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.low_dtype not in SUPPORTED_LOW_PRECISION:
            raise ValueError(f"unsupported low precision {self.low_dtype!r}")
        for name, p in self.master_fp32.items():
            if p.dtype != np.float32:
                raise TypeError(f"master weight {name!r} must be fp32")
        if not self.model_fp16:
            self.master_arena = FlatArena.wrap(self.master_fp32)
            if self.master_arena is not None:
                self.low_arena = self.master_arena.like()
                self.model_fp16 = dict(self.low_arena.views)
            self.sync_model_copy()

    def sync_model_copy(self, names: list[str] | None = None) -> None:
        """Refresh the low-precision copy from the master (all or subset)."""
        if self.low_arena is not None:
            if names is None:
                # One flat rounding pass over the whole buffer — bitwise
                # the per-tensor rounding (it is elementwise).
                lower_precision(self.master_arena.flat, self.low_dtype,
                                self.low_arena.flat)
                self.low_arena.note_alias(self.low_arena.flat.nbytes)
            else:
                for name in names:
                    lower_precision(self.master_fp32[name], self.low_dtype,
                                    self.model_fp16[name])
            return
        for name in names if names is not None else self.master_fp32:
            self.model_fp16[name] = lower_precision(
                self.master_fp32[name], self.low_dtype
            )

    def drift(self) -> float:
        """Max |master - low-precision copy| — zero right after a sync,
        bounded by the format's rounding; tests use it to catch missed
        syncs."""
        worst = 0.0
        for name, master in self.master_fp32.items():
            worst = max(worst, float(np.max(np.abs(
                master - self.model_fp16[name]))))
        return worst
