"""Speculation-then-validation (STV), running for real (§4.4).

:class:`SynchronousEngine` is the classic synchronize-then-execute (STE)
baseline: wait for all gradients, run the global NaN/Inf and clipping
checks, then step.  :class:`STVEngine` steps *speculatively* per bucket as
gradients are produced and validates afterwards, rolling back when the
speculation was wrong — numerically equivalent to STE by construction,
which the tests assert over whole training runs including unstable
iterations.

In the real system the validation runs in a background process alongside
the next forward pass; the numeric engine executes it inline (determinism),
while the performance simulator (:mod:`repro.systems.superoffload`) models
the concurrency and its effect on the critical path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.exec.ops import parallel_scale
from repro.numeric.lowprec import land_grad
from repro.numeric.transformer import TinyTransformer
from repro.optim.implementations import AdamOptimizer, CPUAdam
from repro.optim.mixed_precision import (
    LossScaler,
    MixedPrecisionState,
    clip_coefficient,
    grad_sumsq,
    health_from_sums,
)
from repro.optim.rollback import RollbackStrategy, make_rollback
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.arena import FlatArena

Params = Dict[str, np.ndarray]


@dataclass(frozen=True)
class StepReport:
    """Per-iteration outcome record (the Fig. 14 event stream).

    Attributes:
        iteration: 0-based iteration index.
        loss: unscaled training loss of the forward pass.
        grad_norm: post-unscale global gradient norm (0.0 on overflow).
        overflow: NaN/Inf detected — iteration skipped (rollback scenario 1).
        clipped: clip threshold exceeded — update re-executed with clipped
            gradients (rollback scenario 2).
        rolled_back: a speculative update was reverted this iteration.
        loss_scale: scale in effect during the forward pass.
    """

    iteration: int
    loss: float
    grad_norm: float
    overflow: bool
    clipped: bool
    rolled_back: bool
    loss_scale: float


def _bucketize_names(params: Params, n_buckets: int) -> List[List[str]]:
    """Group parameter names into backward-production-order buckets.

    Backward produces gradients from the last layer backwards, so the
    *reversed* parameter list approximates production order; buckets are
    balanced by element count.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    names = list(reversed(list(params)))
    total = sum(params[n].size for n in names)
    target = total / n_buckets
    buckets: List[List[str]] = [[]]
    acc = 0
    for name in names:
        if acc >= target * len(buckets) and len(buckets) < n_buckets:
            buckets.append([])
        buckets[-1].append(name)
        acc += params[name].size
    return buckets


class _EngineBase:
    """Shared fp16-forward / fp32-master machinery of both engines."""

    def __init__(
        self,
        model: TinyTransformer,
        optimizer: AdamOptimizer,
        clip_norm: float | None = 1.0,
        loss_scaler: LossScaler | None = None,
        precision: str = "fp16",
        telemetry: Telemetry | None = None,
    ):
        if optimizer.params is not model.params:
            raise ValueError(
                "optimizer must be constructed over the model's parameters"
            )
        self.model = model
        self.optimizer = optimizer
        self.clip_norm = clip_norm
        self.precision = precision
        if loss_scaler is not None:
            self.scaler = loss_scaler
        elif precision == "bf16":
            # bf16 keeps fp32's exponent range: no scaling needed.
            self.scaler = LossScaler(init_scale=1.0, growth_interval=10**9)
        else:
            self.scaler = LossScaler()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tracer = self.telemetry.tracer
        self._metrics = self.telemetry.metrics
        # Move the master weights into a flat arena (a zero-copy wrap if a
        # lower layer already did) and give the optimizer arena-backed
        # moments; gradients land in a same-layout arena, and the
        # low-precision model copy (fp32 storage) gets one too, so the
        # per-step sync is a single flat rounding pass that the forward
        # reads directly.
        self.arena = FlatArena.wrap(model.params, telemetry=self.telemetry)
        if self.arena is None:
            self.arena = FlatArena.adopt(model.params,
                                         telemetry=self.telemetry)
        if self.optimizer.arena is None:
            self.optimizer.bind_arena(self.arena)
        self._grad_arena = self.arena.like()
        self.mp = MixedPrecisionState(
            master_fp32=model.params, low_dtype=precision
        )
        if self.mp.master_arena is not None:
            self.mp.master_arena.set_telemetry(self.telemetry)
            self.mp.low_arena.set_telemetry(self.telemetry)
        self.iteration = 0
        self.rollback_count = 0
        # Experiment hook: multiplies raw gradients before the fp16 round
        # trip, letting tests and the Fig. 14 trainer inject warm-up-style
        # gradient spikes (clipping) and overflows deterministically.
        self.grad_injection = 1.0

    def _forward_backward(
        self, ids: np.ndarray, targets: np.ndarray, grad_accum: int = 1
    ) -> tuple[float, Params, Dict[str, float]]:
        """Low-precision forward/backward with loss scaling and optional
        gradient accumulation.

        With ``grad_accum > 1`` the batch dimension is split into that many
        micro-batches (the paper's OOM-avoidance strategy 1, §5.2) and the
        unscaled fp32 gradients are averaged across them — the boundary
        where offloading engines transfer gradients.

        Returns (unscaled loss, unscaled fp32 gradients, each gradient's
        float64 sum of squares in the gradients' order).  Gradients are
        rounded to the training precision — exactly where a real mixed-
        precision backward produces them — so overflow genuinely occurs
        when the scale is too high or the batch is pathological; a sum is
        non-finite exactly when its gradient is, so the sums carry the
        overflow flag, each bucket's finiteness and the global norm.
        """
        if grad_accum < 1:
            raise ValueError("grad_accum must be >= 1")
        if ids.shape[0] % grad_accum:
            raise ValueError(
                f"batch {ids.shape[0]} not divisible by grad_accum {grad_accum}"
            )
        inv = np.float32(1.0 / self.scaler.scale)
        boost = np.float32(self.grad_injection)
        boost = None if boost == 1.0 else boost
        total_loss = 0.0
        accumulated: Params = {}
        grad_views = self._grad_arena.views
        all_in_arena = True
        with self._tracer.span("fwd_bwd", category="compute",
                               micro_batches=grad_accum):
            for micro_ids, micro_targets in zip(
                np.split(ids, grad_accum), np.split(targets, grad_accum)
            ):
                loss, grads = self.model.loss_and_grads(
                    micro_ids, micro_targets, params=self.mp.model_fp16,
                    loss_scale=self.scaler.scale,
                )
                total_loss += loss
                for name, g in grads.items():
                    out = accumulated.get(name)
                    if out is None:
                        # The first micro-batch lands straight in the
                        # gradient arena.
                        out = grad_views.get(name)
                        if out is None or out.shape != g.shape:
                            out = np.empty(g.shape, dtype=np.float32)
                            all_in_arena = False
                        land_grad(out, g, inv, self.precision, boost)
                        accumulated[name] = out
                    else:
                        land_grad(out, g, inv, self.precision, boost,
                                  accumulate=True)
        if all_in_arena and set(accumulated) == set(grad_views):
            # Re-emit in layout order so downstream flat fast paths can
            # recognise the dict as the arena (no array copies involved).
            accumulated = {
                name: accumulated[name]
                for name in self._grad_arena.layout.names
            }
            if grad_accum > 1:
                parallel_scale(self._grad_arena.flat,
                               np.float32(1.0 / grad_accum))
        elif grad_accum > 1:
            scale = np.float32(1.0 / grad_accum)
            for name in accumulated:
                accumulated[name] *= scale
        sums = {name: grad_sumsq(g) for name, g in accumulated.items()}
        return total_loss / grad_accum, accumulated, sums

    def _apply_clip(self, grads: Params, coef: float) -> Params:
        if coef == 1.0:
            return grads
        flat = self._grad_arena.flat_of(grads)
        if flat is not None:
            # Gradients live in the arena: clip is one in-place flat
            # multiply (same bits as the per-tensor out-of-place version).
            parallel_scale(flat, np.float32(coef))
            return grads
        return {k: (g * np.float32(coef)).astype(np.float32) for k, g in grads.items()}


class SynchronousEngine(_EngineBase):
    """Synchronize-then-execute (STE): the ZeRO-Offload ordering.

    The optimizer step waits for the *global* gradient checks — the very
    synchronization Fig. 3 shows exposing CPU work on the critical path.
    """

    def train_step(
        self, ids: np.ndarray, targets: np.ndarray, grad_accum: int = 1
    ) -> StepReport:
        """One STE training iteration (optionally micro-batched)."""
        loss, grads, sums = self._forward_backward(ids, targets, grad_accum)
        scale = self.scaler.scale
        with self._tracer.span("validate", category="validate"):
            health = health_from_sums(sums.values(), self.clip_norm)
        if health.has_nan_or_inf:
            self._metrics.counter("overflows_total").inc()
            self.scaler.update(found_overflow=True)
            report = StepReport(
                self.iteration, loss, 0.0, True, False, False, scale
            )
            self.iteration += 1
            return report
        coef = (
            clip_coefficient(health.global_norm, self.clip_norm)
            if self.clip_norm is not None
            else 1.0
        )
        with self._tracer.span("optimizer_step", category="optim"):
            self.optimizer.step(self._apply_clip(grads, coef))
        with self._tracer.span("cast", category="cast", direction="narrow"):
            self.mp.sync_model_copy()
        self.scaler.update(found_overflow=False)
        report = StepReport(
            self.iteration,
            loss,
            health.global_norm,
            False,
            health.clip_triggered,
            False,
            scale,
        )
        self.iteration += 1
        return report


class STVEngine(_EngineBase):
    """Speculation-then-validation (§4.4).

    Steps each gradient bucket the moment it is produced, validates the
    global conditions afterwards, and rolls back (in place) on the rare
    mis-speculation — preserving STE semantics exactly.

    Args:
        model: the numeric transformer.
        optimizer: Adam over the model's fp32 master weights.  Bucket-wise
            stepping requires per-tensor state, so :class:`CPUAdam`'s flat
            buffer is rejected.
        clip_norm: global-norm clipping threshold (None disables clipping).
        loss_scaler: dynamic loss scaler (fresh default if omitted).
        n_buckets: speculative stepping granularity (§4.3's buckets).
        rollback: rollback mechanism (snapshot is bit-exact; algebraic is
            the paper's in-place reconstruction).
        background_validation: run the global checks on the §4.4 background
            validator (a worker thread standing in for the paper's
            multiprocessing queue); semantics are identical, the verdict is
            simply produced off the calling thread.
    """

    def __init__(
        self,
        model: TinyTransformer,
        optimizer: AdamOptimizer,
        clip_norm: float | None = 1.0,
        loss_scaler: LossScaler | None = None,
        n_buckets: int = 4,
        rollback: RollbackStrategy = RollbackStrategy.SNAPSHOT,
        background_validation: bool = False,
        precision: str = "fp16",
        telemetry: Telemetry | None = None,
    ):
        if isinstance(optimizer, CPUAdam):
            raise TypeError(
                "STV steps buckets independently; CPUAdam's fused flat "
                "buffer cannot do that — use GraceAdam or ReferenceAdam"
            )
        super().__init__(model, optimizer, clip_norm, loss_scaler, precision,
                         telemetry)
        self.buckets = _bucketize_names(model.params, n_buckets)
        self.rollback_strategy = rollback
        self._rollbacks = [
            make_rollback(rollback, optimizer) for _ in self.buckets
        ]
        self._validator = None
        if background_validation:
            from repro.core.validator import BackgroundValidator

            self._validator = BackgroundValidator()

    def _bucket_grads(self, grads: Params, bucket: Sequence[str]) -> Params:
        return {name: grads[name] for name in bucket}

    def train_step(
        self, ids: np.ndarray, targets: np.ndarray, grad_accum: int = 1
    ) -> StepReport:
        """One STV training iteration (speculate, validate, maybe roll back).

        Args:
            ids: input token ids for the full per-step batch.
            targets: next-token targets.
            grad_accum: micro-batch count; gradients offload (and the
                speculative steps fire) only at the accumulation boundary.
        """
        loss, grads, sums = self._forward_backward(ids, targets, grad_accum)
        scale = self.scaler.scale

        # --- speculation: step each bucket as its gradients "arrive" -------
        # A bucket-local finiteness check guards the speculative step: it
        # needs no cross-bucket synchronization (unlike the *global* norm),
        # and it keeps non-finite values out of the optimizer state so the
        # in-place algebraic rollback stays exact.
        stepped: List[bool] = []
        with self._tracer.span("speculative_step", category="optim",
                               buckets=len(self.buckets)):
            for bucket, rollback in zip(self.buckets, self._rollbacks):
                bucket_grads = self._bucket_grads(grads, bucket)
                finite = all(math.isfinite(sums[name]) for name in bucket)
                if finite:
                    rollback.capture(bucket_grads)
                    self.optimizer.step(bucket_grads)
                stepped.append(finite)

        # --- validation (background process in the real system) ------------
        with self._tracer.span("validate", category="validate"):
            if self._validator is not None:
                # submitted to the worker while (in the real system) the GPU
                # would be running the next forward pass; the verdict is
                # joined before any parameter is consumed again.
                health = self._validator.submit(
                    list(sums.values()), self.clip_norm
                ).result()
            else:
                health = health_from_sums(sums.values(), self.clip_norm)

        rolled_back = False
        clipped = False
        if health.has_nan_or_inf:
            # Scenario 1: skip the iteration entirely (revert what stepped).
            with self._tracer.span("rollback", category="rollback",
                                   reason="overflow"):
                for bucket, rollback, did in zip(
                    self.buckets, self._rollbacks, stepped
                ):
                    if did:
                        rollback.rollback(self._bucket_grads(grads, bucket))
            rolled_back = True
            self.rollback_count += 1
            self._metrics.counter("rollbacks_total", reason="overflow").inc()
            self._metrics.counter("overflows_total").inc()
            self.scaler.update(found_overflow=True)
            report = StepReport(self.iteration, loss, 0.0, True, False, True, scale)
            self.iteration += 1
            return report
        if health.clip_triggered:
            # Scenario 2: revert, clip, re-execute.
            assert self.clip_norm is not None
            with self._tracer.span("rollback", category="rollback",
                                   reason="clip"):
                for bucket, rollback in zip(self.buckets, self._rollbacks):
                    rollback.rollback(self._bucket_grads(grads, bucket))
            coef = clip_coefficient(health.global_norm, self.clip_norm)
            clipped_grads = self._apply_clip(grads, coef)
            with self._tracer.span("optimizer_step", category="optim",
                                   clipped=True):
                for bucket in self.buckets:
                    self.optimizer.step(
                        self._bucket_grads(clipped_grads, bucket)
                    )
            rolled_back = True
            clipped = True
            self.rollback_count += 1
            self._metrics.counter("rollbacks_total", reason="clip").inc()
        else:
            for rollback in self._rollbacks:
                rollback.discard()

        with self._tracer.span("cast", category="cast", direction="narrow"):
            self.mp.sync_model_copy()
        self.scaler.update(found_overflow=False)
        report = StepReport(
            self.iteration, loss, health.global_norm, False, clipped,
            rolled_back, scale,
        )
        self.iteration += 1
        return report
