"""Real numeric training with STV and controlled instability (Fig. 14).

The paper validates STV by pre-training GPT-175B for 80k iterations and
counting rollbacks: frequent in the first ~1k warm-up iterations, then
0.12% of steps.  We reproduce the *dynamics* at tractable scale: a real
transformer on the synthetic Pile with an instability injector that makes
early iterations prone to gradient spikes and occasional overflow —
exercising both rollback scenarios — and record the loss curve plus the
rollback event stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.engine import SuperOffloadConfig, SuperOffloadEngine
from repro.core.stv import StepReport
from repro.data.synthetic import SyntheticPile
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.optim.mixed_precision import LossScaler
from repro.parallel.plan import ParallelPlan, PlanModel
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.workspace import ActivationWorkspace


@dataclass(frozen=True)
class InstabilityInjector:
    """Scales gradients upward during early training to provoke clipping
    and (rarely) fp16 overflow, mimicking warm-up instability.

    Attributes:
        warmup_iters: iterations over which the boost decays to zero.
        spike_probability: chance of a spike within the warm-up window.
        spike_scale: gradient multiplier during a spike.
        overflow_probability: chance a spike is violent enough to overflow
            fp16 at the current loss scale.
        seed: RNG seed for the event stream.
    """

    warmup_iters: int = 100
    spike_probability: float = 0.25
    spike_scale: float = 50.0
    overflow_probability: float = 0.03
    seed: int = 0

    def boost_for(self, iteration: int, rng: np.random.Generator) -> float:
        """Gradient multiplier for this iteration (1.0 = no injection)."""
        if iteration >= self.warmup_iters:
            # Post-warm-up: rare residual spikes (the 0.12% tail).
            if rng.random() < 0.002:
                return self.spike_scale
            return 1.0
        decay = 1.0 - iteration / self.warmup_iters
        if rng.random() < self.spike_probability * decay:
            if rng.random() < self.overflow_probability:
                return 1e6  # guaranteed fp16 overflow
            return self.spike_scale * decay + 1.0
        return 1.0


@dataclass
class TrainRecord:
    """Output of a training run: the Fig. 14 data."""

    losses: List[float] = field(default_factory=list)
    rollback_iterations: List[int] = field(default_factory=list)
    overflow_iterations: List[int] = field(default_factory=list)
    clip_iterations: List[int] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.losses)

    def rollback_rate(self, start: int = 0, stop: int | None = None) -> float:
        """Fraction of iterations in [start, stop) that rolled back."""
        stop = stop if stop is not None else self.n_iterations
        if stop <= start:
            return 0.0
        hits = sum(start <= i < stop for i in self.rollback_iterations)
        return hits / (stop - start)


class STVTrainer:
    """End-to-end numeric training loop with instability injection.

    Args:
        spec: model shape (defaults give a ~200k-parameter model).
        batch: batch size.
        config: engine configuration (STV on by default).
        injector: instability schedule (None trains cleanly).
        seed: data/model seed.
        telemetry: span/metric sink threaded down into the engine (no-op
            by default).
        attn_backend: must be ``"streaming"``, the one attention core
            (:mod:`repro.numeric.flash`).  The keyword stays only until the
            run-level benchmark stops passing it; the dense ``S x S``
            attention is the tolerance oracle in :mod:`repro.reference`,
            not a trainer option.
        use_workspace: back the model step with an
            :class:`~repro.tensors.workspace.ActivationWorkspace` so
            steady-state steps allocate no activation memory.
        plan: optional :class:`~repro.parallel.plan.ParallelPlan` routing
            the engine's forward/backward through the model-parallel axes
            (TP/PP/SP) via :class:`~repro.parallel.plan.PlanModel`.  The
            ``dp`` degree must be 1 — this trainer runs a single replica.
        n_microbatches: 1F1B microbatch count when ``plan.pp > 1``
            (defaults to the ``pp.microbatches`` tunable).
    """

    def __init__(
        self,
        spec: TransformerParams | None = None,
        batch: int = 8,
        config: SuperOffloadConfig | None = None,
        injector: InstabilityInjector | None = None,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        attn_backend: str = "streaming",
        use_workspace: bool = False,
        plan: "ParallelPlan | None" = None,
        n_microbatches: int | None = None,
    ):
        if attn_backend != "streaming":
            raise ValueError(
                f"attn_backend={attn_backend!r}: streaming is the only "
                "attention core; dense attention is the tolerance oracle "
                "in repro.reference"
            )
        self.spec = spec or TransformerParams(
            vocab=256, max_seq=32, hidden=64, n_layers=2, n_heads=4
        )
        if plan is not None:
            if plan.dp != 1:
                raise ValueError(
                    f"plan {plan.describe()} has dp={plan.dp}; the STV "
                    "trainer runs a single data-parallel replica"
                )
            if plan.pp > 1 and use_workspace:
                raise ValueError(
                    "use_workspace is incompatible with pipeline "
                    "parallelism (in-flight microbatches would alias "
                    "workspace buffers)"
                )
            plan.validate_model(self.spec)
        self.batch = batch
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.workspace = (
            ActivationWorkspace(telemetry=self.telemetry)
            if use_workspace
            else None
        )
        self.model = TinyTransformer(
            self.spec,
            seed=seed,
            workspace=self.workspace,
            telemetry=self.telemetry,
        )
        if config is None:
            # The clip threshold sits well above the natural gradient norm
            # (~2-3 for this model), so — as in a healthy large-scale run —
            # clipping fires on injected spikes, not on routine steps.
            config = SuperOffloadConfig(clip_norm=8.0)
        self.plan = plan
        # The engine sees the plan-routed wrapper: its fwd/bwd calls run
        # TP/PP-sharded, while arenas, casts, STV, and rollback plumbing
        # keep operating on the wrapped model's params via delegation.
        self.plan_model = (
            PlanModel(self.model, plan, n_microbatches=n_microbatches)
            if plan is not None and (plan.tp > 1 or plan.pp > 1)
            else None
        )
        self.engine = SuperOffloadEngine(
            self.plan_model if self.plan_model is not None else self.model,
            config,
            loss_scaler=LossScaler(init_scale=2.0**12, growth_interval=64),
            telemetry=self.telemetry,
        )
        self.injector = injector
        self.pile = SyntheticPile(self.spec.vocab, seed=seed)
        self._rng = np.random.default_rng(
            injector.seed if injector is not None else seed
        )
        self._batches = self.pile.batches(batch, self.spec.max_seq)

    def _inject(self, iteration: int) -> float:
        if self.injector is None:
            return 1.0
        return self.injector.boost_for(iteration, self._rng)

    def run(self, n_iterations: int) -> TrainRecord:
        """Train for ``n_iterations`` and collect the event record."""
        if n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        record = TrainRecord()
        metrics = self.telemetry.metrics
        for _ in range(n_iterations):
            ids, targets = next(self._batches)
            boost = self._inject(self.engine.iteration)
            with self.telemetry.tracer.span(
                "iteration", category="train", iteration=self.engine.iteration
            ):
                report = self._step_with_boost(ids, targets, boost)
            metrics.histogram("train_loss").observe(report.loss)
            metrics.counter("train_iterations_total").inc()
            record.losses.append(report.loss)
            if report.rolled_back:
                record.rollback_iterations.append(report.iteration)
            if report.overflow:
                record.overflow_iterations.append(report.iteration)
            if report.clipped:
                record.clip_iterations.append(report.iteration)
        return record

    def _step_with_boost(
        self, ids: np.ndarray, targets: np.ndarray, boost: float
    ) -> StepReport:
        """Run one step with the engine's gradient-injection hook set to
        ``boost`` (1.0 = clean step)."""
        inner = self.engine._inner
        inner.grad_injection = boost
        try:
            return self.engine.train_step(ids, targets)
        finally:
            inner.grad_injection = 1.0
