"""Numeric multi-rank data-parallel training (§4.7 ZeRO-3 integration).

Runs the real numpy transformer across simulated data-parallel ranks: each
rank's backward writes its gradients into its persistent gradient arena,
and the ZeRO-sharded optimizer (each rank owns 1/N of the fp32 master and
moment state, exactly the partition-before-offload layout of §4.7) does
the rest in one pass per gradient byte — one reduce-scatter whose output
feeds both the global NaN/Inf + norm check (§4.4) and the shard Adam.

The tests assert the distributed run is numerically equivalent to a
single-rank run over the full batch — the invariant that makes the paper's
multi-superchip extension a pure memory/performance change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.synthetic import SyntheticPile
from repro.exec.pool import KernelPool
from repro.numeric.lowprec import round_fp16
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.optim.adam import AdamConfig
from repro.parallel.comm import SimProcessGroup
from repro.parallel.dp import shard_batch
from repro.parallel.plan import ParallelPlan, PlanModel
from repro.parallel.zero import ZeroShardedAdam
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.pinned import PinnedBufferPool
from repro.tensors.workspace import ActivationWorkspace


@dataclass(frozen=True)
class DPStepReport:
    """Per-iteration record of the distributed trainer.

    Attributes:
        iteration: 0-based step index.
        loss: mean of the ranks' losses.
        grad_norm: L2 norm of the averaged fp32 gradient the shard Adam
            consumes (the reduce-scatter's output, before clipping);
            ``0.0`` on a skipped step.
        clipped: the norm exceeded ``clip_norm`` and the update used the
            rescaled gradient.
        skipped: the averaged gradient held a NaN/Inf, so no update was
            applied — master weights, moments, step counters and the
            fp16 copy keep their pre-step bits.
    """

    iteration: int
    loss: float
    grad_norm: float
    clipped: bool
    skipped: bool = False


class DataParallelTrainer:
    """ZeRO-style data-parallel training over simulated ranks.

    Args:
        spec: model shape.
        world_size: simulated rank count (global batch must divide by it).
        adam: optimizer hyperparameters.
        clip_norm: global gradient clipping threshold (None disables).
        seed: model initialization seed.
        telemetry: span/metric sink shared with the communicator and the
            sharded optimizer (no-op by default).
        use_workspace: back the per-rank forward/backward with an
            :class:`~repro.tensors.workspace.ActivationWorkspace`.  Safe
            across the rank loop because a rank's gradients never live
            in the workspace (they land in its gradient arena, or in
            fresh arrays on a plan-routed step) — only the activations
            between a rank's forward and backward live in the reused
            buffers.
        pipeline: overlap the sharded optimizer's bucket reduce with the
            shard Adam (forwarded to :class:`ZeroShardedAdam`; bitwise
            identical to the serial step).
        bucket_elements: pipelined bucket size (forwarded).
        pool: kernel pool the overlapped step runs on (forwarded;
            ``None`` uses the process default).
        pinned_pool: pinned pool the optimizer's reduced plane and disk
            slot ring are reserved from (forwarded).
        offload: ``"none"`` or ``"disk"`` — spill the optimizer's (m, v)
            moment planes to ``spill_dir`` (forwarded to
            :class:`ZeroShardedAdam`; bitwise identical to resident).
        spill_dir: spill directory for ``offload="disk"`` (forwarded).
        plan: optional :class:`~repro.parallel.plan.ParallelPlan` routing
            each replica's forward/backward through the model-parallel
            axes (TP/PP/SP) via :class:`~repro.parallel.plan.PlanModel`.
            Its ``dp`` degree must equal ``world_size`` — this trainer's
            rank loop *is* the data-parallel axis.  ``None`` keeps the
            plain unsharded step.
        n_microbatches: 1F1B microbatch count when ``plan.pp > 1``
            (defaults to the ``pp.microbatches`` tunable).
    """

    def __init__(
        self,
        spec: TransformerParams,
        world_size: int,
        adam: AdamConfig | None = None,
        clip_norm: float | None = None,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        use_workspace: bool = False,
        pipeline: bool = False,
        bucket_elements: int | None = None,
        pool: "KernelPool | None" = None,
        pinned_pool: "PinnedBufferPool | None" = None,
        offload: str = "none",
        spill_dir: "str | None" = None,
        plan: "ParallelPlan | None" = None,
        n_microbatches: int | None = None,
    ):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if plan is not None:
            if plan.dp != world_size:
                raise ValueError(
                    f"plan {plan.describe()} has dp={plan.dp}; the trainer's "
                    f"world_size ({world_size}) is the data-parallel axis"
                )
            if plan.pp > 1 and use_workspace:
                raise ValueError(
                    "use_workspace is incompatible with pipeline "
                    "parallelism (in-flight microbatches would alias "
                    "workspace buffers)"
                )
            plan.validate_model(spec)
        self.spec = spec
        self.world_size = world_size
        self.clip_norm = clip_norm
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.workspace = (
            ActivationWorkspace(telemetry=self.telemetry)
            if use_workspace
            else None
        )
        self.model = TinyTransformer(
            spec,
            seed=seed,
            workspace=self.workspace,
            telemetry=self.telemetry,
        )
        self.group = SimProcessGroup(world_size, telemetry=self.telemetry)
        self.plan = plan
        # Each replica's forward/backward runs through the plan's
        # model-parallel axes; the rank loop below stays the DP axis.
        self.plan_model = (
            PlanModel(self.model, plan, n_microbatches=n_microbatches)
            if plan is not None and (plan.tp > 1 or plan.pp > 1)
            else None
        )
        self.optimizer = ZeroShardedAdam(
            self.model.params, world_size, config=adam or AdamConfig(),
            telemetry=self.telemetry, pipeline=pipeline,
            bucket_elements=bucket_elements, pool=pool,
            pinned_pool=pinned_pool, offload=offload, spill_dir=spill_dir,
        )
        # The sharded optimizer adopted the params into a flat arena; the
        # fp16 model copy every rank's forward reads is a same-layout fp32
        # plane of fp16 values, refreshed by one rounding pass per
        # applied step (stable views).
        self.arena = self.optimizer.arena
        self._model_arena = self.arena.like()
        self._model_copy = dict(self._model_arena.views)
        self._sync_model_copy()
        self.iteration = 0
        self._checkpointer = None
        self._ckpt_every = 1

    def attach_checkpointer(
        self,
        directory: str,
        every: int = 1,
        pinned_pool: "PinnedBufferPool | None" = None,
    ):
        """Checkpoint (master, m, v, counters) every ``every`` steps.

        The returned :class:`AsyncCheckpointer` streams snapshots to
        ``directory`` through the spill writer while training continues;
        only the capture memcpy runs on the step's critical path.
        """
        from repro.training.checkpoint import AsyncCheckpointer

        if every < 1:
            raise ValueError("every must be >= 1")
        total = self.arena.layout.total
        self._checkpointer = AsyncCheckpointer(
            directory,
            {"master": total, "m": total, "v": total},
            pinned_pool=pinned_pool,
            telemetry=self.telemetry,
        )
        self._ckpt_every = every
        return self._checkpointer

    @property
    def checkpointer(self):
        """The attached :class:`AsyncCheckpointer`, or ``None``."""
        return self._checkpointer

    def resume_latest(self) -> bool:
        """Restore the latest committed checkpoint, if any.

        Returns ``True`` when a checkpoint was restored: the master
        plane, the optimizer moments and step counters, and the
        iteration counter come back exactly as committed, and the fp16
        copy is refreshed from the master — the same rounding the end of
        the checkpointed step performed, so the continuation is
        bit-identical to a run that was never interrupted.
        """
        if self._checkpointer is None:
            raise RuntimeError("attach_checkpointer first")
        info = self._checkpointer.latest()
        if info is None:
            return False
        total = self.arena.layout.total
        m = np.empty(total, dtype=np.float32)
        v = np.empty(total, dtype=np.float32)
        self._checkpointer.restore(
            {"master": self.arena.flat, "m": m, "v": v}
        )
        self.optimizer.load_moments(m, v, info.meta["shard_steps"])
        self.iteration = int(info.meta["iteration"])
        self._sync_model_copy()
        return True

    def _sync_model_copy(self) -> None:
        """Round the master into the fp16 model copy (fp32 storage)."""
        round_fp16(self.arena.flat, self._model_arena.flat)

    def _maybe_checkpoint(self) -> None:
        if self._checkpointer is None:
            return
        if self.iteration % self._ckpt_every != 0:
            return
        planes = {"master": self.arena.flat}
        planes.update(self.optimizer.moment_planes())
        self._checkpointer.save(
            self.iteration, planes,
            meta={
                "iteration": self.iteration,
                "shard_steps": self.optimizer.shard_steps(),
            },
        )

    def finish_checkpoints(self) -> None:
        """Wait for every in-flight checkpoint commit (end of run)."""
        if self._checkpointer is not None:
            self._checkpointer.wait()

    def train_step(self, ids: np.ndarray, targets: np.ndarray) -> DPStepReport:
        """One synchronous data-parallel iteration over the global batch."""
        with self.telemetry.tracer.span(
            "train_step", category="step", iteration=self.iteration
        ):
            report = self._step(ids, targets)
            # Capture inside the step window so the profiler attributes
            # the (only) synchronous checkpoint cost to its own phase.
            self._maybe_checkpoint()
        return report

    def _step(self, ids: np.ndarray, targets: np.ndarray) -> DPStepReport:
        tracer = self.telemetry.tracer
        shards = shard_batch(ids, targets, self.world_size)
        params = self._model_copy
        # each rank's backward output buffer, and the optimizer's input
        grad_arenas = [
            self.optimizer.grad_arena(r) for r in range(self.world_size)
        ]
        losses = []
        with tracer.span("fwd_bwd", category="compute",
                         ranks=self.world_size):
            for ga, (rank_ids, rank_targets) in zip(grad_arenas, shards):
                if self.plan_model is None:
                    # backward writes this rank's gradients where the
                    # reduce-scatter reads them: no copy, no allocation
                    loss, _ = self.model.loss_and_grads(
                        rank_ids, rank_targets, params=params,
                        grads_out=ga.views,
                    )
                else:
                    loss, grads = self.plan_model.loss_and_grads(
                        rank_ids, rank_targets, params=params
                    )
                    ga.fill_from(grads)
                losses.append(loss)
        # Global validation on what every rank agrees on — the reduced
        # gradient — and the update, in one pass over the arenas.
        health = self.optimizer.step_flat(
            [ga.flat for ga in grad_arenas],
            validate=True, clip_norm=self.clip_norm,
        )
        skipped = health.has_nan_or_inf
        if not skipped:
            with tracer.span("cast", category="cast", direction="narrow"):
                self._sync_model_copy()
                self._model_arena.note_alias(self._model_arena.flat.nbytes)
        report = DPStepReport(
            iteration=self.iteration,
            loss=float(np.mean(losses)),
            grad_norm=health.global_norm,
            clipped=health.clip_triggered,
            skipped=skipped,
        )
        metrics = self.telemetry.metrics
        metrics.histogram("dp_train_loss").observe(report.loss)
        if report.clipped:
            metrics.counter("dp_clips_total").inc()
        if skipped:
            metrics.counter("dp_overflow_skips_total").inc()
        self.iteration += 1
        return report

    def train(self, n_iterations: int, batch: int, seed: int = 0) -> List[DPStepReport]:
        """Convenience loop over the synthetic Pile."""
        if n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        pile = SyntheticPile(self.spec.vocab, seed=seed)
        gen = pile.batches(batch, self.spec.max_seq)
        return [self.train_step(*next(gen)) for _ in range(n_iterations)]

    def train_to(
        self, total_iterations: int, batch: int, seed: int = 0
    ) -> List[DPStepReport]:
        """Train until ``total_iterations`` steps have run *in total*.

        The synthetic batch stream is deterministic in ``seed``, so a
        resumed trainer fast-forwards past the ``self.iteration`` batches
        its checkpointed past already consumed and continues on exactly
        the data an uninterrupted run would have seen.
        """
        if total_iterations < self.iteration:
            raise ValueError(
                f"already at iteration {self.iteration} > "
                f"{total_iterations}"
            )
        pile = SyntheticPile(self.spec.vocab, seed=seed)
        gen = pile.batches(batch, self.spec.max_seq)
        for _ in range(self.iteration):
            next(gen)
        return [
            self.train_step(*next(gen))
            for _ in range(total_iterations - self.iteration)
        ]
