"""The four training workloads: two STV engine runs, two ZeRO runs."""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Dict, List

from bench import stats, trace
from bench.workloads.base import (
    WARMUP_OPS, Context, SpanView, Window, Workload, pool_workers, sized,
    timed_ops,
)

_POOL_SPANS = ("exec.pool_run", "exec.pool_wait_all", "exec.future_result")
_ADAM_SPANS = ("optim.adam_step", "optim.adam_chunk")

#: Fewest steps after which the loss must have come down.
PROGRESS_STEPS = 20


def _model_flops(param_count: int, spec, tokens: int) -> float:
    """6*params*tokens dense + 12*layers*hidden*seq per token attention
    (forward + backward), the accounting ``systems/base.py`` uses."""
    attention = 12.0 * spec.n_layers * spec.hidden * spec.max_seq
    return (6.0 * param_count + attention) * tokens


def _step_metrics(view: SpanView, step_ms: List[float], flops: float,
                  self_span: str) -> Dict[str, float]:
    """Layer metrics every training workload reports."""
    step_total = sum(step_ms)
    fwd_bwd = view.ms_per_op("numeric.loss_and_grads")
    attention = view.ms_per_op("numeric.attend", "numeric.attend_backward")
    adam = view.named(*_ADAM_SPANS)
    adam_s = trace.total_seconds(adam)
    adam_elems = sum(s[trace.VALUE] or 0 for s in adam)
    step_self = view.self_ms_per_op(self_span)
    n = view.n_ops
    return {
        "data.batch_ms": view.ms_per_op("data.sample_tokens"),
        "numeric.fwd_bwd_ms": fwd_bwd,
        "numeric.fwd_bwd_share": fwd_bwd * n / step_total,
        "numeric.attention_ms": attention,
        "numeric.attention_share": attention * n / step_total,
        "numeric.model_flops_per_step": flops,
        "numeric.achieved_gflops": flops / (fwd_bwd * 1e-3) / 1e9,
        "optim.adam_ms": adam_s * 1e3 / n,
        "optim.adam_melem_per_s": adam_elems / adam_s / 1e6 if adam_s else 0,
        "exec.workers": pool_workers(),
        "exec.pool_calls": view.count(*_POOL_SPANS),
        "exec.pool_wait_ms": view.ms_per_op(*_POOL_SPANS),
        "training.step_self_ms": step_self,
        "training.step_self_share": step_self * n / step_total,
        "training.step_ms_tail": stats.tail(step_ms),
        "training.step_tail_pct": stats.tail_pct(len(step_ms)) or 100.0,
    }


class TrainSTV(Workload):
    """``STVTrainer`` with the instability injector (real rollbacks)."""

    def __init__(self, name: str, why: str, spec: Dict[str, int],
                 batch: int, trainer_args: Dict[str, Any],
                 steps_per_second: float):
        self.name, self.why = name, why
        self._spec_args, self.batch = spec, batch
        self._trainer_args = trainer_args
        self._rate = steps_per_second
        self.trainer = None

    def _trainer(self, ctx: Context, config=None, telemetry=None):
        from repro.training import STVTrainer
        from repro.training.stv_trainer import InstabilityInjector

        return STVTrainer(
            self.spec, batch=self.batch, config=config,
            injector=InstabilityInjector(warmup_iters=12, seed=ctx.seed),
            seed=ctx.seed, telemetry=telemetry, **self._trainer_args,
        )

    def build(self, ctx: Context) -> None:
        from repro.numeric.transformer import TransformerParams

        self.spec = TransformerParams(**self._spec_args)
        self.trainer = self._trainer(ctx, telemetry=ctx.telemetry)
        self.records: List[Any] = []

    def _step(self, _i: int = 0) -> bool:
        record = self.trainer.run(1)
        self.records.append(record)
        return math.isfinite(record.losses[-1])

    def warmup(self, ctx: Context) -> None:
        for _ in range(WARMUP_OPS):
            self._step()

    def run(self, ctx: Context) -> Window:
        n = sized(ctx, self._rate, floor=20, quick=4)
        window = Window()
        allocated = ctx.counter("workspace_bytes_allocated")
        window.start = time.perf_counter()
        durations = timed_ops(ctx, window, n, self._step)
        window.end = time.perf_counter()
        window.op_ms = [d * 1e3 for d in durations]
        window.work = self.batch * self.spec.max_seq * n
        window.notes["workspace_bytes"] = \
            ctx.counter("workspace_bytes_allocated") - allocated
        return window

    def check(self, ctx: Context, window: Window) -> List[str]:
        """STV is exact: a synchronous (``stv=False``) twin on the same
        seed and injector reproduces the first losses bit for bit; and
        training stayed finite and made progress."""
        failures = []
        losses = self.trainer.engine.losses()
        twin_steps = 4
        twin = self._trainer(ctx, config=dataclasses.replace(
            self.trainer.engine.config, stv=False))
        twin_losses = twin.run(twin_steps).losses
        if twin_losses != losses[:twin_steps]:
            failures.append(
                f"stv=False twin losses {twin_losses} != "
                f"{losses[:twin_steps]}")
        if not all(math.isfinite(x) for x in losses):
            failures.append(f"non-finite loss in {losses}")
        # Single-step losses swing with the batch's source mixture and
        # the injected spikes, so progress is read off the last five;
        # a --quick run is too short to have made any.
        recent = stats.median(losses[-5:])
        if len(losses) >= PROGRESS_STEPS and not recent < losses[0]:
            failures.append(
                f"median of the last five losses {recent} is not below "
                f"the first {losses[0]}")
        return failures

    def layer_metrics(self, ctx: Context, window: Window,
                      view: SpanView) -> Dict[str, float]:
        records = self.records[WARMUP_OPS:]
        rolled = [bool(r.rollback_iterations) for r in records]
        dirty = [ms for ms, hit in zip(window.op_ms, rolled) if hit]
        clean = [ms for ms, hit in zip(window.op_ms, rolled) if not hit]
        flops = _model_flops(self.trainer.model.param_count(), self.spec,
                             self.batch * self.spec.max_seq)
        out = _step_metrics(view, window.op_ms, flops, "training.stv_run")
        out.update({
            "core.engine_self_ms": view.self_ms_per_op("core.train_step"),
            "core.rollbacks": sum(rolled),
            "core.overflows": sum(
                bool(r.overflow_iterations) for r in records),
            "core.clips": sum(bool(r.clip_iterations) for r in records),
            "core.rollback_extra_ms":
                stats.median(dirty) - stats.median(clean)
                if dirty and clean else 0.0,
            "optim.rollback_capture_ms":
                view.ms_per_op("optim.rollback_capture"),
            "optim.rollback_restore_ms":
                view.ms_per_op("optim.rollback_restore"),
            "tensors.workspace_alloc_mb":
                window.notes["workspace_bytes"] / view.n_ops / 1e6,
        })
        return out


class TrainZero(Workload):
    """``DataParallelTrainer`` over four simulated ranks, ZeRO-sharded
    Adam resident in memory or streamed through the disk tier."""

    WORLD = 4
    BATCH = 4
    CKPT_EVERY = 4
    SPEC = dict(vocab=2048, max_seq=16, hidden=384, n_layers=4, n_heads=8)

    def __init__(self, name: str, why: str, disk: bool,
                 steps_per_second: float):
        self.name, self.why, self.disk = name, why, disk
        self._rate = steps_per_second
        self.trainer = None

    def _trainer(self, ctx: Context, **kwargs):
        from repro.training import DataParallelTrainer

        return DataParallelTrainer(
            self.spec, clip_norm=1.0, seed=ctx.seed, **kwargs)

    def _batches(self, ctx: Context, batch: int):
        from repro.data.synthetic import SyntheticPile

        return SyntheticPile(self.spec.vocab, seed=ctx.seed).batches(
            batch, self.spec.max_seq)

    def build(self, ctx: Context) -> None:
        from repro.numeric.transformer import TransformerParams

        self.spec = TransformerParams(**self.SPEC)
        extra: Dict[str, Any] = {}
        if self.disk:
            extra = dict(offload="disk", spill_dir=str(ctx.out / "spill"))
        self.trainer = self._trainer(
            ctx, world_size=self.WORLD, pipeline=True,
            telemetry=ctx.telemetry, **extra)
        if self.disk:
            self.trainer.attach_checkpointer(
                str(ctx.out / "ckpt"), every=self.CKPT_EVERY)
        self.batches = self._batches(ctx, self.BATCH)
        self.losses: List[float] = []

    def _step(self, _i: int = 0) -> bool:
        report = self.trainer.train_step(*next(self.batches))
        self.losses.append(report.loss)
        return math.isfinite(report.loss)

    def warmup(self, ctx: Context) -> None:
        for _ in range(WARMUP_OPS):
            self._step()
        if self.disk:
            # The check's resident twin is compared at this point.
            self.warm_master = self.trainer.arena.flat.copy()

    def run(self, ctx: Context) -> Window:
        n = sized(ctx, self._rate, floor=20, quick=2)
        # End on a checkpoint step so the last commit holds the final
        # weights and the check can compare them bit for bit.
        n += -(n + WARMUP_OPS) % self.CKPT_EVERY
        window = Window()
        before = {c: ctx.counter(c) for c in (
            "spill_bytes_read", "spill_bytes_written",
            "checkpoints_committed")}
        window.start = time.perf_counter()
        durations = timed_ops(ctx, window, n, self._step)
        t0 = time.perf_counter()
        with ctx.op_span(n):
            self.trainer.finish_checkpoints()
        window.end = time.perf_counter()
        window.op_ms = [d * 1e3 for d in durations]
        window.work = self.BATCH * self.spec.max_seq * n
        window.notes.update(
            {c: ctx.counter(c) - v for c, v in before.items()})
        window.notes["drain_ms"] = (window.end - t0) * 1e3
        return window

    def check(self, ctx: Context, window: Window) -> List[str]:
        if self.disk:
            return self._check_disk(ctx)
        return self._check_resident(ctx)

    def _check_resident(self, ctx: Context) -> List[str]:
        """The plain single-worker baseline: ``world_size=1`` over the
        full batch gives the same losses (to reduction order)."""
        twin = self._trainer(ctx, world_size=1)
        batches = self._batches(ctx, self.BATCH)
        failures = []
        for step in range(3):
            loss = twin.train_step(*next(batches)).loss
            rel = abs(loss - self.losses[step]) / abs(loss)
            if not rel <= 1e-4:
                failures.append(
                    f"step {step}: world_size=1 loss {loss} vs "
                    f"{self.losses[step]} (rel {rel:.2e})")
        return failures

    def _check_disk(self, ctx: Context) -> List[str]:
        """Disk offload is bitwise identical to resident moments, and
        the manifest names a slot holding the final state."""
        import numpy as np

        failures = []
        twin = self._trainer(ctx, world_size=self.WORLD, pipeline=True)
        batches = self._batches(ctx, self.BATCH)
        for _ in range(WARMUP_OPS):
            twin.train_step(*next(batches))
        if not np.array_equal(twin.arena.flat, self.warm_master):
            failures.append(
                "resident twin's master weights differ from the "
                f"disk run's after {WARMUP_OPS} steps")
        info = self.trainer.checkpointer.latest()
        total = self.trainer.arena.layout.total
        if info is None or info.step != self.trainer.iteration:
            failures.append(
                f"manifest names {info and info.step}, expected step "
                f"{self.trainer.iteration}")
            return failures
        planes = {name: np.empty(total, dtype=np.float32)
                  for name in ("master", "m", "v")}
        self.trainer.checkpointer.restore(planes)
        live = dict(self.trainer.optimizer.moment_planes(),
                    master=self.trainer.arena.flat)
        for name, restored in planes.items():
            if not np.array_equal(restored, live[name]):
                failures.append(
                    f"checkpoint slot {info.slot} plane {name!r} does "
                    "not hold the final state")
        return failures

    def layer_metrics(self, ctx: Context, window: Window,
                      view: SpanView) -> Dict[str, float]:
        tokens = self.BATCH * self.spec.max_seq
        flops = _model_flops(self.trainer.model.param_count(), self.spec,
                             tokens)
        out = _step_metrics(view, window.op_ms, flops,
                            "training.dp_train_step")
        zero = view.ms_per_op("parallel.zero_step")
        saves = view.named("training.ckpt_save")
        n = view.n_ops
        out.update({
            "tensors.arena_fill_ms": view.ms_per_op("tensors.arena_fill"),
            "tensors.spill_read_mb":
                window.notes["spill_bytes_read"] / n / 1e6,
            "tensors.spill_write_mb":
                window.notes["spill_bytes_written"] / n / 1e6,
            "tensors.spill_wait_ms": view.ms_per_op("tensors.spill_wait"),
            "parallel.zero_step_ms": zero,
            "parallel.zero_share": zero * n / sum(window.op_ms),
            "parallel.collective_calls":
                len(view.values("parallel.count_payload")),
            "parallel.collective_mb":
                sum(view.values("parallel.count_payload")) / n / 1e6,
            "parallel.reduce_ms": view.ms_per_op("parallel.reduce"),
            "parallel.gather_ms": view.ms_per_op("parallel.gather"),
            "training.ckpt_save_ms":
                trace.total_seconds(saves) * 1e3 / len(saves)
                if saves else 0.0,
            "training.ckpt_commits": window.notes["checkpoints_committed"],
            "training.ckpt_drain_ms": window.notes["drain_ms"],
        })
        return out

    def close(self) -> None:
        if self.trainer is None:
            return
        if self.trainer.checkpointer is not None:
            self.trainer.checkpointer.close()
        self.trainer.optimizer.close_spill()
