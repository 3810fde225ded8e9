"""The unified parallel plan: TP x PP x DP x SP in one object.

A :class:`ParallelPlan` names how many ways each axis shards —

* ``tp``: Megatron-style tensor parallelism (:mod:`repro.parallel.tensor`),
* ``pp``: 1F1B pipeline stages (:mod:`repro.parallel.pipeline`),
* ``dp``: data-parallel replicas (:mod:`repro.parallel.dp` + ZeRO),
* ``sp``: Ulysses sequence parallelism (:mod:`repro.parallel.ulysses`),

— validates the divisibility every axis needs against a concrete
:class:`~repro.numeric.transformer.TransformerParams`, builds the nested
:class:`~repro.parallel.comm.SimProcessGroup` communicators, and maps
global ranks to per-axis coordinates (tp fastest, then sp, pp, dp — the
Megatron group-nesting order, so a TP group is a contiguous rank block).

The same plan drives both worlds: the substrate executes it for real via
:class:`PlanModel` (which the DP/STV trainers route their
forward/backward through), and the simulator prices it via
:class:`repro.systems.pipeline_tp.PipelinedTP` — one plan, one
vocabulary, cross-checked bubble fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.numeric.transformer import Params, TinyTransformer, TransformerParams
from repro.parallel.comm import SimProcessGroup
from repro.parallel.pipeline import PipelinedTransformer
from repro.parallel.tensor import TensorParallelTransformer
from repro.telemetry import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class ParallelPlan:
    """How the world splits across the four parallelism axes.

    Attributes:
        tp: tensor-parallel degree (shards hidden/ffn/vocab widths and
            attention heads).
        pp: pipeline stages (shards layers; 1F1B schedule).
        dp: data-parallel replicas (shards the global batch).
        sp: Ulysses sequence-parallel degree (shards the sequence inside
            attention; divides each TP rank's head subset).
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    sp: int = 1

    def __post_init__(self) -> None:
        for axis, value in (
            ("tp", self.tp), ("pp", self.pp), ("dp", self.dp),
            ("sp", self.sp),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{axis} degree must be an int")
            if value < 1:
                raise ValueError(f"{axis} degree must be >= 1, got {value}")

    @property
    def world_size(self) -> int:
        """Total ranks the plan occupies."""
        return self.tp * self.pp * self.dp * self.sp

    def describe(self) -> str:
        """Compact label, e.g. ``"tp2.pp2.dp1.sp1"``."""
        return f"tp{self.tp}.pp{self.pp}.dp{self.dp}.sp{self.sp}"

    # -- rank geometry ------------------------------------------------------

    def coords(self, rank: int) -> Tuple[int, int, int, int]:
        """``(dp, pp, sp, tp)`` coordinates of a global rank.

        TP varies fastest (contiguous blocks — the highest-traffic axis
        maps to the tightest interconnect), then SP, then PP, then DP.
        """
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world size {self.world_size}"
            )
        tp_i = rank % self.tp
        rest = rank // self.tp
        sp_i = rest % self.sp
        rest //= self.sp
        pp_i = rest % self.pp
        dp_i = rest // self.pp
        return dp_i, pp_i, sp_i, tp_i

    def rank_of(self, dp_i: int, pp_i: int, sp_i: int, tp_i: int) -> int:
        """Inverse of :meth:`coords`."""
        for axis, i, n in (
            ("dp", dp_i, self.dp), ("pp", pp_i, self.pp),
            ("sp", sp_i, self.sp), ("tp", tp_i, self.tp),
        ):
            if not 0 <= i < n:
                raise ValueError(f"{axis} index {i} out of range (degree {n})")
        return ((dp_i * self.pp + pp_i) * self.sp + sp_i) * self.tp + tp_i

    # -- validation ---------------------------------------------------------

    def validate_model(
        self,
        spec: TransformerParams,
        global_batch: Optional[int] = None,
        n_microbatches: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> None:
        """Raise ``ValueError`` with a precise reason if the plan cannot
        execute this model shape (the divisibility contract)."""
        def need(total: int, degree: int, what: str, axis: str) -> None:
            if total % degree:
                raise ValueError(
                    f"plan {self.describe()}: {what} ({total}) not "
                    f"divisible by {axis} degree {degree}"
                )

        if self.tp > 1:
            need(spec.hidden, self.tp, "hidden width", "tp")
            need(spec.n_heads, self.tp, "attention heads", "tp")
            need(spec.hidden * spec.ffn_mult, self.tp, "ffn width", "tp")
            need(spec.vocab, self.tp, "vocabulary", "tp")
        if self.sp > 1:
            need(spec.n_heads // self.tp, self.sp,
                 "per-TP-rank attention heads", "sp")
            if seq is not None:
                need(seq, self.sp, "sequence length", "sp")
        if self.pp > spec.n_layers:
            raise ValueError(
                f"plan {self.describe()}: {spec.n_layers} layers cannot "
                f"fill {self.pp} pipeline stages"
            )
        if global_batch is not None:
            need(global_batch, self.dp, "global batch", "dp")
            if n_microbatches is not None:
                need(global_batch // self.dp, n_microbatches,
                     "per-replica batch", "pp microbatch count")

    # -- group construction -------------------------------------------------

    def build_groups(
        self, telemetry: Optional[Telemetry] = None
    ) -> "PlanGroups":
        """Instantiate the per-axis communicators (shared telemetry)."""
        t = telemetry if telemetry is not None else NULL_TELEMETRY
        return PlanGroups(
            plan=self,
            tp_group=SimProcessGroup(self.tp, telemetry=t),
            pp_group=SimProcessGroup(self.pp, telemetry=t),
            dp_group=SimProcessGroup(self.dp, telemetry=t),
            sp_group=SimProcessGroup(self.sp, telemetry=t),
        )

    # -- enumeration (the bench grid) ----------------------------------------

    @staticmethod
    def enumerate(
        world_size: int,
        spec: Optional[TransformerParams] = None,
        include_sp: bool = False,
    ) -> List["ParallelPlan"]:
        """Every factorization ``tp*pp*dp(*sp) == world_size``.

        With ``spec``, plans the model shape cannot execute are filtered
        out (:meth:`validate_model`).  SP factors are included only on
        request — the bench sweeps TPxPPxDP by default.
        """
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        plans: List[ParallelPlan] = []
        for tp in _divisors(world_size):
            for pp in _divisors(world_size // tp):
                rest = world_size // (tp * pp)
                sps = _divisors(rest) if include_sp else (1,)
                for sp in sps:
                    plan = ParallelPlan(
                        tp=tp, pp=pp, dp=rest // sp, sp=sp
                    )
                    if spec is not None:
                        try:
                            plan.validate_model(spec)
                        except ValueError:
                            continue
                    plans.append(plan)
        return plans


def _divisors(n: int) -> Tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@dataclass
class PlanGroups:
    """The instantiated communicators of one plan."""

    plan: ParallelPlan
    tp_group: SimProcessGroup
    pp_group: SimProcessGroup
    dp_group: SimProcessGroup
    sp_group: SimProcessGroup


class PlanModel:
    """A plan-routed drop-in for ``TinyTransformer.loss_and_grads``.

    Wraps an unsharded model and executes its step according to the
    plan's model-parallel axes: through
    :class:`~repro.parallel.pipeline.PipelinedTransformer` when
    ``pp > 1`` (with TP inside each stage when also ``tp > 1``), through
    :class:`~repro.parallel.tensor.TensorParallelTransformer` when only
    ``tp > 1`` (optionally SP-composed), and straight through the model
    when neither shards.  The DP axis is *not* executed here — the
    data-parallel trainers own batch sharding and gradient reduction;
    they route each replica's forward/backward through this wrapper.

    Supports the ``params=`` override the mixed-precision engines use by
    rebuilding the sharded executors against the override (sharding is
    slicing, so this is exact), and attribute access falls through to the
    wrapped model so engine plumbing (``params``, ``spec``, arenas) keeps
    working.

    Args:
        model: the unsharded reference model.
        plan: the parallel plan (``dp`` is ignored here by design).
        groups: pre-built communicators (defaults to fresh ones sharing
            the model's telemetry).
        n_microbatches: 1F1B microbatch count when ``pp > 1`` (defaults
            to the ``pp.microbatches`` tunable).
    """

    def __init__(
        self,
        model: TinyTransformer,
        plan: ParallelPlan,
        groups: Optional[PlanGroups] = None,
        n_microbatches: Optional[int] = None,
    ):
        plan.validate_model(model.spec)
        if plan.pp > 1 and model.workspace is not None:
            raise ValueError(
                "pipeline parallelism cannot run over a workspace-backed "
                "model (in-flight microbatches would alias buffers)"
            )
        self._model = model
        self.plan = plan
        self.groups = (
            groups if groups is not None
            else plan.build_groups(model.telemetry)
        )
        self.n_microbatches = n_microbatches
        self._executor = self._build_executor(model)
        self._last_executor = self._executor

    def _build_executor(self, model: TinyTransformer):
        plan, groups = self.plan, self.groups
        if plan.pp > 1:
            return PipelinedTransformer(
                model, groups.pp_group,
                tp_group=groups.tp_group if plan.tp > 1 else None,
            )
        if plan.tp > 1:
            return TensorParallelTransformer(
                model, groups.tp_group,
                sp_group=groups.sp_group if plan.sp > 1 else None,
            )
        return None

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def loss_and_grads(
        self,
        ids: np.ndarray,
        targets: np.ndarray,
        params: Optional[Params] = None,
        loss_scale: float = 1.0,
    ) -> Tuple[float, Params]:
        """The plan-routed step; same signature/contract as the model's.

        Gradients come back keyed exactly like the unsharded model's, so
        optimizers, ZeRO sharding, and clipping consume them unchanged.
        """
        plan = self.plan
        if plan.tp == 1 and plan.pp == 1:
            return self._model.loss_and_grads(
                ids, targets, params=params, loss_scale=loss_scale
            )
        model = self._model
        executor = self._executor
        swapped = False
        if params is not None and params is not model.params:
            # The sharded executors slice weights at construction; rebuild
            # them over the override (exact — sharding is pure slicing).
            original = model.params
            model.params = params  # type: ignore[assignment]
            swapped = True
            executor = self._build_executor(model)
        self._last_executor = executor
        try:
            if plan.pp > 1:
                return executor.loss_and_grads(
                    ids, targets,
                    n_microbatches=self.n_microbatches,
                    loss_scale=loss_scale,
                )
            return executor.loss_and_grads(
                ids, targets, loss_scale=loss_scale
            )
        finally:
            if swapped:
                model.params = original  # type: ignore[assignment]

    def measured_bubble_fraction(self) -> float:
        """Forwarded from the pipelined executor (``pp > 1`` only)."""
        if self.plan.pp <= 1:
            raise RuntimeError(
                f"plan {self.plan.describe()} has no pipeline axis"
            )
        # The params-override path runs a rebuilt executor; the measured
        # durations live on whichever executor stepped last.
        return self._last_executor.measured_bubble_fraction()
