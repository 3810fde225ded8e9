"""Optimizers: the Adam family the paper benchmarks (Table 3), the
mixed-precision machinery offloading interacts with (§4.5), and the exact
rollback primitives behind speculation-then-validation (§4.4).

All three Adam implementations — :class:`ReferenceAdam` (PyTorch-native
"PT-CPU" analogue), :class:`CPUAdam` (DeepSpeed's fused flat-buffer x86
design), and :class:`GraceAdam` (the paper's SVE-style tiled ARM design) —
compute *identical* updates; they differ in execution strategy and in their
calibrated latency models.
"""

from repro.optim.adam import AdamConfig, AdamParamState, adam_apply, adam_invert
from repro.optim.implementations import (
    AdamOptimizer,
    CPUAdam,
    GraceAdam,
    ReferenceAdam,
    make_optimizer,
)
from repro.optim.kernels import adam_latency_seconds, adam_latency_table
from repro.optim.mixed_precision import (
    GradientHealth,
    LossScaler,
    MixedPrecisionState,
    check_gradients,
    clip_coefficient,
    global_grad_norm,
    grad_sumsq,
    health_from_sums,
)
from repro.optim.rollback import (
    AlgebraicRollback,
    RollbackStrategy,
    SnapshotRollback,
    make_rollback,
    rollback_spill_planes,
)

__all__ = [
    "AdamConfig",
    "AdamParamState",
    "adam_apply",
    "adam_invert",
    "AdamOptimizer",
    "ReferenceAdam",
    "CPUAdam",
    "GraceAdam",
    "make_optimizer",
    "adam_latency_seconds",
    "adam_latency_table",
    "LossScaler",
    "MixedPrecisionState",
    "GradientHealth",
    "check_gradients",
    "global_grad_norm",
    "grad_sumsq",
    "health_from_sums",
    "clip_coefficient",
    "RollbackStrategy",
    "SnapshotRollback",
    "AlgebraicRollback",
    "make_rollback",
    "rollback_spill_planes",
]
