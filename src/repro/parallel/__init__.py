"""Numeric parallelism substrates: simulated process groups, data-parallel
gradient reduction, ZeRO-style sharding (§4.7), and Ulysses sequence
parallelism with all-to-all attention exchange (§4.7).

These run *for real* on numpy across simulated ranks inside one process;
the tests assert they reproduce the single-rank computation exactly.
"""

from repro.parallel.comm import SimProcessGroup
from repro.parallel.dp import average_gradients, shard_batch
from repro.parallel.pipeline import (
    PipelinedTransformer,
    microbatched_loss_and_grads,
    partition_layers,
    split_microbatches,
)
from repro.parallel.plan import ParallelPlan, PlanGroups, PlanModel
from repro.parallel.tensor import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelAttention,
    TensorParallelMLP,
    TensorParallelTransformer,
)
from repro.parallel.zero import ZeroConfig, ZeroShardedAdam
from repro.parallel.ulysses import UlyssesAttention, all_to_all_4d

__all__ = [
    "SimProcessGroup",
    "average_gradients",
    "shard_batch",
    "PipelinedTransformer",
    "microbatched_loss_and_grads",
    "partition_layers",
    "split_microbatches",
    "ParallelPlan",
    "PlanGroups",
    "PlanModel",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelAttention",
    "TensorParallelMLP",
    "TensorParallelTransformer",
    "ZeroConfig",
    "ZeroShardedAdam",
    "UlyssesAttention",
    "all_to_all_4d",
]
