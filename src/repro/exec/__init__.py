"""Multi-threaded chunked kernel executor for the flat arena substrate.

The paper's headline mechanism is *overlap*: GraceAdam tiles the
optimizer step across CPU threads (Table 3) and SuperOffload hides
optimizer and transfer work behind GPU compute (Figs. 10-12).  This
package is the substrate's execution layer for that idea:

* :class:`ChunkPlan` — splits a flat plane into cache-friendly,
  vector-aligned, worker-balanced ranges;
* :class:`KernelPool` — persistent worker threads with submit/wait
  futures and per-worker telemetry (``exec_chunks_total``,
  ``exec_busy_ms``);
* :mod:`repro.exec.kernels` — fused, allocation-free chunk kernels
  (AdamW, scale, memcpy, fixed-order reduce) that are bitwise
  identical to their serial ancestors for any chunking;
* :mod:`repro.exec.ops` — the call-site surface routing the hot paths
  (CPUAdam/GraceAdam flat step, snapshot rollback, STV clip, the
  pipelined ZeRO bucket reduce) through the pool.

numpy releases the GIL on large array operations, so chunks execute in
true parallel on multi-core hosts; on one core the executor still wins by
replacing the ancestors' out-of-place temporaries with fused per-tile
scratch (``repro bench`` records both effects as ``parallel_step`` /
``zero_pipeline`` speedups).
"""

from repro.exec.kernels import CACHE_TILE, AdamChunkHyper
from repro.exec.ops import (
    MIN_PARALLEL_FUSED,
    MIN_PARALLEL_SIMPLE,
    parallel_adam_flat,
    parallel_copy,
    parallel_reduce,
    parallel_scale,
)
from repro.exec.plan import DEFAULT_ALIGN, ChunkPlan
from repro.exec.pool import (
    ChunkFuture,
    KernelPool,
    configure_default_pool,
    default_workers,
    get_pool,
)

__all__ = [
    "AdamChunkHyper",
    "CACHE_TILE",
    "ChunkFuture",
    "ChunkPlan",
    "DEFAULT_ALIGN",
    "KernelPool",
    "MIN_PARALLEL_FUSED",
    "MIN_PARALLEL_SIMPLE",
    "configure_default_pool",
    "default_workers",
    "get_pool",
    "parallel_adam_flat",
    "parallel_copy",
    "parallel_reduce",
    "parallel_scale",
]
