"""Parallel flat-plane operations: the executor's call-site surface.

Each op covers one of the substrate's hot flat passes (fused Adam step,
clip scale, snapshot memcpy, fixed-order reduce), planning
the plane into worker-aligned chunks and driving the corresponding
:mod:`repro.exec.kernels` kernel through a
:class:`~repro.exec.pool.KernelPool`.  ``pool=None`` always means the
shared multi-worker process-default pool (`repro.exec.pool.get_pool`) —
never "the calling thread"; pass a ``KernelPool(1)`` for that — so call
sites need no plumbing to pick up ``repro bench --workers`` /
``REPRO_EXEC_WORKERS`` configuration.  The same holds for every ``pool``
argument in the package (the optimizers, ``ZeroShardedAdam``).

Small planes run inline: below ``min_parallel`` elements the dispatch
round-trip (~tens of µs) exceeds the kernel itself, so the op executes
as one serial fused chunk on the calling thread.  The cutoffs only move
work between threads — results are bitwise identical either way.

Each op's crossover is resolved through :mod:`repro.tune` at call time:
an active host profile (``repro tune``) supplies the measured value, and
the module constants below are the untuned fallback.  The constants stay
module globals read per call, so monkeypatching them (as the determinism
tests do to force parallel dispatch) keeps working with or without a
profile.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np

from repro import tune
from repro.exec import kernels
from repro.exec.plan import DEFAULT_ALIGN, ChunkPlan
from repro.exec.pool import KernelPool, get_pool
from repro.tune.registry import default as _registry_default

#: Below this many elements a fused multi-pass kernel (Adam) runs inline.
MIN_PARALLEL_FUSED = _registry_default("adam.min_parallel")
#: Below this many elements a single-pass kernel (scale/copy) runs
#: inline — one pass amortizes dispatch later than ten passes do.
MIN_PARALLEL_SIMPLE = _registry_default("scale.min_parallel")


def _run(
    pool: Optional[KernelPool],
    n: int,
    tunable: str,
    min_parallel: int,
    align: int,
    fn,
    *args,
) -> None:
    if n <= 0:
        return
    pool = pool if pool is not None else get_pool()
    if pool.workers <= 1 or n < tune.value(tunable, min_parallel, size=n):
        fn(0, n, *args)
        return
    pool.run(fn, ChunkPlan.split(n, pool.workers, align), *args)


def parallel_adam_flat(
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    config,
    step: int,
    pool: Optional[KernelPool] = None,
    align: int = DEFAULT_ALIGN,
) -> None:
    """Fused AdamW over four parallel flat planes (see ``adam_chunk``)."""
    hyper = kernels.AdamChunkHyper.from_config(config, step)
    tile = tune.value("adam.cache_tile", kernels.CACHE_TILE, size=p.size)
    _run(pool, p.size, "adam.min_parallel", MIN_PARALLEL_FUSED, align,
         kernels.adam_chunk, p, m, v, g, hyper, tile)


def parallel_scale(
    buf: np.ndarray,
    coef: np.float32,
    pool: Optional[KernelPool] = None,
) -> None:
    """In-place flat multiply (gradient clip, accumulation averaging)."""
    _run(pool, buf.size, "scale.min_parallel", MIN_PARALLEL_SIMPLE,
         DEFAULT_ALIGN, kernels.scale_chunk, buf, coef)


def parallel_copy(
    dst: np.ndarray,
    src: np.ndarray,
    pool: Optional[KernelPool] = None,
) -> None:
    """Chunked flat memcpy (snapshot capture/restore)."""
    _run(pool, dst.size, "copy.min_parallel", MIN_PARALLEL_SIMPLE,
         DEFAULT_ALIGN, kernels.copy_chunk, dst, src)


#: Below this many *weight* elements (k * n) the fused qmatmul runs its
#: column tiles inline on the calling thread.  The guard is on the weight
#: plane, not the output: a decode step has a tiny (m, n) output but
#: dequantizes the whole plane, and that work is what a fan-out could
#: divide.  The floor is the measured crossover, not the size at which a
#: plane stops being trivial: a tile is a few numpy calls of ~10-50 us,
#: and Python threads only repay their hand-off on spans of hundreds of
#: microseconds (DESIGN §8).  On the 2-vCPU PR host, inline vs two
#: workers at m=8: 47 vs 83 us at 2^16 weight elements (the serving
#: model's 128x512 planes), 617 vs 1114 us at 2^20, parity at 2^21
#: (1.50 vs 1.57 ms), pool ahead 1.2-1.4x at 2^22, 1.6-1.8x at 2^24.
QMATMUL_MIN_PARALLEL = 1 << 22


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def parallel_qmatmul(
    x: np.ndarray,
    qt,
    bias: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    pool: Optional[KernelPool] = None,
    tile: Optional[int] = None,
) -> np.ndarray:
    """Fused quantized matmul ``x @ dequant(qt) (+ bias)``.

    ``qt`` is a :class:`~repro.numeric.lowprec.QuantizedTensor`; the
    int8 plane is dequantized group-by-group inside
    :func:`~repro.exec.kernels.qmatmul_chunk`, never materializing the
    fp32 weight.  The product is cut into fixed-width output-column
    tiles (``quant.dequant_tile``) that run inline below
    ``QMATMUL_MIN_PARALLEL`` weight elements and on the pool above it;
    the tile decomposition — and therefore every partial-sum order — is
    independent of where the tiles run, so results are bitwise identical
    for any dispatch and any number of workers.

    Args:
        x: ``(..., k)`` activations (flattened to 2-D internally).
        qt: quantized ``(k, n)`` weight plane.
        bias: optional ``(n,)`` fp32 bias, added after the last group.
        out: optional preallocated ``(..., n)`` fp32 output (e.g. an
            ActivationWorkspace buffer).
        pool: kernel pool; defaults to the shared process pool.
        tile: column tile width override (tests); defaults to the tuned
            ``quant.dequant_tile``.

    Returns:
        fp32 ``(..., n)`` output (``out`` when given).
    """
    k, n = qt.shape
    if x.shape[-1] != k:
        raise ValueError(f"x has {x.shape[-1]} features, weight expects {k}")
    lead = x.shape[:-1]
    x2 = np.ascontiguousarray(x, dtype=np.float32).reshape(-1, k)
    m = x2.shape[0]
    if out is None:
        out = np.empty(lead + (n,), dtype=np.float32)
    out2 = out.reshape(m, n)
    tile = tile if tile is not None else tune.value(
        "quant.dequant_tile", kernels.DEQUANT_TILE, size=k * n
    )
    spans = [(c0, min(c0 + tile, n)) for c0 in range(0, n, tile)]
    xg = kernels.qmatmul_xgroups(x2, qt.group_size)
    pool = pool if pool is not None else get_pool()
    # Fan-out capped at the CPUs we can actually occupy: on a box with
    # fewer cores than pool workers the extra threads only add dispatch
    # and contention (results are bitwise identical either way).
    fan_out = min(pool.workers, _usable_cpus())
    if fan_out <= 1 or len(spans) == 1 or k * n < QMATMUL_MIN_PARALLEL:
        for lo, hi in spans:
            kernels.qmatmul_chunk(
                lo, hi, out2, x2, qt.qweight, qt.scales, qt.group_size,
                bias, xg,
            )
    else:
        pool.wait_all([
            pool.submit(
                kernels.qmatmul_chunk, lo, hi, out2, x2,
                qt.qweight, qt.scales, qt.group_size, bias, xg,
            )
            for lo, hi in spans
        ])
    return out


def parallel_reduce(
    dst: np.ndarray,
    dst_base: int,
    sources: Sequence[np.ndarray],
    lo: int,
    hi: int,
    divisor: Optional[np.float32] = None,
    pool: Optional[KernelPool] = None,
) -> None:
    """Fixed-order reduce of ``sources[lo:hi]`` into staging ``dst``.

    The synchronous, worker-chunked form of
    :func:`~repro.exec.kernels.reduce_chunk`: it returns once the whole
    range is reduced.  Combine order is fixed by rank (a left fold), so
    any chunking is bitwise identical to the serial reduce-scatter —
    which is what the determinism suite checks through this op and what
    ``repro tune`` races ``reduce.min_parallel`` on.  The pipelined ZeRO
    step does not call it: it submits ``reduce_chunk`` per bucket to the
    pool itself so the reduce overlaps the previous bucket's Adam.
    """
    n = hi - lo
    if n <= 0:
        return
    pool = pool if pool is not None else get_pool()
    if pool.workers <= 1 or n < tune.value(
        "reduce.min_parallel", MIN_PARALLEL_SIMPLE, size=n
    ):
        kernels.reduce_chunk(lo, hi, dst, dst_base, sources, divisor)
        return
    plan = ChunkPlan.split(n, pool.workers, DEFAULT_ALIGN)
    pool.wait_all([
        pool.submit(kernels.reduce_chunk, lo + clo, lo + chi, dst,
                    dst_base, sources, divisor)
        for clo, chi in plan.chunks
    ])
