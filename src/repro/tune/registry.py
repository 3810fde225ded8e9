"""The tunable registry: every hand-picked constant, in one place.

PRs 2-5 each introduced a fast path guarded by a constant calibrated on
one container — chunk cache tiles, parallel-dispatch crossovers, the
snapshot cutoff, flash block sides, ZeRO bucket sizes, worker counts.
This module is the single source of truth for those numbers: each
:class:`Tunable` records the name, the authoring-time default (which the
consumer modules import back, so untuned behaviour is defined *here*),
the valid range, and the candidate values the autotuner searches over.

The registry deliberately imports nothing from the rest of the
substrate: consumers (``repro.exec``, ``repro.optim``, ``repro.numeric``,
``repro.parallel``) import *from* it, and the tuner
(:mod:`repro.tune.search`) walks :data:`TUNABLES` to know what to
measure.  A profile entry whose name is not registered, or whose value
falls outside ``[lo, hi]``, is rejected at load time — the registry is
also the schema the profile loader validates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Bumped whenever a tunable's meaning changes incompatibly; persisted
#: profiles carry it and are discarded (with one warning) on mismatch.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Tunable:
    """One empirically tunable constant of the kernel substrate.

    Attributes:
        name: dotted identifier, ``<op>.<param>`` (profile entry key).
        default: authoring-time value — exactly the constant the
            consumer shipped with, so an untuned host behaves as before.
        lo, hi: inclusive validity range; loaded values outside it are
            rejected.
        choices: candidate values the autotuner measures.  For
            ``crossover`` tunables these are the *sizes* probed, and the
            chosen value is the measured crossover size itself.
        kind: ``"crossover"`` (size below which the serial path wins),
            ``"tile"`` (block/tile side or length), or ``"count"``
            (worker count; 0 means auto).
        doc: one line on what the value gates.
        consumer: dotted module that reads the value.
    """

    name: str
    default: int
    lo: int
    hi: int
    choices: Tuple[int, ...]
    kind: str
    doc: str
    consumer: str


def _pow2(lo_bit: int, hi_bit: int) -> Tuple[int, ...]:
    return tuple(1 << b for b in range(lo_bit, hi_bit + 1))


_T = (
    # -- parallel-vs-serial dispatch crossovers (repro.exec.ops) -------
    Tunable(
        "adam.min_parallel", 1 << 15, 1, 1 << 26, _pow2(12, 21),
        "crossover",
        "elements below which the fused Adam step runs inline",
        "repro.exec.ops",
    ),
    Tunable(
        "scale.min_parallel", 1 << 17, 1, 1 << 26, _pow2(13, 22),
        "crossover",
        "elements below which in-place scale runs inline",
        "repro.exec.ops",
    ),
    Tunable(
        "copy.min_parallel", 1 << 17, 1, 1 << 26, _pow2(13, 22),
        "crossover",
        "elements below which the chunked memcpy runs inline",
        "repro.exec.ops",
    ),
    Tunable(
        "reduce.min_parallel", 1 << 17, 1, 1 << 26, _pow2(13, 22),
        "crossover",
        "elements below which the fixed-order reduce runs inline",
        "repro.exec.ops",
    ),
    # -- kernel tile geometry ------------------------------------------
    Tunable(
        "adam.cache_tile", 32768, 1 << 10, 1 << 22,
        (8192, 16384, 32768, 65536, 131072),
        "tile",
        "elements per cache sub-tile inside a fused Adam chunk",
        "repro.exec.kernels",
    ),
    Tunable(
        "grace.tile_size", 16384, 1 << 8, 1 << 22,
        (4096, 8192, 16384, 32768, 65536),
        "tile",
        "GraceAdam serial-walk cache tile (the paper's TILE constant)",
        "repro.optim.implementations",
    ),
    Tunable(
        "flash.block_q", 128, 16, 1024, (32, 64, 128, 256),
        "tile",
        "streaming-attention query tile side",
        "repro.numeric.flash",
    ),
    Tunable(
        "flash.block_k", 128, 16, 1024, (32, 64, 128, 256),
        "tile",
        "streaming-attention key tile side",
        "repro.numeric.flash",
    ),
    # -- memory/path cutoffs -------------------------------------------
    Tunable(
        "rollback.snapshot_cutoff", 1 << 20, 1, 1 << 26, _pow2(14, 23),
        "crossover",
        "bucket elements below which snapshot uses per-tensor copies",
        "repro.optim.rollback",
    ),
    Tunable(
        "zero.bucket_elements", 1 << 18, 1 << 10, 1 << 24, _pow2(14, 19),
        "tile",
        "pipelined ZeRO staging bucket size in fp32 elements",
        "repro.parallel.zero",
    ),
    Tunable(
        "zero.min_pipeline", 0, 0, 1 << 26, _pow2(14, 21),
        "crossover",
        "total flat elements below which pipeline=True falls back to "
        "the serial step (0 = always pipeline, the untuned behaviour)",
        "repro.parallel.zero",
    ),
    # -- executor shape -------------------------------------------------
    Tunable(
        "pool.workers", 0, 0, 256, (1, 2, 4, 8),
        "count",
        "default KernelPool thread count (0 = auto: min(4, cpus); "
        "REPRO_EXEC_WORKERS always wins)",
        "repro.exec.pool",
    ),
    # -- model parallelism (repro.parallel.tensor / .pipeline) ---------
    Tunable(
        "tp.gather_crossover", 1 << 16, 1, 1 << 26, _pow2(12, 20),
        "crossover",
        "gathered output elements below which the column-parallel "
        "all-gather takes the broadcast-assemble path (both paths are "
        "bitwise-identical; the tunable shapes modeled traffic)",
        "repro.parallel.tensor",
    ),
    Tunable(
        "pp.microbatches", 4, 1, 64, (1, 2, 4, 8, 16),
        "count",
        "default 1F1B microbatch count per pipeline step (bubble "
        "fraction is (p-1)/(m+p-1); more microbatches shrink it)",
        "repro.parallel.pipeline",
    ),
    Tunable(
        "pp.stage_balance", 0, 0, 8, (0, 1, 2),
        "count",
        "layers shifted off the final pipeline stage (which also owns "
        "the LM head) onto earlier stages to balance stage times",
        "repro.parallel.pipeline",
    ),
    # -- quantized inference path (repro.numeric.lowprec / exec.ops) ---
    Tunable(
        "quant.group_size", 128, 8, 1024, (32, 64, 128, 256),
        "tile",
        "rows per int8 quantization group (scale granularity: smaller "
        "groups cost more scale bytes and smaller batched-matmul "
        "partials but tighten the error bound)",
        "repro.numeric.lowprec",
    ),
    Tunable(
        "quant.dequant_tile", 256, 16, 8192, (64, 128, 256, 512, 1024),
        "tile",
        "output-column tile width of the fused qmatmul (per-thread "
        "dequant slab is group_size x this; sized to stay cache-resident)",
        "repro.exec.ops",
    ),
    # -- paged KV cache (repro.tensors.kvcache) ------------------------
    Tunable(
        "kv.page_tokens", 16, 4, 4096, (8, 16, 32, 64),
        "tile",
        "tokens per KV-cache page (eviction/spill granularity; larger "
        "pages amortize bookkeeping, smaller ones pack ragged sessions)",
        "repro.tensors.kvcache",
    ),
    # -- disk spill tier (repro.tensors.spill) -------------------------
    Tunable(
        "spill.chunk_bytes", 1 << 18, 1 << 12, 1 << 24,
        (1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20),
        "tile",
        "spill extent size in bytes (staging chunk; multiple of 4 KiB)",
        "repro.tensors.spill",
    ),
    Tunable(
        "spill.prefetch_depth", 2, 1, 64, (1, 2, 4, 8),
        "count",
        "buckets of (m, v) extents read ahead by the disk-offloaded "
        "ZeRO step",
        "repro.parallel.zero",
    ),
    Tunable(
        "spill.writer_queue", 16, 1, 1024, (4, 8, 16, 32, 64),
        "count",
        "bound on the spill arena's async I/O queue (backpressure depth)",
        "repro.tensors.spill",
    ),
)

#: name -> :class:`Tunable`, the registry the tuner and profile share.
TUNABLES: Dict[str, Tunable] = {t.name: t for t in _T}


def get(name: str) -> Tunable:
    """The registered tunable, or ``KeyError`` with the known names."""
    try:
        return TUNABLES[name]
    except KeyError:
        raise KeyError(
            f"unknown tunable {name!r}; known: {sorted(TUNABLES)}"
        ) from None


def default(name: str) -> int:
    """The authoring-time default for ``name``."""
    return get(name).default


def is_valid(name: str, value: object) -> bool:
    """Whether ``value`` is a legal persisted value for ``name``."""
    if name not in TUNABLES:
        return False
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    t = TUNABLES[name]
    return t.lo <= value <= t.hi


def names() -> Tuple[str, ...]:
    """All registered tunable names, sorted."""
    return tuple(sorted(TUNABLES))
