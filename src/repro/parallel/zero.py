"""ZeRO-style sharded optimization (numeric substrate of §4.7).

:class:`ZeroShardedAdam` partitions the flattened parameter space across
ranks.  Each rank owns one contiguous shard of the fp32 master weights and
optimizer moments (ZeRO-1/2/3 all share this optimizer-state partitioning;
the stages differ in what *else* is sharded, which the performance
simulator models).  A step is: reduce-scatter gradients -> owned-shard Adam
update -> all-gather updated parameters.  The tests assert the result is
bitwise identical to an unsharded Adam step.

The optimizer has one state representation — the master arena, two
moment planes, one step counter per rank.  Where the moment planes live
is the only thing that varies between the resident and the
disk-offloaded step, and it sits behind a two-implementation seam:
:class:`_ResidentMoments` and :class:`_DiskMoments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import tune
from repro.exec import kernels
from repro.exec.pool import KernelPool, get_pool
from repro.optim.adam import AdamConfig
from repro.optim.mixed_precision import GradientHealth, clip_coefficient
from repro.parallel.comm import SimProcessGroup
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.arena import FlatArena
from repro.tensors.errors import TensorValidationError
from repro.tensors.pinned import PinnedBufferPool
from repro.tensors.spill import SpillArena, SpillTicket, wait_all

Params = Dict[str, np.ndarray]
Span = Tuple[int, int]


@dataclass(frozen=True)
class ZeroConfig:
    """ZeRO behaviour switches.

    Attributes:
        stage: 1, 2, or 3 (affects what the performance model shards; the
            numeric update path is identical).
        average_gradients: divide the reduce-scatter result by world size
            (standard DP loss averaging).
    """

    stage: int = 2
    average_gradients: bool = True

    def __post_init__(self) -> None:
        if self.stage not in (1, 2, 3):
            raise ValueError("ZeRO stage must be 1, 2, or 3")


def _fp32_buffers(
    count: int,
    elements: int,
    pinned_pool: Optional[PinnedBufferPool],
    tag: str,
    allocs: list,
) -> List[np.ndarray]:
    """``count`` fp32 staging buffers, their bytes reserved from the
    pinned pool when one is given (tagged ``{tag}{i}``, appended to
    ``allocs``); a full pool degrades to unpinned staging, exactly the
    pageable fallback §4.5 describes."""
    buffers = []
    for i in range(count):
        buffers.append(np.empty(elements, dtype=np.float32))
        if pinned_pool is not None:
            alloc = pinned_pool.try_reserve(elements * 4, tag=f"{tag}{i}")
            if alloc is not None:
                allocs.append(alloc)
    return buffers


class _ResidentMoments:
    """(m, v) as two in-memory fp32 planes: a span's moments are views,
    so there is nothing to fetch, write back, or drain."""

    #: Any span fits (views), so the unbucketed serial step may use it.
    resident = True
    span_attrs: Dict[str, str] = {}

    def __init__(self, total: int):
        self.m = np.zeros(total, dtype=np.float32)
        self.v = np.zeros(total, dtype=np.float32)
        self._spans: Sequence[Span] = ()

    def begin(self, spans: Sequence[Span]) -> None:
        self._spans = spans

    def acquire(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self._spans[k]
        return self.m[lo:hi], self.v[lo:hi]

    def commit(self, k: int) -> None:
        pass

    def finish(self) -> None:
        pass

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {"m": self.m.copy(), "v": self.v.copy()}

    def load(self, m: np.ndarray, v: np.ndarray) -> None:
        self.m[...] = m
        self.v[...] = v

    def release(self) -> None:
        pass


class _DiskMoments:
    """(m, v) parked in a :class:`SpillArena`, streamed through a ring of
    ``depth + 2`` bucket-sized staging slots per plane.

    ``begin`` issues the reads of the first ``depth`` spans;
    ``acquire(k)`` waits span ``k``'s read; ``commit(k)`` queues its
    write-back and prefetches span ``k + depth``; ``finish`` drains the
    writes.  Reads and writes run on the arena's independent streams, so
    prefetches never queue behind the write backlog — but a slot's
    write-back must be settled before a prefetch reuses the slot.  Every
    wait is a ``spill_wait`` span that only appears when the disk
    genuinely falls behind compute.
    """

    #: Only bucket-sized windows are ever in memory.
    resident = False
    span_attrs = {"offload": "disk"}

    def __init__(
        self,
        spill: SpillArena,
        depth: int,
        slot_elements: int,
        pinned_pool: Optional[PinnedBufferPool],
    ):
        self.spill = spill
        self.depth = depth
        self._slot_elements = slot_elements
        self._pinned_pool = pinned_pool
        self._slots: Dict[str, List[np.ndarray]] = {}
        self._slot_allocs: list = []
        self._spans: Sequence[Span] = ()
        self._reads: Dict[int, Tuple[SpillTicket, SpillTicket]] = {}
        self._slot_writes: List[List[SpillTicket]] = []

    def begin(self, spans: Sequence[Span]) -> None:
        n_slots = self.depth + 2
        if not self._slots:
            for plane in ("m", "v"):
                self._slots[plane] = _fp32_buffers(
                    n_slots, self._slot_elements, self._pinned_pool,
                    f"spill_slot_{plane}", self._slot_allocs,
                )
        self._spans = spans
        self._slot_writes = [[] for _ in range(n_slots)]
        for j in range(self.depth):
            self._prefetch(j)

    def _prefetch(self, j: int) -> None:
        if j >= len(self._spans):
            return
        lo, hi = self._spans[j]
        s = j % len(self._slot_writes)
        wait_all(self._slot_writes[s])
        self._reads[j] = (
            self.spill.read_async("m", lo, hi, self._slots["m"][s]),
            self.spill.read_async("v", lo, hi, self._slots["v"][s]),
        )

    def acquire(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        for ticket in self._reads.pop(k):
            ticket.wait()
        lo, hi = self._spans[k]
        s = k % len(self._slot_writes)
        return self._slots["m"][s][: hi - lo], self._slots["v"][s][: hi - lo]

    def commit(self, k: int) -> None:
        lo, hi = self._spans[k]
        s = k % len(self._slot_writes)
        self._slot_writes[s] = [
            self.spill.write_async("m", lo, hi, self._slots["m"][s]),
            self.spill.write_async("v", lo, hi, self._slots["v"][s]),
        ]
        self._prefetch(k + self.depth)

    def finish(self) -> None:
        # A skipped step acquired nothing: land its prefetches before
        # the slots are reused.
        for reads in self._reads.values():
            for ticket in reads:
                ticket.wait()
        self._reads.clear()
        for writes in self._slot_writes:
            wait_all(writes)

    def snapshot(self) -> Dict[str, np.ndarray]:
        out = {}
        for plane in ("m", "v"):
            n = self.spill.plane_elements(plane)
            out[plane] = np.empty(n, dtype=np.float32)
            self.spill.read(plane, 0, n, out[plane])
        return out

    def load(self, m: np.ndarray, v: np.ndarray) -> None:
        self.spill.write("m", 0, m.size, np.ascontiguousarray(m))
        self.spill.write("v", 0, v.size, np.ascontiguousarray(v))

    def release(self) -> None:
        if self._pinned_pool is not None:
            for alloc in self._slot_allocs:
                self._pinned_pool.release(alloc)
        self._slot_allocs.clear()
        self._slots.clear()


class ZeroShardedAdam:
    """Adam with ZeRO-partitioned optimizer states over simulated ranks.

    The master parameters live in a :class:`FlatArena` (the caller's dict
    is adopted — its values become views of one padded flat buffer) and
    rank ``r`` updates ``arena.shard(r)`` in place.  The ZeRO dataflow
    therefore has no flatten or unflatten stage: reduce-scatter output is
    averaged in place, the shard Adam writes straight into the arena, and
    the all-gather is alias-detected into a no-op.

    ``pipeline=True`` overlaps the step the way SuperOffload's engine
    does (§4.7): the flat space is cut into buckets and bucket *k+1*'s
    reduce-scatter runs on the kernel pool while the calling thread
    applies bucket *k*'s shard Adam, double-buffered through two staging
    buckets (optionally reserved from a :class:`PinnedBufferPool`,
    modelling the page-locked transfer buffers a real engine keeps).
    ``offload="disk"`` runs that same bucket loop with the (m, v) planes
    parked in a :class:`SpillArena`, so the NVMe read of buckets
    ``k+1..k+depth`` overlaps as a third stream.  Serial, pipelined and
    disk steps are bitwise identical (the ``tests/parallel`` suite holds
    this); the dict-copy and strict-sequence-disk ancestors survive as
    the measured baselines :func:`repro.reference.zero_dict_copy_step`
    and :func:`repro.reference.zero_disk_sync_step`.

    ``step_flat(..., validate=True)`` additionally runs §4.4's global
    gradient check inside that bucket loop, on the reduce-scatter's
    output: the reduces land in an optimizer-owned *reduced plane* and
    report their sums of squares, so the norm, the NaN/Inf verdict, the
    clip and the Adam all come from one pass over the gradient (see
    :meth:`step_flat`).

    Args:
        params: shared fp32 master parameters (updated in place — in a real
            deployment every rank holds the gathered fp16 copy; here the
            single master dict stands in for it).
        world_size: number of simulated ranks.
        config: Adam hyperparameters.
        zero: ZeRO behaviour switches.
        telemetry: span/counter sink shared with the internal communicator
            (no-op by default).
        pipeline: overlap bucket reduce with shard Adam (a validated
            step, whose first Adam must wait for the last reduce, fans
            the reduces over the pool instead).
        bucket_elements: bucket size in fp32 elements; buckets never
            cross a shard boundary, so the effective size is capped at
            the shard length.  ``None`` resolves the
            ``zero.bucket_elements`` tunable (registry default, or the
            host-measured value when a tuning profile is active).
        pool: kernel pool the overlapped reduces run on.  ``None`` means
            the shared multi-worker process-default pool, as everywhere
            in :mod:`repro.exec` — never "the calling thread".
        pinned_pool: optional pinned-memory pool the staging buckets, the
            reduced plane and the disk slot ring are reserved from;
            reservations are released by :meth:`release_staging`.
        offload: ``"none"`` (resident fp32 moments, default) or
            ``"disk"`` — park the (m, v) moment planes under
            ``spill_dir`` and stream each bucket's extents through
            staging slots (always bucketed, whatever ``pipeline`` says).
        spill_dir: directory for the moment plane files (disk mode).
        spill_prefetch_depth: buckets read ahead (>= 1); ``None``
            resolves the ``spill.prefetch_depth`` tunable.
        spill_chunk_bytes: spill extent size; ``None`` resolves the
            ``spill.chunk_bytes`` tunable.
    """

    def __init__(
        self,
        params: Params,
        world_size: int,
        config: AdamConfig | None = None,
        zero: ZeroConfig | None = None,
        telemetry: Telemetry | None = None,
        pipeline: bool = False,
        bucket_elements: int | None = None,
        pool: KernelPool | None = None,
        pinned_pool: PinnedBufferPool | None = None,
        offload: str = "none",
        spill_dir: "str | None" = None,
        spill_prefetch_depth: int | None = None,
        spill_chunk_bytes: int | None = None,
    ):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if offload not in ("none", "disk"):
            raise ValueError("offload must be 'none' or 'disk'")
        if offload == "disk" and spill_dir is None:
            raise ValueError("offload='disk' requires spill_dir")
        if bucket_elements is None:
            bucket_elements = tune.value("zero.bucket_elements")
        if bucket_elements < 1:
            raise ValueError("bucket_elements must be >= 1")
        if spill_prefetch_depth is None:
            spill_prefetch_depth = tune.value("spill.prefetch_depth")
        if spill_prefetch_depth < 1:
            raise ValueError("spill_prefetch_depth must be >= 1")
        self.params = params
        self.world_size = world_size
        self.zero = zero or ZeroConfig()
        self.config = config or AdamConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.group = SimProcessGroup(world_size, telemetry=self.telemetry)
        self.arena = FlatArena.adopt(
            params, world_size, telemetry=self.telemetry
        )
        total = self.arena.layout.total
        self._shard_len = total // world_size
        self.pipeline = pipeline
        self.bucket_elements = min(bucket_elements, self._shard_len)
        self._pool = pool
        self._pinned_pool = pinned_pool
        self._staging: List[np.ndarray] = []
        self._staging_allocs: list = []
        self._grad_arenas: Dict[int, FlatArena] = {}
        #: Where a validated step's reduce-scatter lands (allocated by
        #: the first one): the averaged gradient every rank's shard Adam
        #: consumes, full flat length because all ranks live here.
        self._reduced: Optional[np.ndarray] = None
        self._steps: List[int] = [0] * world_size
        #: The moment planes' :class:`SpillArena` (``None`` when resident).
        self.spill: Optional[SpillArena] = None
        if offload == "disk":
            # The (m, v) planes never materialise in host memory: they
            # live in extent-aligned files, zero-filled exactly like
            # freshly allocated moments, and only bucket-sized windows
            # are resident at a time.
            self.spill = SpillArena(
                spill_dir, {"m": total, "v": total},
                chunk_bytes=spill_chunk_bytes, pinned_pool=pinned_pool,
                telemetry=self.telemetry,
            )
            self._moments = _DiskMoments(
                self.spill, spill_prefetch_depth, self.bucket_elements,
                pinned_pool,
            )
        else:
            self._moments = _ResidentMoments(total)

    def owned_slice(self, rank: int) -> Span:
        """Flat [start, stop) owned by ``rank``."""
        if not 0 <= rank < self.world_size:
            raise IndexError(f"rank {rank} out of range")
        return rank * self._shard_len, (rank + 1) * self._shard_len

    def grad_arena(self, rank: int) -> FlatArena:
        """Rank ``rank``'s persistent gradient arena.

        Producers that write gradients into this arena's views (or its
        flat buffer) make the step fully copy-free — the data-parallel
        trainer passes the views to the model's backward as its output
        buffers; it is also the reusable landing zone :meth:`step`
        ingests plain dicts into.  The optimizer only ever reads it.
        """
        if not 0 <= rank < self.world_size:
            raise IndexError(f"rank {rank} out of range")
        ga = self._grad_arenas.get(rank)
        if ga is None:
            ga = self.arena.like()
            self._grad_arenas[rank] = ga
        return ga

    def step(self, per_rank_grads: Sequence[Params]) -> None:
        """One sharded update from per-rank gradient dicts.

        Implements the ZeRO dataflow: reduce-scatter -> local Adam on the
        owned shard -> all-gather the updated parameters back into
        ``self.params``.  Gradient dicts that already alias an arena
        with this layout are used in place; others are ingested into
        persistent per-rank gradient arenas (one counted copy), and the
        rest of the step moves no parameter bytes.
        """
        if len(per_rank_grads) != self.world_size:
            raise ValueError("one gradient dict per rank required")
        flats: List[np.ndarray] = []
        for r, grads in enumerate(per_rank_grads):
            flat = self.arena.flat_of(grads)
            if flat is None:
                ga = self.grad_arena(r)
                ga.fill_from(grads)
                flat = ga.flat
            flats.append(flat)
        self.step_flat(flats)

    def step_flat(
        self,
        per_rank_flat: Sequence[np.ndarray],
        validate: bool = False,
        clip_norm: float | None = None,
    ) -> Optional[GradientHealth]:
        """One sharded update from per-rank *flat* gradient buffers.

        The fully zero-copy entry point: each buffer must be a dense fp32
        vector of the padded flat length (e.g. ``grad_arena(r).flat``);
        the buffers are only ever read.

        Plain (``validate=False``, no ``clip_norm``): without
        ``pipeline`` (or below the tuned ``zero.min_pipeline``
        crossover, where staging and submit round-trips cost more than
        the overlap saves) this is the serial dataflow — one
        reduce-scatter averaged in place, each shard's Adam applied to
        its arena view, and an all-gather that skips every chunk already
        aliasing its destination.  Otherwise — and always with disk
        offload, whose moments only exist a bucket at a time — it is the
        bitwise-identical overlapped bucket loop.  Returns ``None``.

        Validated (``validate=True``, implied by a ``clip_norm``): the
        §4.4 global check runs on the *reduced* gradient, inside the
        same bucket loop.  Every bucket's reduce lands in the
        optimizer-owned reduced plane and reports the float64 sum of
        squares of what it wrote; the sums, added in bucket order, give
        the global L2 norm and — being non-finite exactly when an
        element is — the NaN/Inf verdict.  A non-finite gradient skips
        the update (no Adam, no step-counter bump, no moment write);
        a norm above ``clip_norm`` scales each reduced bucket once, just
        before its Adam.  Returns the :class:`GradientHealth`.
        """
        if len(per_rank_flat) != self.world_size:
            raise ValueError("one flat gradient buffer per rank required")
        total = self.arena.layout.total
        for r, flat in enumerate(per_rank_flat):
            if (not isinstance(flat, np.ndarray) or flat.ndim != 1
                    or flat.dtype != np.float32 or flat.size != total):
                raise TensorValidationError(
                    f"rank {r} flat gradient must be a 1-D fp32 array of "
                    f"length {total}"
                )
        validate = validate or clip_norm is not None
        overlapped = not self._moments.resident or (
            self.pipeline
            and total >= tune.value("zero.min_pipeline", 0, size=total)
        )
        if validate or overlapped:
            return self._step_buckets(
                per_rank_flat, overlapped, validate, clip_norm
            )
        tracer = self.telemetry.tracer
        moments = self._moments
        tile = tune.value("adam.cache_tile", kernels.CACHE_TILE,
                          size=self._shard_len)
        with tracer.span("zero_step", category="optim",
                         world_size=self.world_size):
            with tracer.span("grad_reduce", category="comm",
                             op="reduce_scatter"):
                shards = self.group.reduce_scatter(per_rank_flat)
                if self.zero.average_gradients:
                    for s in shards:
                        s /= np.float32(self.world_size)
            moments.begin([self.owned_slice(r)
                           for r in range(self.world_size)])
            for r in range(self.world_size):
                with tracer.span("shard_adam", category="optim", rank=r):
                    m, v = moments.acquire(r)
                    kernels.adam_chunk(
                        0, self._shard_len, self.arena.shard(r), m, v,
                        shards[r], self._next_hyper(r), tile,
                    )
                    moments.commit(r)
            moments.finish()
            with tracer.span("param_gather", category="comm",
                             op="all_gather"):
                self.group.all_gather_into(
                    [self.arena.shard(r) for r in range(self.world_size)],
                    self.arena.flat,
                )
                # The unflatten stage the dict-copy dataflow needed.
                self.arena.note_alias(self.arena.flat.nbytes)
        return None

    def _next_hyper(self, rank: int) -> "kernels.AdamChunkHyper":
        """Advance ``rank``'s step counter (once per global step, before
        its shard is touched) and build that step's chunk hyperparameters."""
        self._steps[rank] += 1
        return kernels.AdamChunkHyper.from_config(
            self.config, self._steps[rank]
        )

    def release_staging(self) -> None:
        """Drop the staging buffers and the reduced plane, and return
        the pinned reservations."""
        if self._pinned_pool is not None:
            for alloc in self._staging_allocs:
                self._pinned_pool.release(alloc)
        self._staging_allocs.clear()
        self._staging.clear()
        self._reduced = None
        self._moments.release()

    def close_spill(self) -> None:
        """Drain and close the spill arena (disk mode; idempotent)."""
        if self.spill is not None:
            self.spill.close()

    def _buckets(self) -> List[Tuple[int, int, int]]:
        """(rank, flat lo, flat hi) in serial rank order.

        Buckets never cross a shard boundary: each one belongs to exactly
        one rank's shard, so the per-shard Adam step count and bias
        correction match the unbucketed step.
        """
        out: List[Tuple[int, int, int]] = []
        for r in range(self.world_size):
            lo, hi = self.owned_slice(r)
            for blo in range(lo, hi, self.bucket_elements):
                out.append((r, blo, min(hi, blo + self.bucket_elements)))
        return out

    def _step_buckets(
        self,
        per_rank_flat: Sequence[np.ndarray],
        overlapped: bool,
        validate: bool,
        clip_norm: float | None,
    ) -> Optional[GradientHealth]:
        """The bucket dataflow (bitwise twin of the serial step).

        Each bucket is reduced by :func:`kernels.reduce_chunk`, handed
        its (m, v) window by the moment store — a view when resident, a
        prefetched staging slot written back behind the loop when on
        disk (§2.2) — and stepped by the fused shard Adam.  The schedule
        has one degree of freedom, the point where the loop waits for
        reduces:

        * plain: bucket ``k+1``'s reduce is *submitted* to the kernel
          pool and runs on a worker thread while the calling thread
          applies bucket ``k``'s Adam, double-buffered through two
          staging buckets;
        * validated: global clipping makes the first Adam depend on the
          last reduce, so every reduce is submitted up front into the
          reduced plane and joined once (the ``grad_health`` span); the
          disk prefetch is issued *before* that join, so the first
          moment reads overlap the reduce.

        ``overlapped=False`` (a validated step of a non-pipelined
        optimizer) runs the same loop with the reduces inline on the
        calling thread.

        Bitwise identity with the serial :meth:`step_flat` holds because
        (a) each bucket's reduction is the same left fold over ranks the
        serial reduce-scatter performs, followed by the same elementwise
        divide, (b) the Adam kernel is elementwise, so cutting a shard
        into buckets changes no bit, (c) every per-shard step counter is
        bumped exactly once per global step, before that shard's first
        bucket, and (d) fp32 disk round-trips are byte-exact.  The
        verdict is independent of the worker count: a bucket's sum of
        squares depends only on its bits, and the sums are added in
        bucket order.  Gradients must not alias the parameter arena
        (gradient arenas are separate buffers): the overlapped reduce
        reads them while earlier buckets' parameters are being written.
        """
        tracer = self.telemetry.tracer
        divisor = (np.float32(self.world_size)
                   if self.zero.average_gradients else None)
        if not overlapped:
            pool = KernelPool(1)  # submit runs inline; no thread exists
        else:
            pool = self._pool if self._pool is not None else get_pool()
        buckets = self._buckets()
        if validate:
            if self._reduced is None:
                (self._reduced,) = _fp32_buffers(
                    1, self.arena.layout.total, self._pinned_pool,
                    "zero_reduced_plane_", self._staging_allocs,
                )
            reduce_kernel = kernels.reduce_sumsq_chunk
        else:
            if not self._staging:
                self._staging = _fp32_buffers(
                    2, self.bucket_elements, self._pinned_pool,
                    "zero_bucket_staging_", self._staging_allocs,
                )
            reduce_kernel = kernels.reduce_chunk
        moments = self._moments
        master = self.arena.flat
        tile = tune.value("adam.cache_tile", kernels.CACHE_TILE,
                          size=self.bucket_elements)

        def landing(k: int) -> Tuple[np.ndarray, int]:
            """(buffer, flat offset of its element 0) bucket ``k``'s
            reduced gradient lands in."""
            if validate:
                return self._reduced, 0
            return self._staging[k % 2], buckets[k][1]

        def submit_reduce(k: int):
            r, lo, hi = buckets[k]
            # With telemetry off the raw kernel is submitted: zero
            # per-bucket tracing overhead.
            reduce = reduce_kernel
            if tracer.enabled:
                def reduce(*args):
                    with tracer.span("bucket_reduce", category="comm",
                                     bucket=k, rank=r):
                        return reduce_kernel(*args)
            return pool.submit(reduce, lo, hi, *landing(k),
                               per_rank_flat, divisor)

        health = None
        coef = None
        with tracer.span("zero_step", category="optim",
                         world_size=self.world_size, pipelined=overlapped,
                         buckets=len(buckets), **moments.span_attrs):
            # The collectives are fused into the bucket loop; account the
            # same payloads the serial entry points would have counted.
            self.group.count_payload(
                "reduce_scatter", sum(b.nbytes for b in per_rank_flat)
            )
            pending = [
                submit_reduce(k)
                for k in range(len(buckets) if validate else 1)
            ]
            moments.begin([(lo, hi) for _, lo, hi in buckets])
            if validate:
                with tracer.span("grad_health", category="validate",
                                 buckets=len(buckets)):
                    pool.wait_all(pending)
                    health = GradientHealth.from_sumsq(
                        sum(f.result() for f in pending), clip_norm
                    )
                if health.has_nan_or_inf:
                    moments.finish()
                    return health
                if health.clip_triggered:
                    coef = np.float32(
                        clip_coefficient(health.global_norm, clip_norm)
                    )
            hyper = None
            prev_rank = -1
            for k, (r, lo, hi) in enumerate(buckets):
                if not validate:
                    with tracer.span("bucket_wait", category="stall",
                                     bucket=k):
                        pending[k].result()
                    if k + 1 < len(buckets):
                        pending.append(submit_reduce(k + 1))
                buf, base = landing(k)
                grad = buf[lo - base: hi - base]
                m, v = moments.acquire(k)
                if r != prev_rank:
                    hyper = self._next_hyper(r)
                    prev_rank = r
                if coef is not None:
                    with tracer.span("grad_clip", category="optim",
                                     bucket=k):
                        grad *= coef
                with tracer.span("bucket_adam", category="optim",
                                 rank=r, bucket=k):
                    kernels.adam_chunk(
                        0, hi - lo, master[lo:hi], m, v, grad, hyper, tile,
                    )
                moments.commit(k)
            moments.finish()
            # The all-gather of the serial dataflow: every shard is an
            # arena view, so the gather is pure aliasing — count the
            # payload and the saved copy, move no bytes.
            self.group.count_payload("all_gather", master.nbytes)
            self.arena.note_alias(master.nbytes)
        return health

    def moment_planes(self) -> Dict[str, np.ndarray]:
        """Fresh fp32 copies of the full (m, v) moment planes, wherever
        they live (what the checkpoint path snapshots)."""
        return self._moments.snapshot()

    def load_moments(
        self, m: np.ndarray, v: np.ndarray, steps: Sequence[int]
    ) -> None:
        """Restore the (m, v) planes and per-shard step counters
        (checkpoint resume; the inverse of :meth:`moment_planes` +
        :meth:`shard_steps`)."""
        total = self.arena.layout.total
        if m.shape != (total,) or v.shape != (total,):
            raise TensorValidationError(
                f"moment planes must be 1-D of length {total}"
            )
        if len(steps) != self.world_size:
            raise ValueError("one step counter per rank required")
        self._moments.load(m, v)
        self._steps = [int(s) for s in steps]

    def shard_steps(self) -> List[int]:
        """Per-rank Adam step counters (uniform after full steps)."""
        return list(self._steps)

    @property
    def step_count(self) -> int:
        """Steps taken (uniform across shards)."""
        return self._steps[0]

    def optimizer_state_bytes_per_rank(self) -> int:
        """Bytes of fp32 (master, m, v) each rank holds — the 12Psi/N of
        ZeRO's memory analysis."""
        return 3 * 4 * self._shard_len
