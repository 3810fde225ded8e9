"""The substrate micro-benchmark behind ``repro bench``.

Times the arena-backed hot paths against their dict-copy ancestors and
records the result as ``BENCH_substrate.json`` — the first point of the
perf trajectory the ROADMAP's "as fast as the hardware allows" north star
asks for.  Five sections:

* ``zero_step`` — a full ZeRO update (reduce-scatter, shard Adam,
  all-gather) through the dict-copy ancestor
  :func:`repro.reference.zero_dict_copy_step` (flatten / private shards
  / unflatten) vs. :class:`~repro.parallel.zero.ZeroShardedAdam` fed
  pre-filled gradient arenas via :meth:`step_flat`.
  Rides along: the ``dp_step`` row — a whole data-parallel trainer
  step (backward into the rank arenas, one validated reduce-scatter
  feeding the health check and Adam) vs. the unfused step it replaced,
  :func:`repro.reference.dp_step_reference`.
* ``rollback`` — STV bucket snapshot capture+restore with an
  arena-backed optimizer (three range memcpys) vs. a plain-dict
  optimizer (per-tensor copies).
* ``steady_state`` — telemetry deltas over repeated arena steps, proving
  ``arena_bytes_copied`` stays flat once gradients are produced into the
  arena.
* ``parallel_step`` — the chunked-executor GraceAdam flat step
  (:mod:`repro.exec`) vs. the serial flat-arena baseline (CPUAdam's
  whole-plane pass, :func:`repro.reference.cpu_adam_serial`, the
  substrate's pre-executor hot path) and vs. GraceAdam's serial tiled
  walk (:func:`repro.reference.grace_adam_serial`), with a bitwise
  identity check folded into the measurement.
* ``zero_pipeline`` — the overlapped bucket ZeRO step
  (``pipeline=True``) vs. the serial zero-copy ``step_flat``, also
  bitwise-checked.
* ``attention`` — blocked online-softmax streaming attention
  (:mod:`repro.numeric.flash`) vs. the dense ``S x S`` reference
  (:func:`repro.reference.dense_attention_forward`), forward
  and forward+backward, with the fp32 tolerance check and the
  peak-transient-bytes ratio folded into the measurement.
* ``model_step`` — a full transformer ``loss_and_grads`` with an
  :class:`~repro.tensors.workspace.ActivationWorkspace` vs. the same
  model allocating every activation fresh, asserting steady-state
  workspace allocations are zero and reporting whether the two agree
  bit for bit.  Rides along: the ``elementwise`` row — GELU
  fwd/bwd ns per element vs. :func:`repro.reference.gelu_pow`.
* ``parallelism`` — the :class:`~repro.parallel.plan.ParallelPlan` grid:
  every TPxPPxDP factorization executed for real through
  :class:`~repro.parallel.plan.PlanModel` (equivalence-checked against
  the unsharded model) plus the simulator's best-plan sweep per (model
  size, world size), recording the fastest plan and its speedup over
  pure data parallelism.

Both executor sections run on a real :class:`~repro.exec.pool.KernelPool`
(``workers`` threads); on a single-core host the recorded speedup is the
fused-kernel/allocation-elimination win, on multi-core hosts thread
parallelism adds on top.
"""

from __future__ import annotations

import itertools
import tempfile
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import reference
from repro.exec.pool import default_workers, get_pool
from repro.numeric import flash
from repro.numeric.layers import gelu, gelu_grad
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.optim.adam import AdamConfig
from repro.optim.implementations import GraceAdam
from repro.optim.rollback import SnapshotRollback
from repro.parallel.zero import ZeroShardedAdam
from repro.telemetry import Telemetry
from repro.tensors.arena import FlatArena
from repro.tensors.spill import SpillArena
from repro.tensors.workspace import ActivationWorkspace

#: Flat element counts benchmarked by default (largest ~4M fp32 = 16 MiB
#: per plane, big enough to be memory-bound like the real workload).
DEFAULT_SIZES = (1 << 16, 1 << 19, 1 << 22)
#: Quick (CI smoke) sizes straddle the executor's parallel dispatch
#: threshold so the regression guard exercises the structural win at
#: 512k, not just dispatch overhead at toy sizes.
QUICK_SIZES = (1 << 16, 1 << 19)

#: Sections ``substrate_bench`` can run (also the CLI's ``--sections``).
ALL_SECTIONS = (
    "zero_step", "rollback", "steady_state", "parallel_step",
    "zero_pipeline", "attention", "model_step", "spill", "checkpoint",
    "parallelism", "inference",
)

#: (m, k, n) shapes the fused qmatmul A/B sweeps — small-M, weight-heavy
#: matmuls, the shape serving decodes actually run (M is the number of
#: concurrently decoding sessions).  The fused win is the memory-bound
#: decode regime: it needs M < group_size, since the scale-pull-out
#: rewrite trades the (k, n) dequant multiply for ops on (k/gs, M, n)
#: partials.  Prefill-sized M amortizes the dense path's dequant and is
#: served fine by it.
QMATMUL_SHAPES = ((8, 1024, 4096), (16, 1024, 4096), (8, 2048, 2048))
QUICK_QMATMUL_SHAPES = ((8, 512, 1024), (16, 512, 2048))

#: Concurrent streaming-session counts the serving sweep offers (the
#: request-rate axis of the tokens/sec / p95 table).
SERVING_LEVELS = (8, 16)
QUICK_SERVING_LEVELS = (8,)

#: qmatmul vs dense-dequant agreement bound (same int8 operand, fp32
#: partial sums reassociated by the group loop — tolerance, not bitwise).
QMATMUL_TOL = 1e-4

#: (model billions, superchip count) grid the ``parallelism`` section
#: sweeps plans over.  Pure DP must stay *feasible* at every point so the
#: best-plan comparison is a timing statement, not a memory one — 18
#: bytes/param caps that at ~5B on a 96 GB GH200.
PARALLELISM_GRID = ((2, 4), (3, 8), (5, 8))
QUICK_PARALLELISM_GRID = ((5, 8),)

#: Sequence lengths for the ``attention`` section.  The largest is the
#: regression-guard size: the structural win (no ``S x S`` materialized,
#: upper-triangle tiles skipped outright) must show up there.
ATTENTION_SEQS = (256, 512, 1024)
QUICK_ATTENTION_SEQS = (256, 1024)
ATTENTION_GUARD_SEQ = 1024

#: Forward / backward agreement bounds between streaming and dense
#: (the streaming online softmax reorders reductions, so agreement is
#: tolerance-level, not bitwise — see ISSUE/DESIGN §9).
ATTENTION_FWD_TOL = 1e-5
ATTENTION_BWD_TOL = 1e-4

#: Sequence lengths for the ``model_step`` section (also the model's
#: ``max_seq``).
MODEL_STEP_SEQS = (128, 256)
QUICK_MODEL_STEP_SEQS = (128,)

#: Staging bucket size (elements) the ``zero_pipeline`` section uses —
#: 256 KiB of fp32, small enough that both double buffers sit in cache.
PIPELINE_BUCKET_ELEMENTS = 1 << 16

#: Bucket size (elements) and extent size for the ``spill`` section:
#: 512 KiB ops are deep into the device's bandwidth plateau (direct I/O
#: throughput falls off sharply below ~256 KiB per op) while keeping
#: enough buckets in flight at the bench sizes for the prefetch ring to
#: matter.
SPILL_BUCKET_ELEMENTS = 1 << 17
SPILL_CHUNK_BYTES = 1 << 19
SPILL_PREFETCH_DEPTH = 4


def _make_params(
    rng: np.random.Generator, n_total: int, n_tensors: int
) -> Dict[str, np.ndarray]:
    per = n_total // n_tensors
    return {
        f"p{i:02d}": rng.standard_normal(per, dtype=np.float32)
        for i in range(n_tensors)
    }


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_interleaved(fns: Sequence, repeats: int) -> List[float]:
    """Best-of-``repeats`` for several functions, timed in alternating
    rounds so clock drift and allocator warm-up hit every contestant
    equally (sequential best-of hands whichever runs later a warmer
    heap)."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _bench_zero_step(
    rng: np.random.Generator, n_total: int, n_tensors: int,
    world_size: int, repeats: int,
) -> Dict[str, float]:
    params = _make_params(rng, n_total, n_tensors)
    params_arena = {k: v.copy() for k, v in params.items()}
    config = AdamConfig()
    layout, shards = reference.zero_dict_copy_shards(params, world_size)
    steps = itertools.count(1)
    arena_opt = ZeroShardedAdam(params_arena, world_size, config)
    grad_dicts = [
        {k: rng.standard_normal(v.shape, dtype=np.float32)
         for k, v in params.items()}
        for _ in range(world_size)
    ]
    grad_arenas = [arena_opt.grad_arena(r) for r in range(world_size)]
    for ga, grads in zip(grad_arenas, grad_dicts):
        ga.fill_from(grads)
    flats = [ga.flat for ga in grad_arenas]

    def dict_copy_step():
        reference.zero_dict_copy_step(
            params, layout, shards, grad_dicts, config, next(steps)
        )

    dict_copy_step()                    # warm up both paths
    arena_opt.step_flat(flats)
    dict_s = _time(dict_copy_step, repeats)
    arena_s = _time(lambda: arena_opt.step_flat(flats), repeats)
    return {
        "elements": n_total,
        "bytes": n_total * 4,
        "dict_copy_ms": dict_s * 1e3,
        "arena_ms": arena_s * 1e3,
        "speedup": dict_s / arena_s,
    }


#: Model shapes of the ``dp_step`` row: the run-level benchmark's
#: ``train_zero_*`` model (8.68 M parameters — gradient planes far larger
#: than cache, like the real workload), and a CI-sized one.
DP_STEP_SPEC = dict(vocab=2048, max_seq=16, hidden=384, n_layers=4,
                    n_heads=8)
QUICK_DP_STEP_SPEC = dict(vocab=512, max_seq=16, hidden=128, n_layers=2,
                          n_heads=4)
#: One lockstep step from identical state: norm and parameter agreement
#: between the fused step and its reference (the trainer suite's bounds).
DP_STEP_NORM_RTOL = 1e-6
DP_STEP_PARAM_ATOL = 1e-5


def _bench_dp_step(
    world_size: int, workers: int, repeats: int, quick: bool, seed: int,
) -> Dict[str, float]:
    """The trainer's fused step vs. the unfused reference step.

    Both arms run the same model from the same seed over the same
    batches on a pipelined optimizer; the reference arm is the complete
    old step (casts, per-rank fresh gradient dicts, float64 mean +
    check, ``fill_from`` per rank, per-rank clip, plain ``step_flat``).
    Reports the median and the repeat CV of each arm (a ratio is only
    as good as its noise), the gradient-plane copies each arm makes per
    step, and whether one step from identical state agrees within the
    trainer suite's tolerances.
    """
    from repro.data.synthetic import SyntheticPile
    from repro.training.dp_trainer import DataParallelTrainer

    spec = TransformerParams(
        **(QUICK_DP_STEP_SPEC if quick else DP_STEP_SPEC))
    clip, batch = 1.0, world_size
    pool = get_pool(workers)
    trainer = DataParallelTrainer(
        spec, world_size, clip_norm=clip, seed=seed, pipeline=True,
        pool=pool)
    model = TinyTransformer(spec, seed=seed)
    optimizer = ZeroShardedAdam(model.params, world_size, pipeline=True,
                                pool=pool)
    fp16 = reference.fp16_model_copy(optimizer.arena)
    batches = SyntheticPile(spec.vocab, seed=seed).batches(
        batch, spec.max_seq)

    def fused_step(ids, targets):
        return trainer.train_step(ids, targets).grad_norm

    def reference_step(ids, targets):
        _, health = reference.dp_step_reference(
            model, optimizer, fp16, ids, targets, clip)
        return health.global_norm

    arms = (reference_step, fused_step)
    samples: List[List[float]] = [[], []]
    for i in range(repeats + 1):        # round 0 warms both paths up
        ids, targets = next(batches)
        for arm, times in zip(arms, samples):
            t0 = time.perf_counter()
            arm(ids, targets)
            if i:
                times.append(time.perf_counter() - t0)

    # One more step each from identical state, gradient-arena traffic
    # counted: the agreement flag and the copies-per-step column.
    optimizer.arena.flat[...] = trainer.arena.flat
    optimizer.load_moments(**trainer.optimizer.moment_planes(),
                           steps=trainer.optimizer.shard_steps())
    reference.fp16_model_copy(optimizer.arena, fp16)   # as a step ends
    ids, targets = next(batches)
    plane_bytes = trainer.arena.layout.unpadded * 4
    norms, copies = [], []
    for arm, opt in zip(arms, (optimizer, trainer.optimizer)):
        counted = Telemetry()
        for r in range(world_size):
            opt.grad_arena(r).set_telemetry(counted)
        norms.append(arm(ids, targets))
        copies.append(
            counted.metrics.counter("arena_bytes_copied").value
            / plane_bytes)
    tolerance_ok = bool(
        abs(norms[0] - norms[1]) <= DP_STEP_NORM_RTOL * norms[0]
        and np.allclose(trainer.arena.flat, optimizer.arena.flat,
                        rtol=0.0, atol=DP_STEP_PARAM_ATOL)
    )
    for opt in (optimizer, trainer.optimizer):
        opt.release_staging()
    pool.shutdown()
    reference_ms, fused_ms = (float(np.median(t)) * 1e3 for t in samples)
    reference_cv, fused_cv = (
        float(np.std(t) / np.mean(t)) for t in samples)
    return {
        "elements": trainer.arena.layout.unpadded,
        "world_size": world_size,
        "workers": workers,
        "reference_ms": reference_ms,
        "fused_ms": fused_ms,
        "speedup": reference_ms / fused_ms,
        "reference_cv": reference_cv,
        "fused_cv": fused_cv,
        "reference_copies_per_step": copies[0],
        "fused_copies_per_step": copies[1],
        "tolerance_ok": tolerance_ok,
    }


def _bench_rollback(
    rng: np.random.Generator, n_total: int, n_tensors: int, repeats: int
) -> Dict[str, float]:
    params_plain = _make_params(rng, n_total, n_tensors)
    params_arena = {k: v.copy() for k, v in params_plain.items()}
    FlatArena.adopt(params_arena)
    plain_opt = GraceAdam(params_plain, AdamConfig())
    arena_opt = GraceAdam(params_arena, AdamConfig())
    grads_plain = {
        k: rng.standard_normal(v.shape, dtype=np.float32)
        for k, v in params_plain.items()
    }
    grads_arena = {k: g.copy() for k, g in grads_plain.items()}
    plain_rb = SnapshotRollback(plain_opt)
    arena_rb = SnapshotRollback(arena_opt)

    def cycle(rb, grads):
        rb.capture(grads)
        rb.rollback(grads)

    cycle(plain_rb, grads_plain)        # warm up
    cycle(arena_rb, grads_arena)
    from repro.optim.rollback import SMALL_SNAPSHOT_CUTOFF, _ArenaSnapshot
    arena_rb.capture(grads_arena)
    arena_path_used = isinstance(arena_rb._snapshot, _ArenaSnapshot)
    arena_rb.discard()
    # Rollback cycles are cheap enough that extra rounds cost nothing,
    # and the small below-cutoff rows need them: best-of over few rounds
    # of two identical code paths can wobble several percent.
    plain_s, arena_s = _time_interleaved(
        [lambda: cycle(plain_rb, grads_plain),
         lambda: cycle(arena_rb, grads_arena)],
        max(repeats, 9),
    )
    return {
        "elements": n_total,
        "bytes": n_total * 4,
        "per_tensor_ms": plain_s * 1e3,
        "arena_ms": arena_s * 1e3,
        "speedup": plain_s / arena_s,
        # Below SMALL_SNAPSHOT_CUTOFF both optimizers take the identical
        # per-tensor path, so the honest speedup is 1.0 by construction
        # (the measured ratio wobbles around it within timing noise).
        "arena_path_used": arena_path_used,
        "cutoff_elements": SMALL_SNAPSHOT_CUTOFF,
    }


def _bench_steady_state(
    rng: np.random.Generator, n_total: int, n_tensors: int,
    world_size: int, steps: int,
) -> Dict[str, float]:
    telemetry = Telemetry()
    params = _make_params(rng, n_total, n_tensors)
    opt = ZeroShardedAdam(params, world_size, telemetry=telemetry)
    grad_arenas = [opt.grad_arena(r) for r in range(world_size)]
    flats = [ga.flat for ga in grad_arenas]
    for ga in grad_arenas:
        # Producers write gradients straight into the arena views — the
        # zero-copy contract the trainers follow.
        for view in ga.views.values():
            view[...] = rng.standard_normal(view.shape, dtype=np.float32)
    opt.step_flat(flats)                # settle one-time costs
    copied = telemetry.metrics.counter("arena_bytes_copied")
    aliased = telemetry.metrics.counter("arena_bytes_aliased")
    copied_before, aliased_before = copied.value, aliased.value
    for _ in range(steps):
        opt.step_flat(flats)
    return {
        "elements": n_total,
        "steps": steps,
        "arena_bytes_copied_per_step": (copied.value - copied_before) / steps,
        "arena_bytes_aliased_per_step":
            (aliased.value - aliased_before) / steps,
    }


def _bench_parallel_step(
    rng: np.random.Generator, n_total: int, n_tensors: int,
    workers: int, repeats: int,
) -> Dict[str, float]:
    """Chunked-executor flat Adam step vs. its two serial ancestors.

    The headline ``speedup`` is against the serial flat-arena baseline
    (:func:`repro.reference.cpu_adam_serial` — whole-plane fused passes
    with full-size out-of-place temporaries, the substrate's pre-executor
    hot path and the paper's "CPU-Adam" Table 3 referent).
    ``speedup_vs_tiled`` is against GraceAdam's serial tiled walk
    (:func:`repro.reference.grace_adam_serial`), whose cache-resident
    temporaries make it the tighter contest.  All three contestants
    start from bitwise-identical state and step on bitwise-identical
    gradients; ``bitwise_identical`` covers every timed step, not just a
    warm-up.
    """
    config = AdamConfig(lr=1e-3, weight_decay=0.01)
    params_par = _make_params(rng, n_total, n_tensors)
    FlatArena.adopt(params_par)
    pool = get_pool(workers)
    par = GraceAdam(params_par, config, pool=pool)
    n = par.arena.layout.unpadded
    grads = par.arena.like()
    for view in grads.views.values():
        view[...] = rng.standard_normal(view.shape, dtype=np.float32)
    grad_dict = dict(grads.views)

    def grad_plane():
        # The gradient-dict alias detection every optimizer step pays
        # (the executor arm does inside ``step``) — so all three arms
        # differ only in the kernel.
        return par.arena.flat_of(grad_dict)[:n]

    # The two serial ancestors step bare (p, m, v) planes.
    serial_pmv = (par.arena.flat[:n].copy(), np.zeros(n, np.float32),
                  np.zeros(n, np.float32))
    tiled_pmv = tuple(x.copy() for x in serial_pmv)
    serial_steps, tiled_steps = itertools.count(1), itertools.count(1)
    arms = [
        lambda: reference.cpu_adam_serial(
            *serial_pmv, grad_plane(), config, next(serial_steps)),
        lambda: reference.grace_adam_serial(
            *tiled_pmv, grad_plane(), config, next(tiled_steps),
            par.tile_size),
        lambda: par.step(grad_dict),
    ]
    for arm in arms:
        arm()                           # warm up all three paths
    serial_s, tiled_s, par_s = _time_interleaved(arms, repeats)
    identical = (
        next(serial_steps) == next(tiled_steps) == par.step_count + 1
        and np.array_equal(serial_pmv[0], par.arena.flat[:n])
        and np.array_equal(tiled_pmv[0], par.arena.flat[:n])
        and np.array_equal(serial_pmv[1], par.arena_m.flat[:n])
        and np.array_equal(serial_pmv[2], par.arena_v.flat[:n])
    )
    pool.shutdown()
    return {
        "elements": n_total,
        "bytes": n_total * 4,
        "workers": workers,
        "serial_ms": serial_s * 1e3,
        "tiled_ms": tiled_s * 1e3,
        "parallel_ms": par_s * 1e3,
        "speedup": serial_s / par_s,
        "speedup_vs_tiled": tiled_s / par_s,
        "bitwise_identical": identical,
    }


def _bench_zero_pipeline(
    rng: np.random.Generator, n_total: int, n_tensors: int,
    world_size: int, workers: int, repeats: int,
) -> Dict[str, float]:
    """Overlapped bucket ZeRO step vs. the serial zero-copy ``step_flat``."""
    params_serial = _make_params(rng, n_total, n_tensors)
    params_pipe = {k: v.copy() for k, v in params_serial.items()}
    serial = ZeroShardedAdam(params_serial, world_size)
    pool = get_pool(workers)
    pipe = ZeroShardedAdam(
        params_pipe, world_size, pipeline=True,
        bucket_elements=PIPELINE_BUCKET_ELEMENTS, pool=pool,
    )
    flats_serial = []
    flats_pipe = []
    for r in range(world_size):
        ga = serial.grad_arena(r)
        for view in ga.views.values():
            view[...] = rng.standard_normal(view.shape, dtype=np.float32)
        flats_serial.append(ga.flat)
        gp = pipe.grad_arena(r)
        gp.flat[...] = ga.flat
        flats_pipe.append(gp.flat)
    serial.step_flat(flats_serial)      # warm up both paths
    pipe.step_flat(flats_pipe)
    serial_s, pipe_s = _time_interleaved(
        [lambda: serial.step_flat(flats_serial),
         lambda: pipe.step_flat(flats_pipe)],
        repeats,
    )
    identical = (
        serial.step_count == pipe.step_count
        and np.array_equal(serial.arena.flat, pipe.arena.flat)
    )
    pipe.release_staging()
    pool.shutdown()
    return {
        "elements": n_total,
        "bytes": n_total * 4,
        "workers": workers,
        "bucket_elements": pipe.bucket_elements,
        "serial_ms": serial_s * 1e3,
        "pipeline_ms": pipe_s * 1e3,
        "speedup": serial_s / pipe_s,
        "bitwise_identical": identical,
    }


def _bench_spill(
    rng: np.random.Generator, n_total: int, n_tensors: int,
    world_size: int, workers: int, repeats: int,
) -> Dict[str, float]:
    """Disk-offloaded ZeRO step: overlapped prefetch vs. the sync spill
    baseline, with the resident step as the roofline.

    Three bitwise-identical contestants step on identical gradients: the
    resident serial ``step_flat`` (moments in memory), the
    strict-sequence disk step
    :func:`repro.reference.zero_disk_sync_step` (every read/write an
    exposed stall — the honest non-overlapped baseline), and the
    production disk step (reads prefetched, reduce on the pool, writes
    behind the bucket loop).  The headline ``speedup`` is sync/overlap —
    what the prefetch machinery buys at the same disk tier.
    """
    config = AdamConfig()
    params_res = _make_params(rng, n_total, n_tensors)
    params_ovl = {k: v.copy() for k, v in params_res.items()}
    resident = ZeroShardedAdam(params_res, world_size, config)
    pool = get_pool(workers)
    dirs = [tempfile.TemporaryDirectory(prefix="repro-spill-")
            for _ in range(2)]
    ovl = ZeroShardedAdam(
        params_ovl, world_size, config, offload="disk",
        spill_dir=dirs[1].name, bucket_elements=SPILL_BUCKET_ELEMENTS,
        spill_chunk_bytes=SPILL_CHUNK_BYTES,
        spill_prefetch_depth=SPILL_PREFETCH_DEPTH, pool=pool,
    )
    total = resident.arena.layout.total
    sync_master = resident.arena.flat.copy()
    sync_spill = SpillArena(dirs[0].name, {"m": total, "v": total},
                            chunk_bytes=SPILL_CHUNK_BYTES)
    sync_scratch = np.empty((3, ovl.bucket_elements), dtype=np.float32)
    flats = []
    for r in range(world_size):
        ga = resident.grad_arena(r)
        for view in ga.views.values():
            view[...] = rng.standard_normal(view.shape, dtype=np.float32)
        flats.append(ga.flat)
    steps = itertools.count(1)

    def sync_step():
        reference.zero_disk_sync_step(
            sync_master, sync_spill, flats, sync_scratch, config,
            next(steps),
        )

    arms = [lambda: resident.step_flat(flats), sync_step,
            lambda: ovl.step_flat(flats)]
    for arm in arms:
        arm()                           # warm up all three paths
    resident_s, sync_s, ovl_s = _time_interleaved(arms, repeats)
    identical = (
        resident.step_count == ovl.step_count
        and np.array_equal(resident.arena.flat, sync_master)
        and np.array_equal(resident.arena.flat, ovl.arena.flat)
    )
    spill_read = ovl.spill.bytes_read
    spill_written = ovl.spill.bytes_written
    ovl.release_staging()
    ovl.close_spill()
    sync_spill.close()
    pool.shutdown()
    for d in dirs:
        d.cleanup()
    return {
        "elements": n_total,
        "bytes": n_total * 4,
        "workers": workers,
        "bucket_elements": ovl.bucket_elements,
        "prefetch_depth": SPILL_PREFETCH_DEPTH,
        "resident_ms": resident_s * 1e3,
        "sync_ms": sync_s * 1e3,
        "overlap_ms": ovl_s * 1e3,
        "speedup": sync_s / ovl_s,
        "speedup_vs_resident": resident_s / ovl_s,
        "offload_overhead": ovl_s / resident_s,
        "spill_bytes_read": spill_read,
        "spill_bytes_written": spill_written,
        "bitwise_identical": identical,
    }


def _bench_checkpoint(
    rng: np.random.Generator, n_total: int, repeats: int,
) -> Dict[str, float]:
    """Async checkpoint stall vs. a blocking save of the same snapshot.

    Both sides snapshot identical (master, m, v) planes through the same
    :class:`~repro.training.checkpoint.AsyncCheckpointer` machinery; the
    blocking side waits each commit (data fsync + manifest rename) on
    the training thread, the async side pays only the capture memcpy and
    whatever slot backpressure the disk imposes.  The headline
    ``speedup`` is blocking/async-stall — the step time a zero-stall
    checkpoint gives back.  ``bitwise_identical`` is a restore round
    trip against the live planes.
    """
    from repro.training.checkpoint import AsyncCheckpointer

    planes = {
        "master": rng.standard_normal(n_total).astype(np.float32),
        "m": rng.standard_normal(n_total).astype(np.float32),
        "v": rng.standard_normal(n_total).astype(np.float32),
    }
    schema = {k: v.size for k, v in planes.items()}
    dirs = [tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            for _ in range(2)]
    blocking_ck = AsyncCheckpointer(dirs[0].name, schema)
    async_ck = AsyncCheckpointer(dirs[1].name, schema)
    steps = {"blocking": 0, "async": 0}

    def blocking_save():
        blocking_ck.save(steps["blocking"], planes,
                         meta={"iteration": steps["blocking"]}).wait()
        steps["blocking"] += 1

    def async_save():
        async_ck.save(steps["async"], planes,
                      meta={"iteration": steps["async"]})
        steps["async"] += 1

    blocking_save()                     # warm up (files, page cache)
    async_save()
    async_ck.wait()
    blocking_s, async_s = _time_interleaved(
        [blocking_save, async_save], max(repeats, 5)
    )
    async_ck.wait()                     # drain before the round trip
    restored = {k: np.empty_like(v) for k, v in planes.items()}
    info = async_ck.restore(restored)
    identical = all(
        np.array_equal(planes[k], restored[k]) for k in planes
    )
    commits = async_ck.saves_total + blocking_ck.saves_total
    blocking_ck.close()
    async_ck.close()
    for d in dirs:
        d.cleanup()
    return {
        "elements": n_total,
        "bytes": 3 * n_total * 4,
        "blocking_ms": blocking_s * 1e3,
        "async_stall_ms": async_s * 1e3,
        "speedup": blocking_s / async_s,
        "last_committed_step": info.step,
        "saves": commits,
        "bitwise_identical": identical,
    }


def _bench_attention(
    rng: np.random.Generator, seq: int, repeats: int,
    heads: int = 4, head_dim: int = 32, batch: int = 2,
    block_q: int = flash.DEFAULT_BLOCK_Q,
    block_k: int = flash.DEFAULT_BLOCK_K,
) -> Dict[str, float]:
    """Streaming blocked attention vs. the dense ``S x S`` reference
    (:func:`repro.reference.dense_attention_forward`).

    Both contestants compute causal attention over identical inputs.
    The dense path materializes the score matrix (and softmax
    temporaries of the same size); the streaming path's transients are
    the calling thread's tile scratch plus the ``(out, lse)`` it
    returns, so the recorded ``peak_transient_ratio`` is the
    activation-memory win and the ``*_speedup`` columns are the time win
    (upper-triangle tiles are never computed, and every temporary stays
    cache-sized).
    """
    q = rng.standard_normal((batch, heads, seq, head_dim), dtype=np.float32)
    k = rng.standard_normal((batch, heads, seq, head_dim), dtype=np.float32)
    v = rng.standard_normal((batch, heads, seq, head_dim), dtype=np.float32)
    dout = rng.standard_normal(q.shape, dtype=np.float32)
    out = np.empty_like(q)
    lse = np.empty(q.shape[:3], dtype=q.dtype)
    dq, dk, dv = (np.empty_like(q) for _ in range(3))

    def stream_fwd():
        return flash.streaming_attention_forward(
            q, k, v, causal=True, block_q=block_q, block_k=block_k,
            out=out, lse=lse,
        )

    def stream_fwd_bwd():
        _, cache = stream_fwd()
        flash.streaming_attention_backward(dout, cache, dq=dq, dk=dk, dv=dv)

    def dense_fwd():
        return reference.dense_attention_forward(q, k, v, True)

    def dense_fwd_bwd():
        _, cache = dense_fwd()
        reference.dense_attention_backward(dout, cache)

    # correctness first: tolerance vs. dense, bitwise across head grouping
    ref, ref_cache = dense_fwd()
    got, got_cache = stream_fwd()
    fwd_diff = float(np.abs(got - ref).max())
    rdq, rdk, rdv = reference.dense_attention_backward(dout, ref_cache)
    sdq, sdk, sdv = flash.streaming_attention_backward(
        dout, got_cache, dq=dq, dk=dk, dv=dv
    )
    bwd_diff = max(
        float(np.abs(a - b).max())
        for a, b in ((sdq, rdq), (sdk, rdk), (sdv, rdv))
    )
    bitwise_across_grouping = True
    for b, h in itertools.product(range(batch), range(heads)):
        one = (slice(b, b + 1), slice(h, h + 1))
        solo_out, solo_cache = flash.streaming_attention_forward(
            q[one], k[one], v[one], causal=True,
            block_q=block_q, block_k=block_k,
        )
        solo = (solo_out,) + flash.streaming_attention_backward(
            dout[one], solo_cache
        )
        bitwise_across_grouping &= all(
            np.array_equal(alone, grouped[one])
            for alone, grouped in zip(solo, (got, sdq, sdk, sdv))
        )
    tolerance_ok = (
        fwd_diff <= ATTENTION_FWD_TOL and bwd_diff <= ATTENTION_BWD_TOL
    )
    dense_fwd_s, stream_fwd_s = _time_interleaved(
        [dense_fwd, stream_fwd], repeats
    )
    dense_step_s, stream_step_s = _time_interleaved(
        [dense_fwd_bwd, stream_fwd_bwd], repeats
    )
    dense_transient = batch * heads * seq * seq * 4  # one S x S fp32 plane
    bq, bk = min(block_q, seq), min(block_k, seq)
    group = flash.group_size(batch * heads, bq, bk, head_dim)
    streaming_transient = (
        out.nbytes + lse.nbytes
        + flash.tile_scratch_bytes(bq, bk, head_dim, group=group)
    )
    return {
        "seq": seq,
        "batch": batch,
        "heads": heads,
        "head_dim": head_dim,
        "block_q": block_q,
        "block_k": block_k,
        "dense_fwd_ms": dense_fwd_s * 1e3,
        "streaming_fwd_ms": stream_fwd_s * 1e3,
        "fwd_speedup": dense_fwd_s / stream_fwd_s,
        "dense_step_ms": dense_step_s * 1e3,
        "streaming_step_ms": stream_step_s * 1e3,
        "step_speedup": dense_step_s / stream_step_s,
        # headline speedup (the geomean summary key): full fwd+bwd
        "speedup": dense_step_s / stream_step_s,
        "fwd_max_abs_diff": fwd_diff,
        "bwd_max_abs_diff": bwd_diff,
        "tolerance_ok": tolerance_ok,
        "bitwise_across_grouping": bitwise_across_grouping,
        "dense_transient_bytes": dense_transient,
        "streaming_transient_bytes": streaming_transient,
        "peak_transient_ratio": dense_transient / streaming_transient,
    }


def _bench_model_step(
    rng: np.random.Generator, seq: int, repeats: int, batch: int = 2,
) -> Dict[str, float]:
    """Workspace-backed model step vs. the same model without one.

    The baseline allocates every activation and backward temporary
    fresh; the contestant routes the same ``loss_and_grads`` through an
    :class:`ActivationWorkspace`, so the row measures the workspace
    alone.  ``steady_allocs_per_step`` counts workspace allocations on a
    post-warm-up step; the allocation-free claim is that it is zero.
    """
    spec = TransformerParams(
        vocab=256, max_seq=seq, hidden=128, n_layers=2, n_heads=4
    )
    ids = rng.integers(0, spec.vocab, size=(batch, seq))
    targets = rng.integers(0, spec.vocab, size=(batch, seq))
    baseline = TinyTransformer(spec, seed=0)
    telemetry = Telemetry()
    ws = ActivationWorkspace(telemetry=telemetry)
    contender = TinyTransformer(
        spec, seed=0, workspace=ws, telemetry=telemetry
    )
    loss_base, grads_base = baseline.loss_and_grads(ids, targets)  # warm up
    loss_ws, grads_ws = contender.loss_and_grads(ids, targets)
    contender.loss_and_grads(ids, targets)  # settle the free lists
    loss_diff = abs(loss_ws - loss_base)
    grad_diff = max(
        float(np.abs(grads_base[k] - grads_ws[k]).max()) for k in grads_base
    )
    bitwise = loss_ws == loss_base and all(
        np.array_equal(grads_base[k], grads_ws[k]) for k in grads_base
    )
    allocs_before = ws.alloc_count
    contender.loss_and_grads(ids, targets)
    steady_allocs = ws.alloc_count - allocs_before
    base_s, ws_s = _time_interleaved(
        [lambda: baseline.loss_and_grads(ids, targets),
         lambda: contender.loss_and_grads(ids, targets)],
        repeats,
    )
    return {
        "seq": seq,
        "batch": batch,
        "hidden": spec.hidden,
        "n_layers": spec.n_layers,
        "baseline_ms": base_s * 1e3,
        "workspace_ms": ws_s * 1e3,
        "speedup": base_s / ws_s,
        "loss_abs_diff": loss_diff,
        "grad_max_abs_diff": grad_diff,
        "tolerance_ok": loss_diff <= 1e-5 and grad_diff <= ATTENTION_BWD_TOL,
        "bitwise": bitwise,
        "steady_allocs_per_step": steady_allocs,
        "workspace_peak_bytes": ws.peak_bytes,
        "workspace_reuse_count": ws.reuse_count,
    }


#: The MLP activation of the run-level ``train_stv_compute`` workload
#: (batch 4, seq 128, 4 x hidden 192) — where GELU was measured.
ELEMENTWISE_SHAPE = (4, 128, 768)
#: ``gelu``/``gelu_grad`` vs. their ``x**3`` ancestors (the exhaustive
#: fp32 maximum is 1.3e-6, on ``gelu_grad``).
ELEMENTWISE_TOL = 2e-6


def _bench_elementwise(rng: np.random.Generator, repeats: int) -> Dict:
    """GELU forward + backward in ns per element: the two-multiply cube
    vs. the ``x**3`` ancestors (libm ``powf`` per element), timed in
    alternating rounds, with each arm's repeat CV and their agreement."""
    x = rng.standard_normal(ELEMENTWISE_SHAPE, dtype=np.float32)
    arms = (reference.gelu_pow, reference.gelu_grad_pow, gelu, gelu_grad)
    seconds = np.empty((4 * repeats, len(arms)))
    for row in seconds:
        for i, arm in enumerate(arms):
            t0 = time.perf_counter()
            arm(x)
            row[i] = time.perf_counter() - t0
    pow_fwd, pow_bwd, fwd, bwd = np.median(seconds, axis=0) * 1e9 / x.size
    pow_rounds, rounds = seconds[:, :2].sum(axis=1), seconds[:, 2:].sum(axis=1)
    diff = max(float(np.abs(new(x) - old(x)).max())
               for old, new in zip(arms[:2], arms[2:]))
    return {
        "elements": x.size,
        "pow_fwd_ns": pow_fwd, "pow_bwd_ns": pow_bwd,
        "fwd_ns": fwd, "bwd_ns": bwd,
        "speedup": (pow_fwd + pow_bwd) / (fwd + bwd),
        "pow_cv": float(pow_rounds.std() / pow_rounds.mean()),
        "cv": float(rounds.std() / rounds.mean()),
        "max_abs_diff": diff,
        "tolerance_ok": diff <= ELEMENTWISE_TOL,
    }


def _bench_parallelism(
    rng: np.random.Generator, repeats: int, quick: bool,
) -> Dict:
    """The ParallelPlan grid sweep: substrate equivalence + best plan.

    Two halves, one plan vocabulary:

    * **Substrate** — every ``TPxPPxDP`` factorization of a 4-way world
      executes a real per-replica step through
      :class:`~repro.parallel.plan.PlanModel` and is checked against the
      unsharded :class:`TinyTransformer` on identical shards (TP paths
      are tolerance-equivalent — see ``repro.parallel.tensor`` — and the
      1F1B measured bubble is compared to the ideal ``(p-1)/(m+p-1)``).
    * **Simulator** — for each (model size, world size) grid point every
      plan is priced by :class:`~repro.systems.pipeline_tp.PipelinedTP`
      over the GH200 cluster; the best plan and its speedup over pure DP
      (``tp1.pp1``) are recorded.  The headline ``speedup`` is the
      largest grid point's best-plan-over-pure-DP ratio — the number the
      regression guard watches.
    """
    from repro.models.config import MODEL_CONFIG_TABLE
    from repro.parallel.pipeline import (
        microbatched_loss_and_grads,
        split_microbatches,
    )
    from repro.parallel.plan import ParallelPlan, PlanModel
    from repro.systems.base import InfeasibleError, RunSetting
    from repro.systems.pipeline_tp import PipelinedTP
    from repro.training.cluster import gh200_cluster

    # -- substrate: every plan of a 4-way world vs the unsharded model --
    spec = TransformerParams(
        vocab=64, max_seq=16, hidden=32, n_layers=4, n_heads=4
    )
    batch = 8
    model = TinyTransformer(spec, seed=0)
    ids = rng.integers(0, spec.vocab, size=(batch, spec.max_seq))
    targets = rng.integers(0, spec.vocab, size=(batch, spec.max_seq))
    substrate_rows: List[Dict] = []
    for plan in ParallelPlan.enumerate(4, spec):
        replica = batch // plan.dp
        m = min(replica, 4)
        routed = PlanModel(model, plan, n_microbatches=m)
        # Per-replica shards: the DP axis is pure batch splitting, so
        # per-shard equivalence is the full equivalence statement.
        shard_ids, shard_targets = split_microbatches(ids, targets, plan.dp)
        loss_diff = grad_diff = 0.0
        bubble = None
        for s_ids, s_targets in zip(shard_ids, shard_targets):
            # The per-plan reference: pipelined plans accumulate over m
            # microbatches, so they compare against the *microbatched*
            # sequential step (bitwise-identical by the 1F1B contract);
            # unpipelined plans compare against the plain step.
            if plan.pp > 1:
                ref_loss, ref_grads = microbatched_loss_and_grads(
                    model, s_ids, s_targets, m
                )
            else:
                ref_loss, ref_grads = model.loss_and_grads(s_ids, s_targets)
            loss, grads = routed.loss_and_grads(s_ids, s_targets)
            loss_diff = max(loss_diff, abs(loss - ref_loss))
            grad_diff = max(
                grad_diff,
                max(float(np.abs(ref_grads[k] - grads[k]).max())
                    for k in ref_grads),
            )
        if plan.pp > 1:
            bubble = routed.measured_bubble_fraction()
        substrate_rows.append({
            "plan": plan.describe(),
            "microbatches": m if plan.pp > 1 else 1,
            "loss_abs_diff": loss_diff,
            "grad_max_abs_diff": grad_diff,
            # TP reorders reductions (k-dim partials, shape-dependent
            # BLAS blocking); pure-PP plans are bitwise.
            "bitwise": grad_diff == 0.0 and loss_diff == 0.0,
            "tolerance_ok": loss_diff <= 1e-6 and grad_diff <= 1e-6,
            "measured_bubble": bubble,
            "ideal_bubble": (
                (plan.pp - 1) / (m + plan.pp - 1) if plan.pp > 1 else None
            ),
        })

    # -- simulator: best plan per (model size, world size) -------------
    grid = QUICK_PARALLELISM_GRID if quick else PARALLELISM_GRID
    grid_rows: List[Dict] = []
    for billions, world in grid:
        cfg = MODEL_CONFIG_TABLE[billions]
        setting = RunSetting(
            cfg, gh200_cluster(world), global_batch=4 * world, seq=1024
        )
        plan_rows: List[Dict] = []
        for plan in ParallelPlan.enumerate(world):
            if cfg.hidden % plan.tp or cfg.n_heads % plan.tp:
                continue
            if plan.pp > cfg.n_layers:
                continue
            system = PipelinedTP(tp=plan.tp, pp=plan.pp)
            try:
                est = system.best_estimate(setting)
            except InfeasibleError:
                continue
            plan_rows.append({
                "plan": plan.describe(),
                "iter_s": est.iter_time,
                "tflops_per_gpu": est.tflops_per_gpu,
                "microbatches": est.choice.grad_accum,
                "predicted_bubble": (
                    system.predicted_bubble_fraction(setting, est.choice)
                    if plan.pp > 1 else 0.0
                ),
            })
        plan_rows.sort(key=lambda r: r["iter_s"])
        best = plan_rows[0]
        pure_dp = next(
            r for r in plan_rows if r["plan"] == "tp1.pp1.dp%d.sp1" % world
        )
        composed = [
            r for r in plan_rows
            if r["plan"].split(".")[0] != "tp1"
            and r["plan"].split(".")[1] != "pp1"
        ]
        grid_rows.append({
            "model": cfg.name,
            "world": world,
            "global_batch": setting.global_batch,
            "seq": setting.seq,
            "plans": plan_rows,
            "best_plan": best["plan"],
            "best_iter_s": best["iter_s"],
            "pure_dp_iter_s": pure_dp["iter_s"],
            "speedup_vs_pure_dp": pure_dp["iter_s"] / best["iter_s"],
            # The acceptance bar: a TPxPP-composed plan outrunning pure
            # DP (its gradient all-reduce moves tp*pp times the bytes).
            "composed_beats_pure_dp": bool(
                composed and composed[0]["iter_s"] < pure_dp["iter_s"]
            ),
        })

    largest = grid_rows[-1]
    return {
        "substrate": substrate_rows,
        "grid": grid_rows,
        "all_tolerance_ok": all(r["tolerance_ok"] for r in substrate_rows),
        # headline: the largest grid point's best plan over pure DP
        "speedup": largest["speedup_vs_pure_dp"],
        "best_plan": largest["best_plan"],
    }


def _bench_qmatmul(
    rng: np.random.Generator, m: int, k: int, n: int, workers: int,
    repeats: int,
) -> Dict[str, float]:
    """Fused int8 qmatmul vs its dense-dequant reference (and fp32).

    All three contestants produce the same logical product.  The fused
    path dequantizes group-by-group inside the tile loop (~1 byte of
    weight traffic per element); the dense-dequant reference
    materializes the fp32 weight first (~9 bytes: read int8, write
    fp32, re-read fp32) — that traffic gap is the ``speedup`` column.
    ``vs_fp32`` is the honest extra column against a *resident* fp32
    weight, i.e. what quantization costs (or wins) when memory is not
    the constraint.  Correctness columns: max deviation from the
    reference, the analytic per-group error bound check against the
    exact fp32 product, and bitwise determinism across worker counts.
    """
    from repro.exec.ops import parallel_qmatmul
    from repro.exec.pool import KernelPool
    from repro.numeric.lowprec import QuantizedTensor, quantize_int8_blocked
    from repro.tune.registry import default as registry_default

    group = registry_default("quant.group_size")
    w = (0.05 * rng.standard_normal((k, n))).astype(np.float32)
    x = rng.standard_normal((m, k), dtype=np.float32)
    bias = rng.standard_normal(n, dtype=np.float32)
    qweight, scales = quantize_int8_blocked(w, group)
    qt = QuantizedTensor(qweight, scales, group)
    pool = get_pool(workers)
    out_f = np.empty((m, n), dtype=np.float32)
    out_d = np.empty((m, n), dtype=np.float32)
    out_w = np.empty((m, n), dtype=np.float32)
    wbuf = np.empty((k, n), dtype=np.float32)

    def fused():
        parallel_qmatmul(x, qt, bias, out=out_f, pool=pool)

    def dense_dequant():
        qt.dequantize(out=wbuf)
        np.matmul(x, wbuf, out=out_d)
        np.add(out_d, bias, out=out_d)

    def fp32_resident():
        np.matmul(x, w, out=out_w)
        np.add(out_w, bias, out=out_w)

    fused_s, dense_s, fp32_s = _time_interleaved(
        [fused, dense_dequant, fp32_resident], repeats
    )
    max_err = float(np.max(np.abs(out_f - out_d)))
    scale_ref = float(np.max(np.abs(out_d))) or 1.0
    # Analytic bound vs the exact fp32 product: |x| @ (scale/2).
    exact = x @ w + bias
    bound = np.abs(x) @ qt.error_bound()
    bound_ok = bool(
        np.all(np.abs(out_f - exact) <= bound * (1 + 1e-4) + 1e-5)
    )
    serial = KernelPool(1)
    out_1 = parallel_qmatmul(x, qt, bias, pool=serial)
    return {
        "shape": f"{m}x{k}x{n}",
        "elements": m * k * n,
        "group_size": group,
        "fused_ms": fused_s * 1e3,
        "dense_dequant_ms": dense_s * 1e3,
        "fp32_resident_ms": fp32_s * 1e3,
        "speedup": dense_s / fused_s,
        "vs_fp32": fp32_s / fused_s,
        "mem_ratio": w.nbytes / qt.nbytes,
        "max_rel_err": max_err / scale_ref,
        "tolerance_ok": max_err <= QMATMUL_TOL * scale_ref,
        "bound_ok": bound_ok,
        "deterministic": bool(np.array_equal(out_f, out_1)),
    }


def _bench_serving(
    sessions: int, workers: int, quick: bool
) -> Dict[str, float]:
    """Throughput/latency of the streaming server at one concurrency.

    ``sessions`` client threads each submit one prompt and consume the
    token stream; the continuous-batching loop mixes their prefills and
    decodes freely.  Tokens/sec is aggregate across the fleet; p50/p95
    are per-token latency over every inter-token gap of every stream.
    """
    import threading

    from repro.serving import InferenceEngine, StreamingServer

    spec = TransformerParams(
        vocab=128 if quick else 512,
        max_seq=64 if quick else 160,
        hidden=64 if quick else 128,
        n_layers=2 if quick else 4,
        n_heads=4 if quick else 8,
    )
    model = TinyTransformer(spec, seed=0)
    prompt_len = 8 if quick else 16
    max_new = 8 if quick else 32
    engine = InferenceEngine(model, pool=get_pool(workers))
    ratio = engine.memory_ratio
    rng = np.random.default_rng(1)
    prompts = [
        rng.integers(0, spec.vocab, size=prompt_len)
        for _ in range(sessions)
    ]
    counts: List[int] = [0] * sessions
    with StreamingServer(engine, max_batch=sessions) as server:
        def client(i: int) -> None:
            sid = server.submit(prompts[i], max_new)
            counts[i] = len(server.result(sid))

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        met = server.metrics()
    if any(c != max_new for c in counts):
        raise RuntimeError(f"short streams: {counts}")
    return {
        "sessions": sessions,
        "prompt_tokens": prompt_len,
        "max_new_tokens": max_new,
        "tokens": met["tokens"],
        "request_rate_per_s": met["sessions"] / met["wall_s"],
        "tokens_per_sec": met["tokens_per_sec"],
        "p50_token_ms": met["p50_token_ms"],
        "p95_token_ms": met["p95_token_ms"],
        "ttft_ms": met["ttft_ms"],
        "memory_ratio": ratio,
    }


def _bench_inference(
    rng: np.random.Generator, workers: int, repeats: int, quick: bool
) -> Dict:
    """The ``inference`` section: qmatmul A/B plus the serving sweep."""
    import math

    shapes = QUICK_QMATMUL_SHAPES if quick else QMATMUL_SHAPES
    levels = QUICK_SERVING_LEVELS if quick else SERVING_LEVELS
    qrows = [
        _bench_qmatmul(rng, m, k, n, workers, repeats)
        for (m, k, n) in shapes
    ]
    srows = [_bench_serving(s, workers, quick) for s in levels]
    gm = math.exp(
        sum(math.log(r["speedup"]) for r in qrows) / len(qrows)
    )
    return {
        "qmatmul": qrows,
        "serving": srows,
        "speedup": gm,
        "tokens_per_sec": max(r["tokens_per_sec"] for r in srows),
        "p95_token_ms": min(r["p95_token_ms"] for r in srows),
        "memory_ratio": srows[0]["memory_ratio"],
    }


def substrate_bench(
    sizes: Optional[List[int]] = None,
    world_size: int = 4,
    n_tensors: int = 8,
    repeats: int = 5,
    seed: int = 0,
    quick: bool = False,
    workers: Optional[int] = None,
    sections: Optional[Sequence[str]] = None,
) -> Dict:
    """Run the full substrate benchmark; returns a JSON-ready document.

    Args:
        sizes: flat element counts to benchmark (defaults depend on
            ``quick``).
        world_size: simulated rank count for the ZeRO sections.
        n_tensors: named tensors each parameter set is split into.
        repeats: timing repetitions (best-of).
        seed: RNG seed for parameters and gradients.
        quick: smoke-run sizes/repeats (used by CI).
        workers: kernel-pool thread count for the executor sections
            (default: at least 2, so the parallel machinery is really
            exercised even on small hosts).
        sections: subset of :data:`ALL_SECTIONS` to run (default: all).
    """
    if sizes is None:
        sizes = list(QUICK_SIZES if quick else DEFAULT_SIZES)
    if quick:
        repeats = min(repeats, 3)
    if workers is None:
        workers = max(2, default_workers())
    if sections is None:
        sections = ALL_SECTIONS
    unknown = set(sections) - set(ALL_SECTIONS)
    if unknown:
        raise ValueError(
            f"unknown bench sections {sorted(unknown)}; "
            f"known: {list(ALL_SECTIONS)}"
        )
    rng = np.random.default_rng(seed)
    result: Dict = {
        "benchmark": "substrate_arena",
        "world_size": world_size,
        "n_tensors": n_tensors,
        "repeats": repeats,
        "workers": workers,
    }
    if "zero_step" in sections:
        result["zero_step"] = [
            _bench_zero_step(rng, n, n_tensors, world_size, repeats)
            for n in sizes
        ]
        result["dp_step"] = [
            _bench_dp_step(world_size, workers, repeats, quick, seed)
        ]
    if "rollback" in sections:
        result["rollback"] = [
            _bench_rollback(rng, n, n_tensors, repeats) for n in sizes
        ]
    if "steady_state" in sections:
        result["steady_state"] = _bench_steady_state(
            rng, sizes[-1], n_tensors, world_size, steps=max(3, repeats)
        )
    if "parallel_step" in sections:
        result["parallel_step"] = [
            _bench_parallel_step(rng, n, n_tensors, workers, repeats)
            for n in sizes
        ]
    if "zero_pipeline" in sections:
        result["zero_pipeline"] = [
            _bench_zero_pipeline(rng, n, n_tensors, world_size, workers,
                                 repeats)
            for n in sizes
        ]
    if "attention" in sections:
        seqs = QUICK_ATTENTION_SEQS if quick else ATTENTION_SEQS
        result["attention"] = [
            _bench_attention(rng, s, repeats) for s in seqs
        ]
    if "model_step" in sections:
        seqs = QUICK_MODEL_STEP_SEQS if quick else MODEL_STEP_SEQS
        result["model_step"] = [
            _bench_model_step(rng, s, repeats) for s in seqs
        ]
        result["elementwise"] = [_bench_elementwise(rng, repeats)]
    if "spill" in sections:
        result["spill"] = [
            _bench_spill(rng, n, n_tensors, world_size, workers, repeats)
            for n in sizes
        ]
    if "checkpoint" in sections:
        result["checkpoint"] = [
            _bench_checkpoint(rng, n, repeats) for n in sizes
        ]
    if "parallelism" in sections:
        result["parallelism"] = _bench_parallelism(rng, repeats, quick)
    if "inference" in sections:
        result["inference"] = _bench_inference(rng, workers, repeats,
                                               quick)
    return result
