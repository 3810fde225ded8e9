"""Tuned configurations are pure perf policy: results never move.

The autotuner's core guarantee — any profile built from registry-valid
values changes only *where* work runs (inline vs pool, tile sizes,
bucket shapes), never *what* comes out.  These tests sample random
tuned configs with hypothesis and compare every op bit-for-bit against
the serial kernel ancestor, across worker counts 1/2/4 and adversarial
sizes that straddle the sampled crossovers.  The flash block sides are
the documented exception (they reorder the online softmax) and are held
to fp32 tolerance vs the dense reference plus bitwise independence of
head grouping instead.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import reference
from repro.exec import kernels, ops
from repro.exec.plan import ChunkPlan
from repro.exec.pool import KernelPool
from repro.numeric import flash
from repro.numeric.lowprec import land_grad, round_fp16
from repro.optim import AdamConfig, GraceAdam
from repro.optim.rollback import SnapshotRollback
from repro.parallel.zero import ZeroShardedAdam
from repro.tensors.arena import FlatArena
from repro.tune import profile as tp
from repro.tune import registry, runtime

WORKER_COUNTS = (1, 2, 4)

#: Off-by-one tails, primes, sizes no worker count divides — and sizes
#: on both sides of every sampled crossover below.
ADVERSARIAL_SIZES = (1, 15, 16, 17, 97, 255, 256, 1009, 4096, 4097)

#: Crossover samples from force-parallel (1) through force-inline (hi);
#: all within the registry's [lo, hi] for every *.min_parallel tunable.
CROSSOVER_SAMPLES = (1, 64, 4096, 1 << 17, 1 << 26)

OP_CROSSOVERS = (
    "adam.min_parallel", "scale.min_parallel", "copy.min_parallel",
    "reduce.min_parallel",
)


@st.composite
def tuned_profiles(draw):
    """A random but registry-valid profile over the op tunables."""
    prof = tp.TuneProfile(host="hypothesis-host", cpu_count=4)
    for name in OP_CROSSOVERS:
        value = draw(st.sampled_from(CROSSOVER_SAMPLES))
        if draw(st.booleans()):
            # The banded shape the tuner writes on a never-won search:
            # measured value up to band_hi, authoring default above.
            band_hi = draw(st.sampled_from((256, 4096, 1 << 16)))
            prof.set_banded(name, registry.default(name),
                            [(band_hi, value)])
        else:
            prof.set(name, value)
    prof.set("adam.cache_tile",
             draw(st.sampled_from(registry.get("adam.cache_tile").choices)))
    return prof


@pytest.fixture(params=WORKER_COUNTS)
def pool(request):
    p = KernelPool(request.param)
    yield p
    p.shutdown()


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prof=tuned_profiles(),
       size=st.sampled_from(ADVERSARIAL_SIZES),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_every_op_bitwise_under_sampled_config(pool, prof, size, seed):
    rng = np.random.default_rng(seed)
    src = rng.standard_normal(size).astype(np.float32)
    acc = rng.standard_normal(size).astype(np.float32)
    coef = np.float32(0.99970243)
    scale = np.float32(1e-3)

    serial = src.copy()
    kernels.scale_chunk(0, size, serial, coef)
    tuned = src.copy()
    with runtime.overridden(prof):
        ops.parallel_scale(tuned, coef, pool=pool)
    np.testing.assert_array_equal(tuned, serial)

    dst = np.empty_like(src)
    with runtime.overridden(prof):
        ops.parallel_copy(dst, src, pool=pool)
    np.testing.assert_array_equal(dst, src)

    # The rounding kernels have no tunable: one call == one call per
    # chunk on the pool's threads, under any profile.
    chunks = ChunkPlan.split(size, 3, 1)
    wide = src * np.float32(4e4)
    serial16 = round_fp16(wide)
    tiled16 = np.empty_like(wide)
    with runtime.overridden(prof):
        pool.run(lambda lo, hi: round_fp16(wide[lo:hi], tiled16[lo:hi]),
                 chunks)
    np.testing.assert_array_equal(tiled16, serial16)

    for accumulate in (False, True):
        serial_l = acc.copy()
        land_grad(serial_l, wide, scale, accumulate=accumulate)
        tiled_l = acc.copy()
        with runtime.overridden(prof):
            pool.run(lambda lo, hi: land_grad(
                tiled_l[lo:hi], wide[lo:hi], scale, accumulate=accumulate),
                chunks)
        np.testing.assert_array_equal(tiled_l, serial_l)

    sources = [rng.standard_normal(size).astype(np.float32)
               for _ in range(3)]
    serial_r = np.zeros(size, np.float32)
    kernels.reduce_chunk(0, size, serial_r, 0, sources, np.float32(3.0))
    tuned_r = np.zeros(size, np.float32)
    with runtime.overridden(prof):
        ops.parallel_reduce(tuned_r, 0, sources, 0, size,
                            divisor=np.float32(3.0), pool=pool)
    np.testing.assert_array_equal(tuned_r, serial_r)

    p0 = rng.standard_normal(size).astype(np.float32)
    m0 = (rng.standard_normal(size) * 0.01).astype(np.float32)
    v0 = np.abs(rng.standard_normal(size)).astype(np.float32) * 0.01
    g = rng.standard_normal(size).astype(np.float32)
    config = AdamConfig(lr=1e-3, weight_decay=0.01)
    hyper = kernels.AdamChunkHyper.from_config(config, 3)
    sp, sm, sv = p0.copy(), m0.copy(), v0.copy()
    kernels.adam_chunk(0, size, sp, sm, sv, g, hyper, kernels.CACHE_TILE)
    tp_, tm, tv = p0.copy(), m0.copy(), v0.copy()
    with runtime.overridden(prof):
        ops.parallel_adam_flat(tp_, tm, tv, g, config, 3, pool=pool)
    np.testing.assert_array_equal(tp_, sp)
    np.testing.assert_array_equal(tm, sm)
    np.testing.assert_array_equal(tv, sv)


@pytest.mark.parametrize("tile", registry.get("grace.tile_size").choices)
def test_grace_tile_bitwise(tile):
    """Any tuned GraceAdam tile produces the same parameters on the
    per-tensor tiled walk (what a subset-gradient step takes — the only
    consumer of the tile)."""
    n = 5000  # crosses the smallest tile candidates, leaves a tail
    results = {}
    for candidate in (None, tile):
        rng = np.random.default_rng(17)
        params = {"w": rng.standard_normal(n).astype(np.float32),
                  "rest": np.zeros(3, dtype=np.float32)}
        prof = tp.TuneProfile(host="h", cpu_count=1)
        if candidate is not None:
            prof.set("grace.tile_size", candidate)
            cm = runtime.overridden(prof)
        else:
            cm = runtime.overridden(None)
        with cm:
            opt = GraceAdam(params, AdamConfig(lr=1e-2))
            for _ in range(3):
                opt.step({"w": rng.standard_normal(n).astype(np.float32)})
        results[candidate] = opt.params["w"].copy()
    np.testing.assert_array_equal(results[None], results[tile])


def _zero_fixture(prof):
    """A 4-rank pipelined ZeRO optimizer + per-rank grad flats, seeded
    identically per call so any two fixtures must agree bitwise."""
    rng = np.random.default_rng(5)
    params = {f"p{i}": rng.standard_normal(1024).astype(np.float32)
              for i in range(8)}
    with runtime.overridden(prof):
        opt = ZeroShardedAdam(params, 4, AdamConfig(lr=1e-3),
                              pipeline=True)
    flats = []
    for r in range(4):
        ga = opt.grad_arena(r)
        ga.flat[:] = np.random.default_rng(100 + r).standard_normal(
            ga.flat.size).astype(np.float32)
        flats.append(ga.flat)
    return opt, flats


@pytest.mark.parametrize("bucket", (1 << 10, 1 << 11))
@pytest.mark.parametrize("min_pipeline", (0, 1 << 13))
def test_zero_pipeline_bitwise(bucket, min_pipeline):
    """Tuned bucket sizes and pipeline crossovers match the serial step.

    ``min_pipeline=1<<13`` sits above the fixture's 8192 total elements,
    so that arm exercises the forced-serial fallback; the serial
    reference pins ``min_pipeline`` at the registry hi (never pipeline).
    """
    serial_prof = tp.TuneProfile(host="h", cpu_count=1)
    serial_prof.set("zero.min_pipeline",
                    registry.get("zero.min_pipeline").hi)
    tuned_prof = tp.TuneProfile(host="h", cpu_count=1)
    tuned_prof.set("zero.bucket_elements", bucket)
    tuned_prof.set("zero.min_pipeline", min_pipeline)

    arenas = {}
    for tag, prof in (("serial", serial_prof), ("tuned", tuned_prof)):
        opt, flats = _zero_fixture(prof)
        with runtime.overridden(prof):
            for _ in range(2):
                opt.step_flat(flats)
        arenas[tag] = opt.arena.flat.copy()
        opt.release_staging()
    np.testing.assert_array_equal(arenas["tuned"], arenas["serial"])


@pytest.mark.parametrize("cutoff", (1, 1 << 26))
def test_rollback_cutoff_bitwise(cutoff):
    """Either snapshot path (arena-range or per-tensor) restores the
    same bits, so a tuned cutoff can never change results."""
    prof = tp.TuneProfile(host="h", cpu_count=1)
    prof.set("rollback.snapshot_cutoff", cutoff)
    rng = np.random.default_rng(23)
    params = {"w": rng.standard_normal(4096).astype(np.float32)}
    FlatArena.adopt(params)
    opt = GraceAdam(params, AdamConfig(lr=1e-2))
    grads = {"w": rng.standard_normal(4096).astype(np.float32)}
    opt.step(grads)
    before = (opt.params["w"].copy(), opt.state["w"].m.copy(),
              opt.state["w"].v.copy(), opt.state["w"].step)
    rb = SnapshotRollback(opt)
    with runtime.overridden(prof):
        rb.capture(grads)
        opt.step(grads)
        rb.rollback(grads)
    np.testing.assert_array_equal(opt.params["w"], before[0])
    np.testing.assert_array_equal(opt.state["w"].m, before[1])
    np.testing.assert_array_equal(opt.state["w"].v, before[2])
    assert opt.state["w"].step == before[3]


@pytest.mark.parametrize("block", (32, 64))
def test_flash_tuned_blocks_tolerance_and_determinism(block):
    """The documented exception: tuned flash blocks hold fp32 tolerance
    vs the dense reference and stay bitwise independent of which heads
    share a call."""
    prof = tp.TuneProfile(host="h", cpu_count=1)
    prof.set("flash.block_q", block)
    prof.set("flash.block_k", block)
    rng = np.random.default_rng(31)
    q = rng.standard_normal((1, 2, 96, 8)).astype(np.float32)
    k = rng.standard_normal((1, 2, 96, 8)).astype(np.float32)
    v = rng.standard_normal((1, 2, 96, 8)).astype(np.float32)
    ref, _ = reference.dense_attention_forward(q, k, v, True)
    with runtime.overridden(prof):
        out, cache = flash.streaming_attention_forward(q, k, v, causal=True)
        heads = [
            flash.streaming_attention_forward(
                q[:, h:h + 1], k[:, h:h + 1], v[:, h:h + 1], causal=True
            )[0]
            for h in range(2)
        ]
    assert (cache.block_q, cache.block_k) == (block, block)
    assert float(np.abs(out - ref).max()) <= 1e-5
    np.testing.assert_array_equal(np.concatenate(heads, axis=1), out)


def test_same_profile_yields_same_plan(tmp_path):
    """Plan determinism: one saved profile, one effective plan."""
    prof = tp.TuneProfile(host="plan-host", cpu_count=2)
    prof.set("adam.min_parallel", 1 << 16)
    prof.set_banded("copy.min_parallel", registry.default(
        "copy.min_parallel"), [(1 << 16, 1 << 26)])
    path = tp.save(prof, tmp_path / "tune.json")
    first = tp.load(path, host="plan-host").plan()
    second = tp.load(path, host="plan-host").plan()
    assert first == second
    assert set(first) == set(registry.names())
    # untuned names resolve to registry defaults; banded to their default
    assert first["scale.min_parallel"] == registry.default(
        "scale.min_parallel")
    assert first["copy.min_parallel"] == registry.default(
        "copy.min_parallel")
    assert first["adam.min_parallel"] == 1 << 16
