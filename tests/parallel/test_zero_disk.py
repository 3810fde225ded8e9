"""Tests for the disk-offloaded ZeRO step (§2.2): bitwise identity with
the resident step across worker counts and with the strict-sequence
reference step, checkpointable moment planes, and pinned-pool exhaustion
under concurrent spill."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import reference
from repro.exec.pool import KernelPool
from repro.parallel import ZeroShardedAdam
from repro.tensors.pinned import PinnedBufferPool
from repro.tensors.spill import SpillArena
from tests.parallel.test_zero import (
    assert_bitwise_twins,
    close_all as _close,
    zero_fixture,
)


def _fixture(seed, n, world, tmp_path=None, pool=None, **kw):
    """A pipelined (optimizer, flats) pair over four ``n // 4`` tensors;
    disk mode when ``tmp_path`` is given."""
    shapes = {f"p{i}": (n // 4,) for i in range(4)}
    mode = "pipelined" if tmp_path is None else "disk"
    return zero_fixture(seed, shapes, world, mode, tmp_path, pool, **kw)


class TestDiskBitwiseIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_resident_across_worker_counts(self, tmp_path, workers):
        """The acceptance criterion: a disk-offloaded step is bitwise
        identical to the resident step, at every pool width."""
        pool = KernelPool(workers)
        try:
            n, world, steps = 4096, 2, 3
            resident, r_flats = _fixture(5, n, world, pool=pool)
            disk, d_flats = _fixture(
                5, n, world, tmp_path / f"w{workers}", pool=pool,
                bucket_elements=512, spill_prefetch_depth=2,
            )
            for _ in range(steps):
                resident.step_flat(r_flats)
                disk.step_flat(d_flats)
            assert_bitwise_twins(resident, disk)
            assert disk.step_count == steps
            _close(disk)
            _close(resident)
        finally:
            pool.shutdown()

    def test_prefetch_off_is_bitwise_identical(self, tmp_path):
        """The strict-sequence reference step (read, reduce, Adam,
        write per bucket, nothing overlapped) is the disk step's twin."""
        disk, flats = _fixture(9, 2048, 2, tmp_path / "on",
                               bucket_elements=256)
        total = disk.arena.layout.total
        master = disk.arena.flat.copy()
        scratch = np.empty((3, 256), dtype=np.float32)
        with SpillArena(tmp_path / "off", {"m": total, "v": total}) as sp:
            for step in (1, 2):
                disk.step_flat(flats)
                reference.zero_disk_sync_step(
                    master, sp, flats, scratch, disk.config, step
                )
            assert np.array_equal(disk.arena.flat, master)
            planes = disk.moment_planes()
            for name, plane in planes.items():
                synced = np.empty_like(plane)
                sp.read(name, 0, total, synced)
                assert np.array_equal(plane, synced)
        _close(disk)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.integers(min_value=64, max_value=5000),
        world=st.integers(min_value=1, max_value=3),
        bucket=st.sampled_from([64, 257, 1024]),
        depth=st.integers(min_value=1, max_value=4),
    )
    def test_adversarial_shapes_match_resident(
        self, tmp_path, n, world, bucket, depth
    ):
        """Odd totals, buckets not dividing shards, shard-boundary
        crossings: every shape must still be bitwise identical."""
        import os
        sub = tmp_path / f"{n}-{world}-{bucket}-{depth}-{os.urandom(4).hex()}"
        resident, r_flats = _fixture(n, n, world, bucket_elements=bucket)
        disk, d_flats = _fixture(
            n, n, world, sub, bucket_elements=bucket,
            spill_prefetch_depth=depth,
        )
        resident.step_flat(r_flats)
        disk.step_flat(d_flats)
        assert_bitwise_twins(resident, disk)
        _close(disk)
        _close(resident)


class TestMomentPlanes:
    def test_round_trip_resumes_identically(self, tmp_path):
        """moment_planes + shard_steps -> load_moments is a faithful
        optimizer-state snapshot (the checkpoint contract)."""
        a, a_flats = _fixture(3, 1024, 2, tmp_path / "a",
                              bucket_elements=128)
        a.step_flat(a_flats)
        planes = a.moment_planes()
        steps = a.shard_steps()
        master = a.arena.flat.copy()
        a.step_flat(a_flats)  # diverge

        b, b_flats = _fixture(3, 1024, 2, tmp_path / "b",
                              bucket_elements=128)
        b.arena.flat[...] = master
        b.load_moments(planes["m"], planes["v"], steps)
        assert b.shard_steps() == steps

        # one more step from the restored state must match one more step
        # from the snapshot state
        c, c_flats = _fixture(3, 1024, 2, tmp_path / "c",
                              bucket_elements=128)
        c.arena.flat[...] = master
        c.load_moments(planes["m"], planes["v"], steps)
        b.step_flat(b_flats)
        c.step_flat(c_flats)
        assert np.array_equal(b.arena.flat, c.arena.flat)
        for o in (a, b, c):
            _close(o)

    def test_disk_and_resident_planes_agree(self, tmp_path):
        resident, r_flats = _fixture(7, 512, 2)
        disk, d_flats = _fixture(7, 512, 2, tmp_path, bucket_elements=64)
        resident.step_flat(r_flats)
        disk.step_flat(d_flats)
        rp, dp = resident.moment_planes(), disk.moment_planes()
        assert np.array_equal(rp["m"], dp["m"])
        assert np.array_equal(rp["v"], dp["v"])
        _close(disk)
        _close(resident)

    def test_spill_telemetry_counters_advance(self, tmp_path):
        disk, flats = _fixture(1, 1024, 2, tmp_path, bucket_elements=128)
        disk.step_flat(flats)
        disk.spill.drain()
        nbytes = disk.arena.layout.total * 4
        # every (m, v) byte is read and written exactly once per step
        assert disk.spill.bytes_read == 2 * nbytes
        assert disk.spill.bytes_written == 2 * nbytes
        _close(disk)


class TestPinnedExhaustion:
    def test_exhausted_pool_degrades_without_deadlock_or_leaks(
        self, tmp_path
    ):
        """A pool too small for both a pipelined resident optimizer and a
        disk optimizer's staging must degrade to pageable buffers, keep
        both steps bitwise correct, and leak no host mirrors."""
        pool = PinnedBufferPool(1 << 12)  # deliberately tiny
        disk, d_flats = _fixture(
            11, 2048, 2, tmp_path, bucket_elements=256, pinned_pool=pool,
        )
        piped, p_flats = _fixture(
            11, 2048, 2, bucket_elements=256, pinned_pool=pool,
        )
        ref, r_flats = _fixture(11, 2048, 2, bucket_elements=256)
        for _ in range(2):
            disk.step_flat(d_flats)
            piped.step_flat(p_flats)
            ref.step_flat(r_flats)
        assert np.array_equal(disk.arena.flat, ref.arena.flat)
        assert np.array_equal(piped.arena.flat, ref.arena.flat)
        # spill staging fell back to pageable (pool could not hold it)
        assert not all(disk.spill.staging_pinned)
        for o in (disk, piped, ref):
            _close(o)
        assert pool.free_bytes == pool.capacity
        assert not pool._host_allocs

    def test_adequate_pool_fully_released(self, tmp_path):
        pool = PinnedBufferPool(1 << 24)
        disk, flats = _fixture(
            13, 2048, 2, tmp_path, bucket_elements=256, pinned_pool=pool,
        )
        disk.step_flat(flats)
        assert all(disk.spill.staging_pinned)
        assert pool.free_bytes < pool.capacity
        _close(disk)
        assert pool.free_bytes == pool.capacity
        assert not pool._host_allocs


class TestDiskValidation:
    def test_disk_requires_spill_dir(self):
        with pytest.raises(ValueError, match="spill_dir"):
            ZeroShardedAdam(
                {"p": np.zeros(16, dtype=np.float32)}, 2, offload="disk"
            )

    def test_unknown_offload_rejected(self):
        with pytest.raises(ValueError, match="offload"):
            ZeroShardedAdam(
                {"p": np.zeros(16, dtype=np.float32)}, 2, offload="nvme"
            )

    def test_prefetch_depth_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="spill_prefetch_depth"):
            ZeroShardedAdam(
                {"p": np.zeros(16, dtype=np.float32)}, 2, offload="disk",
                spill_dir=str(tmp_path), spill_prefetch_depth=0,
            )
