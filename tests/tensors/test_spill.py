"""Tests for the NVMe/disk spill tier (§2.2): extent-aligned plane
files, split read/write I/O streams, O_DIRECT sector handling, pinned
staging fallback, and the telemetry counters the overlap audit reads."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.telemetry import Telemetry
from repro.tensors.errors import TensorValidationError
from repro.tensors.pinned import PinnedBufferPool
from repro.tensors.spill import (
    SECTOR_BYTES,
    SpillArena,
    SpillTicket,
    wait_all,
)


def _arena(tmp_path, planes=None, **kw):
    return SpillArena(tmp_path / "spill", planes or {"m": 4096}, **kw)


class TestRoundTrip:
    def test_full_plane(self, tmp_path, rng):
        with _arena(tmp_path) as sp:
            src = rng.standard_normal(4096).astype(np.float32)
            sp.write("m", 0, 4096, src)
            out = np.empty(4096, dtype=np.float32)
            sp.read("m", 0, 4096, out)
            assert np.array_equal(out, src)

    def test_fresh_plane_reads_zero(self, tmp_path):
        """Plane files are zero-filled at creation — the invariant that
        makes disk-offloaded moments start identical to resident ones."""
        with _arena(tmp_path) as sp:
            out = np.ones(4096, dtype=np.float32)
            sp.read("m", 0, 4096, out)
            assert not out.any()

    def test_unaligned_subrange_rmw(self, tmp_path, rng):
        """A write to an odd sub-range must not disturb neighbours —
        the sector read-modify-write path under O_DIRECT."""
        with _arena(tmp_path) as sp:
            base = rng.standard_normal(4096).astype(np.float32)
            sp.write("m", 0, 4096, base)
            patch = rng.standard_normal(777).astype(np.float32)
            sp.write("m", 123, 900, patch)
            out = np.empty(4096, dtype=np.float32)
            sp.read("m", 0, 4096, out)
            expect = base.copy()
            expect[123:900] = patch
            assert np.array_equal(out, expect)

    def test_range_crossing_extents(self, tmp_path, rng):
        """Ranges split at extent boundaries must reassemble exactly."""
        n = SECTOR_BYTES  # 4096 elements = 16 KiB, 4 extents of 4 KiB
        with _arena(tmp_path, {"m": n}, chunk_bytes=SECTOR_BYTES) as sp:
            src = rng.standard_normal(n).astype(np.float32)
            sp.write("m", 0, n, src)
            lo, hi = 700, n - 300  # spans all extent boundaries
            out = np.empty(hi - lo, dtype=np.float32)
            sp.read("m", lo, hi, out)
            assert np.array_equal(out, src[lo:hi])

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(min_value=1, max_value=3000))
    def test_write_sequence_matches_shadow(self, tmp_path, data, n):
        """Any sequence of sub-range writes reads back like a plain
        array — alignment, RMW, and extent splitting are invisible."""
        root = tmp_path / f"h{n}-{os.urandom(6).hex()}"
        shadow = np.zeros(n, dtype=np.float32)
        rng = np.random.default_rng(n)
        with SpillArena(root, {"p": n}, chunk_bytes=SECTOR_BYTES) as sp:
            for _ in range(data.draw(st.integers(1, 5))):
                lo = data.draw(st.integers(0, n - 1))
                hi = data.draw(st.integers(lo + 1, n))
                chunk = rng.standard_normal(hi - lo).astype(np.float32)
                sp.write("p", lo, hi, chunk)
                shadow[lo:hi] = chunk
            out = np.empty(n, dtype=np.float32)
            sp.read("p", 0, n, out)
            assert np.array_equal(out, shadow)


class TestAsyncStreams:
    def test_tickets_complete(self, tmp_path, rng):
        with _arena(tmp_path) as sp:
            src = rng.standard_normal(4096).astype(np.float32)
            t = sp.write_async("m", 0, 4096, src)
            assert isinstance(t, SpillTicket)
            t.wait()
            assert t.done
            out = np.empty(4096, dtype=np.float32)
            sp.read_async("m", 0, 4096, out).wait()
            assert np.array_equal(out, src)

    def test_read_many_is_one_request(self, tmp_path, rng):
        """Scattered segments, one ticket; a bad segment rejects the
        whole request before anything is queued."""
        telemetry = Telemetry()
        with _arena(tmp_path, telemetry=telemetry) as sp:
            src = rng.standard_normal(4096).astype(np.float32)
            sp.write("m", 0, 4096, src)
            spans = [(3000, 3100), (5, 900), (1024, 2048)]
            outs = [np.empty(hi - lo, dtype=np.float32) for lo, hi in spans]
            ticket = sp.read_many_async(
                "m", [(lo, hi, out) for (lo, hi), out in zip(spans, outs)])
            ticket.wait()
            for (lo, hi), out in zip(spans, outs):
                assert np.array_equal(out, src[lo:hi])
            read = telemetry.metrics.counter("spill_bytes_read").value
            assert read == 4 * sum(hi - lo for lo, hi in spans)
            with pytest.raises(TensorValidationError):
                sp.read_many_async("m", [(0, 8, outs[0]), (4090, 4100, outs[1])])

    def test_read_many_failure_surfaces_at_wait(self, tmp_path):
        with _arena(tmp_path) as sp:
            real, calls = sp._pread_exact, []

            def flaky(fd, stage, at, name):
                calls.append(at)
                if len(calls) == 2:
                    raise OSError("injected")
                real(fd, stage, at, name)

            sp._pread_exact = flaky
            outs = [np.empty(16, dtype=np.float32) for _ in range(3)]
            ticket = sp.read_many_async(
                "m", [(i * 16, i * 16 + 16, out)
                      for i, out in enumerate(outs)])
            with pytest.raises(OSError, match="injected"):
                ticket.wait()
            assert len(calls) == 2  # the request stops at the failure
            del sp._pread_exact
            sp.read("m", 0, 16, outs[0])  # the reader survives it

    def test_wait_all_clears(self, tmp_path, rng):
        with _arena(tmp_path) as sp:
            src = rng.standard_normal(4096).astype(np.float32)
            tickets = [sp.write_async("m", 0, 4096, src) for _ in range(3)]
            wait_all(tickets)
            assert tickets == []

    def test_drain_settles_both_streams(self, tmp_path, rng):
        with _arena(tmp_path) as sp:
            src = rng.standard_normal(4096).astype(np.float32)
            out = np.empty(4096, dtype=np.float32)
            sp.write_async("m", 0, 4096, src).wait()
            sp.read_async("m", 0, 4096, out)
            sp.write_async("m", 0, 4096, src)
            sp.drain()
            assert np.array_equal(out, src)
            assert sp.bytes_read == 4096 * 4
            assert sp.bytes_written == 4096 * 4 * 2

    def test_task_ordered_after_writes(self, tmp_path, rng):
        """submit_task runs after all prior writes — the checkpoint
        commit's atomicity precondition."""
        with _arena(tmp_path) as sp:
            src = rng.standard_normal(4096).astype(np.float32)
            seen = {}

            def probe():
                out = np.empty(4096, dtype=np.float32)
                # Runs on the write thread: the write already landed, so
                # a direct file read (no queue round-trip) must see it.
                sp._do_read("m", 0, out, 0)
                seen["data"] = out

            sp.write_async("m", 0, 4096, src)
            sp.submit_task(probe).wait()
            assert np.array_equal(seen["data"], src)

    def test_wait_histogram_observes_blocking(self, tmp_path, rng):
        tel = Telemetry()
        with _arena(tmp_path, telemetry=tel) as sp:
            src = rng.standard_normal(4096).astype(np.float32)
            done = sp.submit_task(lambda: None)

            def slow():
                done.wait()

            sp.submit_task(slow)
            sp.write("m", 0, 4096, src)  # must queue behind slow()
        assert tel.metrics.counter("spill_bytes_written").value == 4096 * 4


class TestDirectIO:
    def test_chunk_clamped_to_sector_multiple(self, tmp_path):
        with _arena(tmp_path, chunk_bytes=5000) as sp:
            assert sp.chunk_bytes == SECTOR_BYTES
        with _arena(tmp_path / "b", chunk_bytes=100) as sp:
            assert sp.chunk_bytes == SECTOR_BYTES

    def test_plane_file_extent_sized(self, tmp_path):
        with _arena(tmp_path, {"m": 100}, chunk_bytes=8192) as sp:
            path = sp.directory / "m.plane"
            assert path.stat().st_size == 8192  # 400 bytes -> 1 extent

    def test_aligned_span_bounds(self, tmp_path):
        with _arena(tmp_path) as sp:
            a0, span = sp._aligned_span(100, 50)
            assert a0 == 0 and span == SECTOR_BYTES
            a0, span = sp._aligned_span(SECTOR_BYTES, SECTOR_BYTES)
            assert a0 == SECTOR_BYTES and span == SECTOR_BYTES
            # span never exceeds one extent when the range fits one
            a0, span = sp._aligned_span(SECTOR_BYTES - 4, 8)
            assert a0 == 0 and span == 2 * SECTOR_BYTES

    def test_buffered_fallback_matches(self, tmp_path, rng, monkeypatch):
        """Forcing the buffered path produces identical bytes."""
        src = rng.standard_normal(2048).astype(np.float32)
        with _arena(tmp_path, {"m": 2048}) as sp:
            sp.write("m", 10, 2048, src[10:])
            direct_out = np.empty(2038, dtype=np.float32)
            sp.read("m", 10, 2048, direct_out)
        monkeypatch.setattr(os, "O_DIRECT", 0, raising=False)
        with SpillArena(tmp_path / "buf", {"m": 2048}) as sp:
            assert not sp.direct
            sp.write("m", 10, 2048, src[10:])
            out = np.empty(2038, dtype=np.float32)
            sp.read("m", 10, 2048, out)
            assert np.array_equal(out, direct_out)

    def test_partial_direct_fallback_reopens_earlier_planes(
        self, tmp_path, rng, monkeypatch
    ):
        """Regression: if a later plane's O_DIRECT open fails, planes
        already opened with the flag must be reopened buffered — the
        fallback I/O path issues sector-unaligned transfers that a
        leftover direct fd would reject with EINVAL."""
        monkeypatch.setattr(os, "O_DIRECT", 0o40000, raising=False)
        real_open = os.open
        opens = []

        def fake_open(path, flags, *a, **kw):
            is_direct = bool(flags & os.O_DIRECT)
            opens.append((os.path.basename(str(path)), is_direct))
            if is_direct:
                if sum(1 for _, d in opens if d) > 1:
                    raise OSError(22, "Invalid argument")
                # pretend the fs accepted O_DIRECT for the first plane
                flags &= ~os.O_DIRECT
            return real_open(path, flags, *a, **kw)

        monkeypatch.setattr(os, "open", fake_open)
        with SpillArena(tmp_path / "mix", {"a": 2048, "b": 2048}) as sp:
            assert not sp.direct
            # plane a: the direct open, then the buffered reopen
            assert opens.count(("a.plane", True)) == 1
            assert opens.count(("a.plane", False)) == 1
            src = rng.standard_normal(900).astype(np.float32)
            for name in ("a", "b"):  # unaligned I/O on every plane
                sp.write(name, 123, 1023, src)
                out = np.empty(900, dtype=np.float32)
                sp.read(name, 123, 1023, out)
                assert np.array_equal(out, src)


class TestPinnedStaging:
    def test_staging_reserved_and_released(self, tmp_path):
        pool = PinnedBufferPool(1 << 22)
        sp = _arena(tmp_path, chunk_bytes=1 << 16, pinned_pool=pool)
        assert sp.staging_pinned == (True, True)
        assert pool.free_bytes == (1 << 22) - 2 * (1 << 16)
        sp.close()
        assert pool.free_bytes == pool.capacity
        assert not pool._host_allocs  # no leaked host mirrors

    def test_exhausted_pool_degrades_to_pageable(self, tmp_path, rng):
        pool = PinnedBufferPool(1 << 16)  # fits one buffer, not two
        with _arena(tmp_path, chunk_bytes=1 << 16, pinned_pool=pool) as sp:
            assert sp.staging_pinned == (True, False)
            src = rng.standard_normal(4096).astype(np.float32)
            sp.write("m", 0, 4096, src)
            out = np.empty(4096, dtype=np.float32)
            sp.read("m", 0, 4096, out)
            assert np.array_equal(out, src)
        assert not pool._host_allocs


class TestValidation:
    def test_rejects_empty_and_bad_planes(self, tmp_path):
        with pytest.raises(TensorValidationError):
            SpillArena(tmp_path / "a", {})
        with pytest.raises(TensorValidationError):
            SpillArena(tmp_path / "b", {"m": 0})
        with pytest.raises(TensorValidationError):
            SpillArena(tmp_path / "c", {"m": 16}, queue_bound=0)

    def test_rejects_bad_ranges_and_buffers(self, tmp_path, rng):
        with _arena(tmp_path) as sp:
            buf = np.empty(16, dtype=np.float32)
            with pytest.raises(TensorValidationError):
                sp.read("nope", 0, 16, buf)
            with pytest.raises(TensorValidationError):
                sp.read("m", 0, 5000, np.empty(5000, dtype=np.float32))
            with pytest.raises(TensorValidationError):
                sp.read("m", 8, 8, buf)
            with pytest.raises(TensorValidationError):
                sp.read("m", 0, 16, buf.astype(np.float64))
            with pytest.raises(TensorValidationError):
                sp.read("m", 0, 16, np.empty((4, 4), dtype=np.float32))
            with pytest.raises(TensorValidationError):
                sp.read("m", 0, 16, buf[::2])
            with pytest.raises(TensorValidationError):
                sp.read("m", 0, 32, buf)
            ro = np.empty(16, dtype=np.float32)
            ro.flags.writeable = False
            with pytest.raises(TensorValidationError):
                sp.read("m", 0, 16, ro)

    def test_closed_arena_rejects_submission(self, tmp_path):
        sp = _arena(tmp_path)
        sp.close()
        sp.close()  # idempotent
        with pytest.raises(TensorValidationError):
            sp.write("m", 0, 16, np.zeros(16, dtype=np.float32))

    def test_plane_introspection(self, tmp_path):
        with _arena(tmp_path, {"m": 64, "v": 128}) as sp:
            assert sp.plane_names == ("m", "v")
            assert sp.plane_elements("v") == 128

    def test_worker_error_surfaces_at_wait(self, tmp_path):
        with _arena(tmp_path) as sp:
            def boom():
                raise RuntimeError("io failed")

            t = sp.submit_task(boom)
            with pytest.raises(RuntimeError, match="io failed"):
                t.wait()
            # the worker survives a failed operation
            sp.write("m", 0, 16, np.zeros(16, dtype=np.float32))
