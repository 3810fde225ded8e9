"""NVMe/disk spill tier for fp32 optimizer-state planes (§2.2).

ZeRO-Infinity parks optimizer states on node-local NVMe and streams them
through pinned staging buffers; §2.2 of the paper describes that tier as
the one below HBM+DDR in the offload hierarchy.  :class:`SpillArena` is
the real-execution counterpart of the simulator's NVMe model
(``systems/zero_infinity.py``): named fp32 planes live in per-plane files
chunked into fixed-size *extents*, and every read/write moves through a
double-buffered staging ring serviced by one background I/O worker.

Design points mirrored from real offload engines:

* **Direct I/O** — plane files are opened ``O_DIRECT`` where the
  filesystem supports it, so transfers are device DMA that genuinely
  overlaps with compute instead of page-cache memcpys that compete with
  it for the same cores.  Each plane file is sized to a whole number of
  ``chunk_bytes`` extents, every I/O is split at extent boundaries, the
  staging ring is page-aligned (mmap-backed), and unaligned range tails
  are handled by sector-granular read-modify-write within the extent.
  Filesystems without ``O_DIRECT`` (tmpfs, some overlays) fall back to
  buffered I/O with the same aligned access pattern
  (``chunk_bytes`` is clamped to a multiple of the 4 KiB sector size).
* **Pinned double buffering** — the worker stages each extent through one
  of two ``chunk_bytes`` buffers reserved from a
  :class:`~repro.tensors.pinned.PinnedBufferPool` (§4.5); when the pool
  cannot satisfy the reservation the ring silently falls back to pageable
  buffers, exactly like the transfer engine it models.
* **Split read/write streams** — reads and writes run on separate I/O
  worker threads over separate bounded queues (``spill.writer_queue``
  tunable; a full queue applies backpressure to the producer).  Writes
  are bandwidth work that only has to complete by the end of the step;
  reads are latency-critical prefetches the compute loop blocks on.  One
  FIFO queue would park every prefetch behind the write backlog, so the
  streams are independent — the same reason real offload engines keep
  multiple AIO submission rings.  Ordering guarantees: reads are FIFO
  among reads, writes and tasks are FIFO among writes (which is what
  makes the checkpoint commit atomic), and there is **no cross-stream
  ordering** — a caller that reads a range with a write still in flight
  must wait the write's ticket first (the synchronous :meth:`read` /
  :meth:`write` helpers do this implicitly by completing before they
  return).
* **Telemetry** — ``spill_bytes_read`` / ``spill_bytes_written`` counters,
  a ``spill_wait_ms`` histogram for time the *caller* spent blocked on a
  ticket, and ``spill_read`` / ``spill_write`` spans recorded on the I/O
  thread (visible to the overlap audit, invisible to same-thread step
  attribution).

The caller owns buffer stability: the source of :meth:`write_async` and
the destination of :meth:`read_async` must stay untouched until the
returned ticket completes.  The slot discipline in the disk-offloaded
ZeRO step and the ping-pong checkpoint slots both provide this.
"""

from __future__ import annotations

import mmap
import os
import queue
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import tune
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.errors import TensorValidationError
from repro.tensors.pinned import PinnedBufferPool

#: O_DIRECT-style sector alignment floor; ``chunk_bytes`` is clamped to a
#: multiple of this so every extent starts at an aligned file offset.
SECTOR_BYTES = 4096

#: Authored default extent size (256 KiB), overridable via the
#: ``spill.chunk_bytes`` tunable.
DEFAULT_CHUNK_BYTES = 1 << 18

#: Authored default bound on the async I/O queue, overridable via the
#: ``spill.writer_queue`` tunable.
DEFAULT_QUEUE_BOUND = 16


class SpillTicket:
    """Completion handle for one asynchronous spill operation.

    Tickets are completed exactly once by the I/O worker; :meth:`wait`
    re-raises any exception the operation hit.  Time actually spent
    blocked is recorded in the owning arena's ``spill_wait_ms`` histogram
    and under a ``spill_wait`` span, so a fully-hidden transfer costs the
    step nothing and shows up as nothing.
    """

    __slots__ = ("_event", "_error", "_telemetry", "_op")

    def __init__(self, telemetry: Telemetry, op: str):
        self._event = threading.Event()
        self._error: Optional[BaseException] = None
        self._telemetry = telemetry
        self._op = op

    @property
    def done(self) -> bool:
        """Whether the operation has completed (successfully or not)."""
        return self._event.is_set()

    def _finish(self, error: Optional[BaseException] = None) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the operation completes; re-raise its error.

        Only an actual block is accounted: a ticket that is already done
        returns immediately without touching the histogram or tracer.
        """
        if not self._event.is_set():
            start = time.perf_counter()
            with self._telemetry.tracer.span(
                "spill_wait", category="stall", op=self._op
            ):
                finished = self._event.wait(timeout)
            self._telemetry.metrics.histogram("spill_wait_ms").observe(
                (time.perf_counter() - start) * 1e3
            )
            if not finished:
                raise TimeoutError(f"spill {self._op} did not complete")
        if self._error is not None:
            raise self._error


def wait_all(tickets: List[SpillTicket]) -> None:
    """Wait on ``tickets`` in order and clear the list in place."""
    for t in tickets:
        t.wait()
    tickets.clear()


class SpillArena:
    """Named fp32 planes spilled to extent-aligned files on disk.

    Args:
        directory: spill directory (created if missing); one file per
            plane plus whatever the caller stores beside them.
        planes: mapping of plane name to element count (fp32 elements).
            Files are created zero-filled, matching the zero-initialised
            Adam moments so a disk-offloaded optimizer starts bitwise
            identical to a resident one.
        chunk_bytes: extent size; ``None`` resolves the
            ``spill.chunk_bytes`` tunable.  Clamped to a multiple of
            :data:`SECTOR_BYTES`.
        queue_bound: async queue capacity; ``None`` resolves the
            ``spill.writer_queue`` tunable.
        pinned_pool: optional pinned pool backing the staging ring;
            exhaustion falls back to pageable staging.
        telemetry: span/metric sink (no-op by default).
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        planes: Dict[str, int],
        chunk_bytes: Optional[int] = None,
        queue_bound: Optional[int] = None,
        pinned_pool: Optional[PinnedBufferPool] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if not planes:
            raise TensorValidationError("SpillArena needs at least one plane")
        for name, n in planes.items():
            if n < 1:
                raise TensorValidationError(
                    f"plane {name!r} must have >= 1 element, got {n}"
                )
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        chunk = chunk_bytes if chunk_bytes is not None else tune.value(
            "spill.chunk_bytes", DEFAULT_CHUNK_BYTES
        )
        if chunk < SECTOR_BYTES:
            chunk = SECTOR_BYTES
        chunk -= chunk % SECTOR_BYTES
        self.chunk_bytes = chunk
        bound = queue_bound if queue_bound is not None else tune.value(
            "spill.writer_queue", DEFAULT_QUEUE_BOUND
        )
        if bound < 1:
            raise TensorValidationError("queue_bound must be >= 1")
        self.queue_bound = bound
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._elements: Dict[str, int] = dict(planes)
        self._fds: Dict[str, int] = {}
        #: Whether plane files are open ``O_DIRECT`` (device DMA); falls
        #: back to buffered I/O where the filesystem refuses the flag.
        self.direct = False
        direct_flag = getattr(os, "O_DIRECT", 0)
        for name, n in planes.items():
            nbytes = n * 4
            extents = -(-nbytes // chunk)  # ceil
            path = self.directory / f"{name}.plane"
            fd = -1
            if direct_flag:
                try:
                    fd = os.open(
                        path, os.O_RDWR | os.O_CREAT | direct_flag, 0o644
                    )
                    self.direct = True
                except OSError:
                    fd = -1
                    direct_flag = 0  # one refusal disables it for the arena
                    self.direct = False
                    # Earlier planes already opened O_DIRECT must be
                    # reopened buffered: the fallback I/O path uses
                    # sector-unaligned offsets, which a direct fd
                    # rejects with EINVAL.  The arena is all-or-nothing.
                    for prev, prev_fd in list(self._fds.items()):
                        os.close(prev_fd)
                        self._fds[prev] = os.open(
                            self.directory / f"{prev}.plane",
                            os.O_RDWR, 0o644,
                        )
            if fd < 0:
                fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            os.ftruncate(fd, extents * chunk)  # zero-filled, extent-sized
            self._fds[name] = fd
        # Double-buffered staging: one chunk-sized buffer per I/O stream
        # (reader and writer never share one), pinned when the pool can
        # supply them, pageable otherwise.  The buffers are mmap-backed
        # so they are page-aligned — a hard requirement for O_DIRECT
        # transfers, and the natural shape for the pinned transfer
        # buffers they model.
        self._pinned_pool = pinned_pool
        self._staging: List[np.ndarray] = []
        self._staging_maps: List[mmap.mmap] = []
        self._staging_allocs: List[object] = []
        self.staging_pinned: Tuple[bool, ...] = ()
        pinned_flags = []
        for i in range(2):
            alloc = None
            if pinned_pool is not None:
                alloc = pinned_pool.try_reserve(chunk, tag=f"spill_staging_{i}")
            if alloc is not None:
                self._staging_allocs.append(alloc)
            pinned_flags.append(alloc is not None)
            mm = mmap.mmap(-1, chunk)
            self._staging_maps.append(mm)
            self._staging.append(np.frombuffer(mm, dtype=np.uint8))
        self.staging_pinned = tuple(pinned_flags)
        #: Local mirrors of the telemetry counters (worker-thread updated;
        #: read them after a drain or ticket wait).
        self.bytes_read = 0
        self.bytes_written = 0
        self._read_queue: "queue.Queue[Optional[tuple]]" = queue.Queue(
            maxsize=bound
        )
        self._write_queue: "queue.Queue[Optional[tuple]]" = queue.Queue(
            maxsize=bound
        )
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._run, name="spill-read", daemon=True,
                args=(self._read_queue, 0),
            ),
            threading.Thread(
                target=self._run, name="spill-write", daemon=True,
                args=(self._write_queue, 1),
            ),
        ]
        for w in self._workers:
            w.start()

    # -- public API ------------------------------------------------------

    def plane_elements(self, name: str) -> int:
        """Element count of plane ``name``."""
        return self._elements[name]

    @property
    def plane_names(self) -> Tuple[str, ...]:
        """The plane names, in construction order."""
        return tuple(self._elements)

    def read_async(
        self, name: str, lo: int, hi: int, out: np.ndarray
    ) -> SpillTicket:
        """Read elements ``[lo, hi)`` of plane ``name`` into ``out``.

        ``out`` must stay untouched until the ticket completes.  Reads
        run on their own stream: a read of a range with a ``write_async``
        still in flight must wait that write's ticket first.
        """
        self._check(name, lo, hi, out, writable=True)
        return self._submit(
            ("read", name, lo, out[: hi - lo]), op="read",
            q=self._read_queue,
        )

    def read_many_async(
        self, name: str, segments: Sequence[Tuple[int, int, np.ndarray]]
    ) -> SpillTicket:
        """Read several ``(lo, hi, out)`` ranges of plane ``name`` as one
        read-stream request: one queue hand-off and one ticket for the
        lot, completed after the last segment lands.  A failure leaves
        every destination undefined.  Same buffer-stability and
        cross-stream ordering rules as :meth:`read_async`.
        """
        for lo, hi, out in segments:
            self._check(name, lo, hi, out, writable=True)
        return self._submit(
            ("readv", name, [(lo, out[: hi - lo]) for lo, hi, out in segments]),
            op="read", q=self._read_queue,
        )

    def write_async(
        self, name: str, lo: int, hi: int, src: np.ndarray
    ) -> SpillTicket:
        """Write ``src`` to elements ``[lo, hi)`` of plane ``name``.

        ``src`` must stay stable until the ticket completes.
        """
        self._check(name, lo, hi, src, writable=False)
        return self._submit(
            ("write", name, lo, src[: hi - lo]), op="write",
            q=self._write_queue,
        )

    def read(self, name: str, lo: int, hi: int, out: np.ndarray) -> None:
        """Synchronous read (enqueue + wait, preserving queue order)."""
        self.read_async(name, lo, hi, out).wait()

    def write(self, name: str, lo: int, hi: int, src: np.ndarray) -> None:
        """Synchronous write (enqueue + wait, preserving queue order)."""
        self.write_async(name, lo, hi, src).wait()

    def submit_task(self, fn: Callable[[], None]) -> SpillTicket:
        """Run ``fn`` on the write stream after all prior writes.

        The ordering guarantee is what makes an atomic checkpoint commit
        safe: a commit submitted after the slot's data writes observes
        those writes complete.  Tasks are *not* ordered against reads.
        """
        return self._submit(("task", fn), op="task", q=self._write_queue)

    def drain(self) -> None:
        """Block until every previously enqueued operation completed."""
        read_done = self._submit(
            ("task", lambda: None), op="task", q=self._read_queue
        )
        self.submit_task(lambda: None).wait()
        read_done.wait()

    def fsync(self, name: str) -> None:
        """Durably flush plane ``name`` (called on the I/O thread by
        checkpoint commits; callable from any thread)."""
        os.fsync(self._fds[name])

    def close(self) -> None:
        """Drain, stop the worker, close files, release pinned staging.

        Idempotent; plane files are left on disk for the caller (spill
        directories are usually temporary or checkpoint-owned).
        """
        if self._closed:
            return
        self._closed = True
        self._read_queue.put(None)
        self._write_queue.put(None)
        for w in self._workers:
            w.join()
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()
        if self._pinned_pool is not None:
            for alloc in self._staging_allocs:
                self._pinned_pool.release(alloc)
        self._staging_allocs.clear()
        self._staging.clear()
        for mm in self._staging_maps:
            try:
                mm.close()
            except BufferError:  # a caller still holds a view; GC reclaims
                pass
        self._staging_maps.clear()

    def __enter__(self) -> "SpillArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ------------------------------------------------------

    def _submit(
        self, item: tuple, op: str, q: "queue.Queue[Optional[tuple]]"
    ) -> SpillTicket:
        if self._closed:
            raise TensorValidationError("SpillArena is closed")
        ticket = SpillTicket(self._telemetry, op)
        q.put(item + (ticket,))
        return ticket

    def _check(
        self, name: str, lo: int, hi: int, buf: np.ndarray, writable: bool
    ) -> None:
        if name not in self._elements:
            raise TensorValidationError(f"unknown spill plane {name!r}")
        n = self._elements[name]
        if not (0 <= lo < hi <= n):
            raise TensorValidationError(
                f"range [{lo}, {hi}) out of bounds for plane {name!r} "
                f"({n} elements)"
            )
        if buf.dtype != np.float32 or buf.ndim != 1:
            raise TensorValidationError(
                f"spill buffers must be 1-D float32, got {buf.dtype} "
                f"ndim={buf.ndim}"
            )
        if not buf.flags["C_CONTIGUOUS"]:
            raise TensorValidationError("spill buffers must be contiguous")
        if buf.shape[0] < hi - lo:
            raise TensorValidationError(
                f"buffer holds {buf.shape[0]} elements, range needs {hi - lo}"
            )
        if writable and not buf.flags["WRITEABLE"]:
            raise TensorValidationError("read destination is not writable")

    # -- I/O worker ------------------------------------------------------

    def _run(
        self, q: "queue.Queue[Optional[tuple]]", staging_slot: int
    ) -> None:
        while True:
            item = q.get()
            if item is None:
                return
            kind, ticket = item[0], item[-1]
            try:
                if kind == "read":
                    self._do_read(*item[1:-1], staging_slot)
                elif kind == "readv":
                    for lo, out in item[2]:
                        self._do_read(item[1], lo, out, staging_slot)
                elif kind == "write":
                    self._do_write(*item[1:-1], staging_slot)
                else:
                    item[1]()
            except BaseException as exc:  # surfaced at ticket.wait()
                ticket._finish(exc)
            else:
                ticket._finish()

    def _extent_segments(self, offset: int, nbytes: int):
        """Yield (file_offset, length) pairs split at extent boundaries."""
        pos = 0
        while pos < nbytes:
            at = offset + pos
            seg = min(self.chunk_bytes - at % self.chunk_bytes, nbytes - pos)
            yield at, pos, seg
            pos += seg

    def _aligned_span(self, at: int, seg: int) -> Tuple[int, int]:
        """Sector-align ``[at, at + seg)`` outward, within its extent.

        Extents start and end on sector boundaries, so the rounded span
        never crosses the segment's extent and always fits one staging
        buffer.
        """
        a0 = at - at % SECTOR_BYTES
        end = at + seg
        a1 = end + (-end) % SECTOR_BYTES
        return a0, a1 - a0

    def _pread_exact(self, fd: int, stage: np.ndarray, at: int, name: str):
        got = os.preadv(fd, [memoryview(stage)], at)
        if got != stage.nbytes:
            raise OSError(
                f"short read on plane {name!r}: {got} of {stage.nbytes} bytes"
            )

    def _pwrite_exact(self, fd: int, stage: np.ndarray, at: int, name: str):
        put = os.pwritev(fd, [memoryview(stage)], at)
        if put != stage.nbytes:
            raise OSError(
                f"short write on plane {name!r}: {put} of {stage.nbytes} bytes"
            )

    def _do_read(self, name: str, lo: int, out: np.ndarray, slot: int) -> None:
        fd = self._fds[name]
        dst = np.frombuffer(memoryview(out), dtype=np.uint8)
        nbytes = dst.nbytes
        with self._telemetry.tracer.span(
            "spill_read", category="spill_io", plane=name, bytes=nbytes
        ):
            for at, pos, seg in self._extent_segments(lo * 4, nbytes):
                if self.direct:
                    # Direct I/O must move whole sectors from an aligned
                    # buffer: read the rounded span, copy out the middle.
                    a0, span = self._aligned_span(at, seg)
                    stage = self._staging[slot][:span]
                    self._pread_exact(fd, stage, a0, name)
                    dst[pos : pos + seg] = stage[at - a0 : at - a0 + seg]
                else:
                    stage = self._staging[slot][:seg]
                    self._pread_exact(fd, stage, at, name)
                    dst[pos : pos + seg] = stage
        self.bytes_read += nbytes
        self._telemetry.metrics.counter("spill_bytes_read").inc(nbytes)

    def _do_write(self, name: str, lo: int, src: np.ndarray, slot: int) -> None:
        fd = self._fds[name]
        raw = np.frombuffer(memoryview(src), dtype=np.uint8)
        nbytes = raw.nbytes
        with self._telemetry.tracer.span(
            "spill_write", category="spill_io", plane=name, bytes=nbytes
        ):
            for at, pos, seg in self._extent_segments(lo * 4, nbytes):
                if self.direct:
                    a0, span = self._aligned_span(at, seg)
                    stage = self._staging[slot][:span]
                    if span != seg:
                        # Unaligned head or tail: read-modify-write the
                        # rounded span so neighbouring plane bytes (file
                        # contents are always valid — zero-filled at
                        # creation) survive the sector-granular write.
                        # Safe against lost updates: this thread is the
                        # only writer and runs writes in FIFO order.
                        self._pread_exact(fd, stage, a0, name)
                    stage[at - a0 : at - a0 + seg] = raw[pos : pos + seg]
                    self._pwrite_exact(fd, stage, a0, name)
                else:
                    stage = self._staging[slot][:seg]
                    stage[...] = raw[pos : pos + seg]
                    self._pwrite_exact(fd, stage, at, name)
        self.bytes_written += nbytes
        self._telemetry.metrics.counter("spill_bytes_written").inc(nbytes)
