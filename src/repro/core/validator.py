"""Background gradient validation (§4.4's validation process).

The paper implements validation as a separate process fed through a
multiprocessing queue: while the GPU runs the next forward pass, the
validator computes the global gradient norm and scans for NaN/Inf, and the
engine consults the verdict afterwards.  This module provides that
mechanism with a worker *thread* (a thread gives the same concurrency
without the fork overhead — and stays robust in sandboxed environments).

The per-tensor float64 sums of squares are taken where the gradients land
(the pass that already touches every gradient byte); the validator folds
them into the global verdict — NaN/Inf, norm, clip decision — with
:func:`~repro.optim.mixed_precision.health_from_sums`, bitwise the verdict
the inline path computes.

:class:`BackgroundValidator` is deliberately engine-agnostic: callers
submit ``(sums, clip_norm)`` jobs and either block on the ticket or poll
it, mirroring the paper's queue protocol.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.optim.mixed_precision import GradientHealth, health_from_sums


@dataclass
class ValidationTicket:
    """Handle for one in-flight validation job."""

    job_id: int
    _event: threading.Event = field(default_factory=threading.Event)
    _result: Optional[GradientHealth] = None
    _error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether the verdict is available."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> GradientHealth:
        """Block until the verdict arrives and return it.

        Raises:
            TimeoutError: the validator did not answer within ``timeout``.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(f"validation job {self.job_id} timed out")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class BackgroundValidator:
    """A worker thread that validates gradients off the critical path.

    Args:
        daemon: mark the worker thread as a daemon (default True so an
            abandoned validator never blocks interpreter exit).
    """

    def __init__(self, daemon: bool = True):
        self._queue: "queue.Queue" = queue.Queue()
        self._next_id = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="stv-validator", daemon=daemon
        )
        self._thread.start()

    def submit(
        self, sums: Sequence[float], clip_norm: float | None
    ) -> ValidationTicket:
        """Queue one validation job; returns immediately.

        ``sums`` are the gradients' float64 sums of squares in the order
        the verdict adds them (see ``health_from_sums``).
        """
        if self._closed:
            raise RuntimeError("validator has been closed")
        ticket = ValidationTicket(self._next_id)
        self._next_id += 1
        self._queue.put((ticket, sums, clip_norm))
        return ticket

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            ticket, sums, clip_norm = item
            try:
                ticket._result = health_from_sums(sums, clip_norm)
            except BaseException as exc:  # surfaced at result()
                ticket._error = exc
            finally:
                ticket._event.set()

    def close(self) -> None:
        """Drain and stop the worker (idempotent)."""
        if not self._closed:
            self._closed = True
            self._queue.put(None)
            self._thread.join(timeout=5)

    def __enter__(self) -> "BackgroundValidator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
