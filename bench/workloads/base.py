"""What every workload shares: context, measured window, span views.

Nothing here imports ``repro`` at module level; workloads import it
inside ``build`` so the child's set-up clock covers the import.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from bench import stats, trace

#: Warm-up operations before every measured window.
WARMUP_OPS = 2


@dataclass
class Context:
    """Per-child run parameters handed to the workload.

    ``recorder`` and ``telemetry`` are set in the traced run only; the
    untraced run passes the program no telemetry at all.
    """

    seed: int
    seconds: float
    quick: bool
    out: Path
    recorder: Optional[trace.Recorder] = None
    telemetry: Any = None

    def op_span(self, index: int):
        """Root span of one measured operation (no-op when untraced)."""
        if self.recorder is None:
            return nullcontext()
        self.recorder.op = index
        return self.recorder.span("bench.op")

    def counter(self, name: str) -> float:
        """Sum of a program counter over all its label sets (0 when the
        run carries no telemetry)."""
        if self.telemetry is None:
            return 0.0
        return sum(
            inst.value for kind, inst in self.telemetry.metrics
            if kind == "counter" and inst.name == name
        )


@dataclass
class Window:
    """One measured window.

    Attributes:
        start, end: ``perf_counter`` bounds.
        op_ms: per-operation times in ms (steps, inter-token gaps, sim
            points) — the sample behind ``op_ms_p50``.
        work: tokens trained or generated, or sim points estimated.
        attempted, failed: operations (steps, sessions, points).
        notes: workload-private data for checks and layer metrics.
    """

    start: float = 0.0
    end: float = 0.0
    op_ms: List[float] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def end_to_end(self) -> Dict[str, float]:
        return {
            "work_per_s": self.work / self.seconds,
            "op_ms_p50": stats.median(self.op_ms),
        }


def timed_ops(ctx: Context, window: Window, n: int,
              op: Callable[[int], bool]) -> List[float]:
    """Run ``op(i)`` for ``i < n`` inside the window, timing each.

    ``op`` returns False for a failed operation; an exception is a
    failure too (reported, not raised: the run must finish and count it).
    Returns per-operation seconds.
    """
    durations: List[float] = []
    for i in range(n):
        t0 = time.perf_counter()
        try:
            with ctx.op_span(i):
                ok = op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        durations.append(time.perf_counter() - t0)
        window.attempted += 1
        window.failed += 0 if ok else 1
    return durations


class SpanView:
    """Window spans of the thread that drove the work, with roll-ups.

    Args:
        spans: every span of the window.
        tid: the driving thread (main for training and the simulator,
            the server loop for serving).
        n_ops: divisor for the per-operation figures.
    """

    def __init__(self, spans: Sequence[list], tid: int, n_ops: int):
        self.all = list(spans)
        self.tid = tid
        self.n_ops = max(1, n_ops)
        self.own = [s for s in self.all if s[trace.TID] == tid]
        self._self = dict(
            zip(map(id, self.all), trace.self_times(self.all)))

    def named(self, *names: str) -> List[list]:
        return trace.outermost(self.own, names, self.tid)

    def ms_per_op(self, *names: str) -> float:
        return trace.total_seconds(self.named(*names)) * 1e3 / self.n_ops

    def self_ms_per_op(self, *names: str) -> float:
        picked = [s for s in self.own if s[trace.NAME] in names]
        return sum(self._self[id(s)] for s in picked) * 1e3 / self.n_ops

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def values(self, *names: str) -> list:
        return [s[trace.VALUE] for s in self.own
                if s[trace.NAME] in names and s[trace.VALUE] is not None]

    def layers_run(self) -> List[str]:
        return sorted({s[trace.LAYER] for s in self.all})

    def residual_pct(self, window_s: float) -> float:
        """Share of the window no driving-thread span accounts for."""
        accounted = sum(
            trace.layer_self_totals(self.all, self.tid).values())
        return 100.0 * (window_s - accounted) / window_s


class Workload:
    """One named workload (see ``bench/README.md`` for the glossary)."""

    name: str
    why: str

    def build(self, ctx: Context) -> None:
        """Import the program and build what the window drives."""
        raise NotImplementedError

    def warmup(self, ctx: Context) -> None:
        """Run ``WARMUP_OPS`` operations outside the window."""
        raise NotImplementedError

    def run(self, ctx: Context) -> Window:
        raise NotImplementedError

    def check(self, ctx: Context, window: Window) -> List[str]:
        """Output checks; returns one line per failed check."""
        raise NotImplementedError

    def view(self, window: Window, spans: Sequence[list]) -> SpanView:
        """The window's spans seen from the thread that drove the work
        (this one, unless the workload overrides), per operation."""
        return SpanView(spans, threading.get_ident(), len(window.op_ms))

    def layer_metrics(self, ctx: Context, window: Window,
                      view: SpanView) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release threads, files and directories the build opened."""


def pool_workers() -> int:
    """Workers of the program's default kernel pool."""
    from repro.exec.pool import get_pool

    return get_pool().workers


def sized(ctx: Context, per_second: float, floor: int, quick: int) -> int:
    """Operations in the window: ``--seconds`` sizes the run by a rate
    calibrated so the window lasts about that long on the sizing host;
    counts (not a deadline) keep count-type metrics exact per seed."""
    if ctx.quick:
        return quick
    return max(floor, round(per_second * ctx.seconds))
