"""Spans around the program's public callables, recorded from outside.

The traced run wraps the callables listed in :data:`TARGETS` (inside the
child process only) and records one span per call: name, layer, start,
end, the span that caused it (top of a thread-local stack), thread and
operation id.  Nothing under ``src/`` is edited; the wrappers are
removed again by :meth:`Recorder.uninstall`.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of one thread's spans sum to the time that
thread spent inside root spans — the property the per-layer table
relies on (``bench.selftime_residual_pct``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

# Span record layout (a list, mutated once when the call returns).
NAME, LAYER, START, END, PARENT, TID, OP, VALUE = range(8)


def make_span(name: str, layer: str, start: float, end: float,
              parent: Optional[list] = None, tid: int = 0, op: int = -1,
              value: Any = None) -> list:
    """A span record (what a wrapper appends; also used by the tests)."""
    return [name, layer, start, end, parent, tid, op, value]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    Attributes:
        layer: package under ``src/repro/`` the callable belongs to.
        name: span name.
        module: dotted module path.
        qualname: ``function`` or ``Class.method``.
        value: optional ``(args, kwargs, result) -> object`` read when the
            call returns — sizes and counts visible at the call boundary.
        subclasses: also wrap the method wherever a subclass overrides it.
        bumps_op: each call starts a new operation id (serve steps).
    """

    layer: str
    name: str
    module: str
    qualname: str
    value: Optional[Callable[[tuple, dict, Any], Any]] = None
    subclasses: bool = False
    bumps_op: bool = False


def _grad_elements(args, kwargs, result):
    return sum(int(g.size) for g in args[1].values())


def _qmatmul_flops(args, kwargs, result):
    x, weight = args[0], args[1]
    rows, cols = weight.shape
    return 2.0 * (x.size // x.shape[-1]) * rows * cols


def _engine_step_mix(args, kwargs, result):
    """(sessions, prefill tokens, decode tokens) of one engine step."""
    sizes = [len(ids) for _, ids in args[1]]
    return (len(sizes), sum(s for s in sizes if s > 1),
            sum(1 for s in sizes if s == 1))


TARGETS: Sequence[Target] = (
    Target("data", "data.sample_tokens",
           "repro.data.synthetic", "SyntheticPile.sample_tokens"),
    Target("numeric", "numeric.loss_and_grads",
           "repro.numeric.transformer", "TinyTransformer.loss_and_grads"),
    Target("numeric", "numeric.attend",
           "repro.numeric.attention", "MultiHeadAttention.attend"),
    Target("numeric", "numeric.attend_backward",
           "repro.numeric.attention", "MultiHeadAttention.attend_backward"),
    Target("numeric", "numeric.quant_pack",
           "repro.numeric.lowprec", "QuantizedStore.pack"),
    Target("core", "core.train_step",
           "repro.core.engine", "SuperOffloadEngine.train_step"),
    Target("optim", "optim.adam_step", "repro.optim.implementations",
           "AdamOptimizer.step", value=_grad_elements, subclasses=True),
    Target("optim", "optim.adam_step", "repro.optim.implementations",
           "AdamOptimizer.invert_step", value=_grad_elements,
           subclasses=True),
    # The pipelined and disk ZeRO steps bypass AdamOptimizer.step and
    # call the fused chunk kernel themselves.
    Target("optim", "optim.adam_chunk", "repro.exec.kernels", "adam_chunk",
           value=lambda a, k, r: a[1] - a[0]),
    Target("optim", "optim.rollback_capture",
           "repro.optim.rollback", "SnapshotRollback.capture"),
    Target("optim", "optim.rollback_restore",
           "repro.optim.rollback", "SnapshotRollback.rollback"),
    Target("exec", "exec.pool_run", "repro.exec.pool", "KernelPool.run"),
    Target("exec", "exec.pool_wait_all",
           "repro.exec.pool", "KernelPool.wait_all"),
    Target("exec", "exec.future_result",
           "repro.exec.pool", "ChunkFuture.result"),
    Target("exec", "exec.qmatmul", "repro.exec.ops", "parallel_qmatmul",
           value=_qmatmul_flops),
    Target("tensors", "tensors.arena_fill",
           "repro.tensors.arena", "FlatArena.fill_from"),
    Target("tensors", "tensors.spill_wait",
           "repro.tensors.spill", "SpillTicket.wait"),
    Target("tensors", "tensors.kv_append",
           "repro.tensors.kvcache", "PagedKVCache.append"),
    Target("tensors", "tensors.kv_attention",
           "repro.tensors.kvcache", "paged_attention",
           value=lambda a, k, r: a[2] + a[0].shape[1]),
    Target("parallel", "parallel.zero_step",
           "repro.parallel.zero", "ZeroShardedAdam.step_flat"),
    Target("parallel", "parallel.count_payload", "repro.parallel.comm",
           "SimProcessGroup.count_payload", value=lambda a, k, r: a[2]),
    Target("parallel", "parallel.reduce",
           "repro.parallel.comm", "SimProcessGroup.reduce_scatter"),
    Target("parallel", "parallel.reduce",
           "repro.parallel.comm", "SimProcessGroup.all_reduce"),
    Target("parallel", "parallel.gather",
           "repro.parallel.comm", "SimProcessGroup.all_gather"),
    Target("parallel", "parallel.gather",
           "repro.parallel.comm", "SimProcessGroup.all_gather_into"),
    Target("training", "training.stv_run",
           "repro.training.stv_trainer", "STVTrainer.run"),
    Target("training", "training.dp_train_step",
           "repro.training.dp_trainer", "DataParallelTrainer.train_step"),
    Target("training", "training.ckpt_save",
           "repro.training.checkpoint", "AsyncCheckpointer.save"),
    Target("training", "training.ckpt_drain", "repro.training.dp_trainer",
           "DataParallelTrainer.finish_checkpoints"),
    Target("serving", "serving.sched_step", "repro.serving.scheduler",
           "ContinuousBatchingScheduler.step", bumps_op=True,
           value=lambda a, k, r: a[0].engine.cache.resident_pages),
    Target("serving", "serving.engine_step", "repro.serving.engine",
           "InferenceEngine.step", value=_engine_step_mix),
    Target("serving", "serving.requeue",
           "repro.serving.session", "SessionRegistry.requeue"),
    Target("systems", "systems.best_estimate", "repro.systems.base",
           "TrainingSystem.best_estimate", subclasses=True),
    Target("systems", "systems.estimate", "repro.systems.base",
           "TrainingSystem.estimate", subclasses=True),
    Target("sim", "sim.run", "repro.sim.engine", "ScheduleSimulator.run",
           value=lambda a, k, r: len(a[1])),
)


def _all_subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


class Recorder:
    """In-memory span list plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        """Append a span that starts now and push it on this thread's
        stack; the caller closes it with :meth:`_close`."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        span = [name, layer, time.perf_counter(), 0.0,
                stack[-1] if stack else None, threading.get_ident(),
                self.op, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, layer, value = target.name, target.layer, target.value
        bumps_op = target.bumps_op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if bumps_op:
                self.op += 1
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if value is not None:
                span[VALUE] = value(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span opened by the benchmark itself (its per-operation root)."""
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    # -- installation ----------------------------------------------------

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Wrap every target; safe to call once per recorder."""
        targets = list(targets)
        modules = {t.module: importlib.import_module(t.module)
                   for t in targets}
        for t in targets:
            mod = modules[t.module]
            if "." in t.qualname:
                cls_name, attr = t.qualname.split(".")
                cls = getattr(mod, cls_name)
                owners = [cls] + (_all_subclasses(cls) if t.subclasses
                                  else [])
                for owner in owners:
                    if attr in vars(owner):
                        self._patch_method(owner, attr, t)
            else:
                self._patch_function(getattr(mod, t.qualname), t)

    def _patch_method(self, owner: type, attr: str, target: Target) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, target))
        else:
            new = self._wrap(raw, target)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def _patch_function(self, fn: Callable, target: Target) -> None:
        # ``from x import f`` copies the reference: replace it in every
        # repro module that holds it, not only where it was defined.
        wrapped = self._wrap(fn, target)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- export ----------------------------------------------------------

    def write(self, path: str, window: Sequence[float]) -> None:
        """Write the spans as a Chrome ``trace_event`` file."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        origin = min((s[START] for s in self.spans), default=0.0)
        events = [
            {
                "name": s[NAME], "cat": s[LAYER], "ph": "X", "pid": 1,
                "tid": s[TID],
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "args": {
                    "id": i, "op": s[OP],
                    "parent": index[id(s[PARENT])]
                    if s[PARENT] is not None else None,
                },
            }
            for i, s in enumerate(self.spans)
        ]
        doc = {
            "traceEvents": events,
            "window_us": [(t - origin) * 1e6 for t in window],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- analysis (pure functions over span records) -----------------------------


def in_window(spans: Iterable[list], start: float, end: float) -> List[list]:
    """Spans that lie wholly inside ``[start, end]``."""
    return [s for s in spans if s[START] >= start and s[END] <= end]


def self_times(spans: Sequence[list]) -> List[float]:
    """Per-span self time: duration minus what direct children cover.

    Children of one parent run on the parent's thread one after another
    (stack discipline), so their durations add without overlapping.
    """
    covered: Dict[int, float] = {}
    for s in spans:
        parent = s[PARENT]
        if parent is not None:
            covered[id(parent)] = covered.get(id(parent), 0.0) \
                + (s[END] - s[START])
    return [(s[END] - s[START]) - covered.get(id(s), 0.0) for s in spans]


def layer_self_totals(spans: Sequence[list],
                      tid: Optional[int] = None) -> Dict[str, float]:
    """Self seconds per layer (restricted to one thread when given)."""
    totals: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        if tid is None or s[TID] == tid:
            totals[s[LAYER]] = totals.get(s[LAYER], 0.0) + own
    return totals


def outermost(spans: Iterable[list], names: Iterable[str],
              tid: Optional[int] = None) -> List[list]:
    """Spans named in ``names`` with no ancestor also named in ``names``
    — so nested calls (``run`` joining futures, an override calling its
    base) count once."""
    names = set(names)
    out = []
    for s in spans:
        if s[NAME] not in names or (tid is not None and s[TID] != tid):
            continue
        parent = s[PARENT]
        while parent is not None and parent[NAME] not in names:
            parent = parent[PARENT]
        if parent is None:
            out.append(s)
    return out


def duration(span: list) -> float:
    return span[END] - span[START]


def total_seconds(spans: Iterable[list]) -> float:
    return sum(s[END] - s[START] for s in spans)
