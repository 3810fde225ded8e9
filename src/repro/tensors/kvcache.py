"""Paged KV-cache for the streaming inference path.

Serving keeps one K/V history per (session, layer); a thousand ragged
sessions malloc'd individually would fragment the heap and make the
memory budget unauditable.  This module stores histories as fixed-size
**pages** — ``kv.page_tokens`` tokens each, one buffer of shape
``(2, heads, page_tokens, head_dim)`` per page — served from an
:class:`~repro.tensors.workspace.ActivationWorkspace`.  Every page shares
one (shape, dtype) key, so retired sessions' pages are recycled into new
sessions via the workspace free list and steady-state serving performs
zero allocations once the page pool is warm.

Capacity is a hard page budget (``max_pages``).  Without a backing tier
eviction would lose live context, so the cache refuses admission instead
(:class:`KVCacheFull` — the scheduler's backpressure signal).  With a
:class:`~repro.tensors.spill.SpillArena` attached, pages spill to disk
under a residency policy built for what decode does: every step sweeps
every live (session, layer) run once, in the same order — a cyclic scan,
on which LRU evicts exactly the page needed soonest and hits ~never.

* **Furthest next use.**  The page just swept is the one needed latest,
  so victims come from the most recently swept end (Belady on a cycle:
  hits ~(budget - runs in transit)/working set), never a pinned page or
  one with a read in flight.
* **Clean evictions are free.**  A restored page keeps its spill slot
  and only ``append`` dirties a page, so evicting a clean page drops the
  buffer without a write, and clean victims are taken before dirty ones.
* **Vectored read-ahead.**  While run *k* is attended, the spilled pages
  of the run that followed it last step are restored by one read-stream
  request into buffers from the same budget; the consumer waits on its
  ticket only if the read is still in flight.

Instruments: ``kv_pages_evicted`` / ``kv_pages_restored`` (a page left /
re-entered the resident set), ``kv_pages_written`` (evictions that cost
a write), ``kv_readahead_waits`` (consumer blocked on a read-ahead), the
``kv_bytes_resident`` gauge, ``kv_evict`` / ``kv_restore`` spans.

:func:`paged_attention` is the decode-side consumer: an online-softmax
sweep over a session's page list (the same running max/sum rescaling as
:mod:`repro.numeric.flash`), so attention never needs the history
contiguous — or even fully resident until touched.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import tune
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.spill import SpillArena
from repro.tensors.workspace import ActivationWorkspace
from repro.tune.registry import default as _registry_default

#: Authored default tokens-per-page; live value resolved via
#: ``tune.value("kv.page_tokens", ...)`` at cache construction.
PAGE_TOKENS = _registry_default("kv.page_tokens")


class KVCacheFull(RuntimeError):
    """Raised when a page is needed, the budget is exhausted, and no
    spill tier exists to evict into.  Admission control should prevent
    this (see :meth:`PagedKVCache.can_admit`)."""


@dataclass(eq=False)
class _Page:
    """One fixed-size KV page (identity-hashed; lives in the sweep order)."""

    session: int
    layer: int
    index: int                        # ordinal within the (session, layer) run
    buf: Optional[np.ndarray] = None  # (2, heads, page_tokens, head_dim)
    slot: Optional[int] = None        # spill slot; a restored page keeps it
    dirty: bool = False               # buf differs from the slot's bytes
    pinned: bool = field(default=False, repr=False)
    #: Read-ahead into ``buf`` not yet landed: ``(ticket, pages it fills)``.
    pending: Optional[tuple] = field(default=None, repr=False)


class PagedKVCache:
    """Fixed-page KV storage with sweep-aware residency (furthest next
    use, clean before dirty, vectored read-ahead — see the module
    docstring) and optional disk spill.

    Args:
        n_layers, n_heads, head_dim: attention geometry of the model.
        page_tokens: tokens per page; defaults to the tuned
            ``kv.page_tokens``.
        max_pages: resident page budget (``None`` = unbounded); buffers
            a read-ahead is still filling count against it.
        workspace: page allocator; a private one is created if omitted.
            The cache owns its pages across steps, so **never** call
            ``new_step()`` on this workspace — pages are returned only
            through :meth:`release` and eviction.
        spill: optional spill backing.  Pass a directory path to let the
            cache build its own arena, sized ``spill_pages`` pages.
        spill_pages: spill-tier capacity in pages (default: 4x
            ``max_pages``; required if ``max_pages`` is None).  The
            cache holds ``max_pages`` resident plus ``spill_pages``
            spilled pages before it raises :class:`KVCacheFull`.
        telemetry: sink for the eviction counters and residency gauge.
    """

    def __init__(
        self,
        n_layers: int,
        n_heads: int,
        head_dim: int,
        page_tokens: Optional[int] = None,
        max_pages: Optional[int] = None,
        workspace: Optional[ActivationWorkspace] = None,
        spill: Optional[str] = None,
        spill_pages: Optional[int] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.page_tokens = (
            page_tokens if page_tokens is not None
            else tune.value("kv.page_tokens", PAGE_TOKENS)
        )
        self.max_pages = max_pages
        self.workspace = workspace if workspace is not None \
            else ActivationWorkspace()
        self.telemetry = telemetry
        self._page_shape = (2, n_heads, self.page_tokens, head_dim)
        self._page_elems = 2 * n_heads * self.page_tokens * head_dim
        self._page_bytes = self._page_elems * 4
        self._pages: Dict[Tuple[int, int], List[_Page]] = {}
        self._tokens: Dict[Tuple[int, int], int] = {}  # per (session, layer)
        self._live: Dict[int, None] = {}    # session registry, FIFO order
        #: Runs by last visit, oldest first: on a repeating sweep the
        #: first key is the run due next.
        self._order: Dict[Tuple[int, int], None] = {}
        #: Every page holding a buffer, soonest next use first.
        self._mru: "OrderedDict[_Page, None]" = OrderedDict()
        self._arena: Optional[SpillArena] = None
        self._free_slots: List[int] = []
        if spill is not None:
            if spill_pages is None:
                if max_pages is None:
                    raise ValueError(
                        "spill_pages is required when max_pages is None"
                    )
                spill_pages = 4 * max_pages
            self._arena = SpillArena(
                spill, {"kv": spill_pages * self._page_elems},
                telemetry=telemetry,
            )
            self._free_slots = list(range(spill_pages))

    # -- bookkeeping ----------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._mru)

    @property
    def resident_bytes(self) -> int:
        return len(self._mru) * self._page_bytes

    def sessions(self) -> Tuple[int, ...]:
        return tuple(self._live)

    def tokens(self, session: int, layer: int = 0) -> int:
        """Tokens appended for ``(session, layer)``."""
        return self._tokens.get((session, layer), 0)

    def pages_for(self, tokens: int) -> int:
        """Pages one layer of a ``tokens``-long session occupies."""
        return (tokens + self.page_tokens - 1) // self.page_tokens

    @property
    def bounded(self) -> bool:
        """True when admission must respect ``max_pages`` (no spill
        tier to absorb overflow)."""
        return self._arena is None and self.max_pages is not None

    def can_admit(self, tokens: int) -> bool:
        """Whether a new ``tokens``-long prompt fits without overflow.

        With a spill tier attached the answer is always yes (pages can
        be evicted to disk); without one, admission must keep the total
        footprint of *live* sessions under ``max_pages``.  Note this
        counts pages *currently held* — schedulers admitting several
        growing sessions must reserve each one's full footprint
        themselves (see ``ContinuousBatchingScheduler._admit``).
        """
        if not self.bounded:
            return True
        held = sum(len(run) for run in self._pages.values())
        return held + self.pages_for(tokens) * self.n_layers \
            <= self.max_pages

    def _gauge(self) -> None:
        self.telemetry.metrics.gauge("kv_bytes_resident").set(
            self.resident_bytes
        )

    def _span(self, name: str):
        return self.telemetry.tracer.span(name, category="kvcache")

    def _count(self, name: str, amount: int = 1) -> None:
        self.telemetry.metrics.counter(name).inc(amount)

    def _segment(self, page: _Page) -> Tuple[int, int, np.ndarray]:
        lo = page.slot * self._page_elems
        return lo, lo + self._page_elems, page.buf.reshape(-1)

    # -- eviction / restore ---------------------------------------------

    def _attach_buf(self, page: _Page, keep: tuple = ()) -> bool:
        """Give ``page`` a buffer out of the budget, evicting as needed.

        ``keep`` marks a read-ahead: it names the runs needed no later
        than ``page``, and the call returns False rather than evict from
        them or wait on another read.
        """
        while self.max_pages is not None \
                and len(self._mru) >= self.max_pages:
            if not self._evict_one(keep):
                return False
        page.buf = self.workspace.take(self._page_shape, np.float32)
        # Wanted now or next: the last to be chosen as a victim, until
        # a sweep passes it.
        self._mru[page] = None
        self._mru.move_to_end(page, last=False)
        self._gauge()
        return True

    def _drop_buf(self, page: _Page) -> None:
        del self._mru[page]
        self.workspace.give(page.buf)
        page.buf = None
        self._gauge()

    def _evict_one(self, keep: tuple = ()) -> bool:
        victim = dirty = landing = None
        for page in reversed(self._mru):  # furthest next use first
            if page.pinned or \
                    (keep and (page.session, page.layer) in keep):
                continue
            if page.pending is not None:
                landing = landing or page
            elif not page.dirty:
                victim = page
                break
            else:
                dirty = dirty or page
        if victim is None and dirty is None:
            if keep:
                return False
            if landing is None:
                raise KVCacheFull(
                    f"all {len(self._mru)} resident pages are pinned"
                )
            # Only unconsumed read-ahead is left to take from: land it.
            # A failed read has already handed its buffers back.
            if self._settle(landing.pending) is not None:
                return True
            victim = landing
        victim = victim or dirty
        if keep and victim.slot is None and not self._free_slots:
            return False  # a read-ahead does not dig for a slot
        if self._arena is None:
            raise KVCacheFull(
                f"page budget {self.max_pages} exhausted and no spill "
                "tier attached (admission should gate on can_admit)"
            )
        with self._span("kv_evict"):
            if victim.dirty:
                if victim.slot is None:
                    victim.slot = self._take_slot()
                self._arena.write("kv", *self._segment(victim))
                victim.dirty = False
                self._count("kv_pages_written")
            self._drop_buf(victim)
        self._count("kv_pages_evicted")
        return True

    def _take_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        # Resident pages keep the slot they were restored from, so the
        # tier can be out of free slots while holding copies nobody
        # needs: take one back; its page must then be written if evicted.
        for page in list(self._mru):
            if page.pending is not None:
                self._settle(page.pending)
            if page.buf is not None and page.slot is not None:
                slot, page.slot, page.dirty = page.slot, None, True
                return slot
        raise KVCacheFull("spill tier is out of slots")

    def _visit(self, key: Tuple[int, int]) -> None:
        """Note that run ``key`` is being swept and read ahead the run
        that followed it last time round: all its spilled pages in one
        read-stream request, into buffers from the same budget."""
        self._order.pop(key, None)
        self._order[key] = None
        ahead = next(iter(self._order))
        if ahead == key or self._arena is None:
            return
        pages = []
        try:
            for page in self._pages[ahead]:
                if page.buf is None:
                    if not self._attach_buf(page, keep=(ahead, key)):
                        break
                    pages.append(page)
        finally:  # a failed eviction write must not strand taken buffers
            if pages:
                group = (self._arena.read_many_async(
                    "kv", [self._segment(p) for p in pages]), pages)
                for page in pages:
                    page.pending = group

    def _settle(self, group: tuple) -> Optional[Exception]:
        """Land a read-ahead, waiting for it if it is not done.

        On failure the buffers go back to the workspace and the pages
        stay spilled with their slots.  The error is returned: the
        consumer raises it; release and eviction, which do not need the
        bytes, drop it.
        """
        ticket, pages = group
        error = None
        if not ticket.done:
            self._count("kv_readahead_waits")
        try:
            with self._span("kv_restore"):
                ticket.wait()
        except Exception as exc:
            error = exc
        for page in pages:
            page.pending = None
            if error is not None:
                self._drop_buf(page)
        if error is None:
            self._count("kv_pages_restored", len(pages))
        return error

    def _ensure_resident(self, page: _Page) -> None:
        if page.pending is not None:
            error = self._settle(page.pending)
            if error is not None:
                raise error
        if page.buf is None:
            with self._span("kv_restore"):
                self._attach_buf(page)
                try:
                    self._arena.read("kv", *self._segment(page))
                except BaseException:
                    self._drop_buf(page)
                    raise
            self._count("kv_pages_restored")

    def _retire(self, page: _Page) -> None:
        """Recycle a page's buffer and slot (its run is going away)."""
        if page.pending is not None:
            # The reader may still be filling the buffer: wait it out
            # before the workspace hands the buffer to someone else.
            self._settle(page.pending)
        if page.buf is not None:
            self._drop_buf(page)
        if page.slot is not None:
            self._free_slots.append(page.slot)
            page.slot = None

    # -- append / view ---------------------------------------------------

    def append(
        self, session: int, layer: int, k: np.ndarray, v: np.ndarray
    ) -> None:
        """Append ``t`` new tokens of K/V for one (session, layer).

        ``k`` and ``v`` are ``(heads, t, head_dim)``.  Every layer of a
        session must append the same number of tokens per step; the
        session token count advances when layer 0 appends.
        """
        if k.shape != v.shape or k.shape[0] != self.n_heads \
                or k.shape[2] != self.head_dim:
            raise ValueError(f"bad KV shape {k.shape}")
        key = (session, layer)
        run = self._pages.setdefault(key, [])
        self._visit(key)
        done = self._tokens.get(key, 0)
        t = k.shape[1]
        try:
            pos = 0
            while pos < t:
                page_idx, offset = divmod(done + pos, self.page_tokens)
                if page_idx == len(run):
                    run.append(_Page(session, layer, page_idx))
                page = run[page_idx]
                # Pin only the page being written: earlier pages of this
                # same append are already safe on disk if evicted.
                page.pinned = True
                try:
                    if page.buf is None and page.slot is None:
                        self._attach_buf(page)
                    else:
                        self._ensure_resident(page)
                    step = min(self.page_tokens - offset, t - pos)
                    page.buf[0, :, offset:offset + step] = \
                        k[:, pos:pos + step]
                    page.buf[1, :, offset:offset + step] = \
                        v[:, pos:pos + step]
                    page.dirty = True
                    pos += step
                finally:
                    page.pinned = False
        except BaseException:
            # Roll back pages this append allocated so a rejected
            # admission (or a failed restore) leaves no footprint behind.
            keep = self.pages_for(done)
            for page in run[keep:]:
                self._retire(page)
            del run[keep:]
            if not run:
                del self._pages[key], self._order[key]
            raise
        self._tokens[key] = done + t
        self._live.setdefault(session, None)

    def view(
        self, session: int, layer: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Resident (k, v) views per page, trimmed to valid tokens.

        Touching a spilled page restores it from disk first.  Views stay
        valid until the next operation that can evict (append on a full
        cache, another view).
        """
        run = self._pages.get((session, layer))
        if not run:
            return []
        self._visit((session, layer))
        total = self._tokens.get((session, layer), 0)
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for page in run:
            page.pinned = True
        try:
            for page in run:
                valid = min(
                    self.page_tokens,
                    total - page.index * self.page_tokens,
                )
                if valid <= 0:
                    continue
                self._ensure_resident(page)
                self._mru.move_to_end(page)
                out.append(
                    (page.buf[0, :, :valid], page.buf[1, :, :valid])
                )
        finally:
            for page in run:
                page.pinned = False
        return out

    def iter_pages(self, session: int, layer: int):
        """Yield (k, v) page views lazily, restoring one page at a time.

        Unlike :meth:`view`, only the *yielded* page is guaranteed
        resident — earlier pages may be evicted as the sweep advances —
        so a history larger than the resident budget can still be
        attended (the online-softmax consumer reads each page exactly
        once, in order).  A failed restore raises here, leaves the page
        spilled, and can be retried.
        """
        run = self._pages.get((session, layer))
        if not run:
            return
        self._visit((session, layer))
        total = self._tokens.get((session, layer), 0)
        for page in run:
            valid = min(
                self.page_tokens, total - page.index * self.page_tokens
            )
            if valid <= 0:
                continue
            page.pinned = True
            try:
                self._ensure_resident(page)
                self._mru.move_to_end(page)  # swept: needed last
                yield (page.buf[0, :, :valid], page.buf[1, :, :valid])
            finally:
                page.pinned = False

    def release(self, session: int) -> None:
        """Retire a session: recycle its pages and spill slots."""
        for layer in range(self.n_layers):
            key = (session, layer)
            for page in self._pages.pop(key, []):
                self._retire(page)
            self._tokens.pop(key, None)
            self._order.pop(key, None)
        self._live.pop(session, None)

    def close(self) -> None:
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "PagedKVCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def paged_attention(
    q: np.ndarray,
    pages: List[Tuple[np.ndarray, np.ndarray]],
    past_len: int,
) -> np.ndarray:
    """Causal attention of new queries against a paged K/V history.

    Online-softmax sweep (running max / running sum, same rescaling as
    :mod:`repro.numeric.flash`) over the page list, so the history is
    consumed page-by-page and never concatenated.  Query row ``i``
    (global position ``past_len + i``) sees keys ``0 .. past_len + i``.

    Args:
        q: ``(heads, tq, head_dim)`` new-token queries.
        pages: iterable of ``(k, v)`` views — a :meth:`PagedKVCache.view`
            list or the lazy :meth:`PagedKVCache.iter_pages` generator;
            token counts must sum to ``past_len + tq``.
        past_len: tokens already in the history before this step's
            append.

    Returns:
        ``(heads, tq, head_dim)`` fp32 attention output.
    """
    heads, tq, d = q.shape
    scale = np.float32(1.0 / math.sqrt(d))
    fill = np.float32(np.finfo(np.float32).min / 2)
    m = np.full((heads, tq), fill, dtype=np.float32)
    l = np.zeros((heads, tq), dtype=np.float32)
    acc = np.zeros((heads, tq, d), dtype=np.float32)
    base = 0
    for k, v in pages:
        pt = k.shape[1]
        s = np.matmul(q, k.transpose(0, 2, 1)) * scale
        if base + pt - 1 > past_len:  # else no column is ahead of row 0
            rows = past_len + np.arange(tq, dtype=np.int64)[:, None]
            cols = base + np.arange(pt, dtype=np.int64)[None, :]
            s = np.where((cols > rows)[None, :, :], fill, s)
        block_max = s.max(axis=-1)
        m_new = np.maximum(m, block_max)
        alpha = np.exp(m - m_new)
        p = np.exp(s - m_new[..., None])
        l = l * alpha + p.sum(axis=-1)
        acc = acc * alpha[..., None] + np.matmul(p, v)
        m = m_new
        base += pt
    if base != past_len + tq:
        raise ValueError(
            f"pages hold {base} tokens, expected {past_len + tq}"
        )
    return acc / l[..., None]
