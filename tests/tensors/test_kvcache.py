"""Property tests for the paged KV-cache and paged attention.

The contracts under test:

- append/view round-trip: the concatenated page views always equal the
  full K/V history, for any append chunking and page size;
- eviction + spill restore is lossless (decode-after-evict reads the
  same bytes back from disk), and a failed admission rolls back cleanly;
- ``paged_attention`` over the page list matches a dense causal softmax
  over the same history;
- steady-state serving allocates nothing: after warm-up, page churn is
  fed entirely by the workspace free list;
- eviction takes the unpinned page whose next use is furthest away (the
  most recently swept), clean before dirty, never one with a read in
  flight; a clean eviction writes nothing; the run due next is read
  ahead inside the same ``max_pages`` budget; counters/gauges track it;
- a failed read-ahead surfaces at the consuming ``iter_pages``, leaves
  the page spilled with its slot, and can be retried.
"""

import errno
import itertools
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import Telemetry
from repro.tensors.kvcache import (
    KVCacheFull,
    PagedKVCache,
    paged_attention,
)

HEADS, DIM = 2, 4


def _kv(rng, t):
    return (
        rng.standard_normal((HEADS, t, DIM)).astype(np.float32),
        rng.standard_normal((HEADS, t, DIM)).astype(np.float32),
    )


def _history(cache, session, layer):
    views = cache.view(session, layer)
    if not views:
        return None, None
    return (
        np.concatenate([k for k, _ in views], axis=1),
        np.concatenate([v for _, v in views], axis=1),
    )


# -- append / view round-trip -------------------------------------------


@given(
    page_tokens=st.integers(1, 7),
    chunks=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_append_view_roundtrip(page_tokens, chunks, seed):
    rng = np.random.default_rng(seed)
    ks, vs = [], []
    with PagedKVCache(1, HEADS, DIM, page_tokens=page_tokens) as cache:
        for t in chunks:
            k, v = _kv(rng, t)
            cache.append(0, 0, k, v)
            ks.append(k)
            vs.append(v)
        total = sum(chunks)
        assert cache.tokens(0) == total
        assert cache.pages_for(total) == -(-total // page_tokens)
        got_k, got_v = _history(cache, 0, 0)
    assert np.array_equal(got_k, np.concatenate(ks, axis=1))
    assert np.array_equal(got_v, np.concatenate(vs, axis=1))


def test_layers_and_sessions_are_independent():
    rng = np.random.default_rng(0)
    with PagedKVCache(2, HEADS, DIM, page_tokens=4) as cache:
        data = {}
        for session in (7, 9):
            for layer in (0, 1):
                k, v = _kv(rng, 5)
                cache.append(session, layer, k, v)
                data[(session, layer)] = (k, v)
        for (session, layer), (k, v) in data.items():
            got_k, got_v = _history(cache, session, layer)
            assert np.array_equal(got_k, k)
            assert np.array_equal(got_v, v)
        assert sorted(cache.sessions()) == [7, 9]
        cache.release(7)
        assert cache.sessions() == (9,)
        assert cache.view(7, 0) == []


# -- eviction, spill, rollback ------------------------------------------


def test_evict_restore_lossless(tmp_path):
    """History larger than the resident budget survives via disk."""
    rng = np.random.default_rng(1)
    telemetry = Telemetry()
    with PagedKVCache(
        1, HEADS, DIM, page_tokens=2, max_pages=2,
        spill=str(tmp_path / "kv"), telemetry=telemetry,
    ) as cache:
        k, v = _kv(rng, 12)  # 6 pages >> budget of 2
        cache.append(0, 0, k, v)
        assert cache.resident_pages <= 2
        evicted = telemetry.metrics.counter("kv_pages_evicted").value
        assert evicted >= 4
        # iter_pages restores one page at a time without exceeding budget
        got_k = np.concatenate(
            [pk.copy() for pk, _ in cache.iter_pages(0, 0)], axis=1
        )
        assert np.array_equal(got_k, k)
        assert telemetry.metrics.counter("kv_pages_restored").value > 0
        assert (
            telemetry.metrics.gauge("kv_bytes_resident").value
            <= 2 * cache.resident_bytes / max(cache.resident_pages, 1) * 2
        )


def test_full_cache_rejects_and_rolls_back():
    rng = np.random.default_rng(2)
    with PagedKVCache(1, HEADS, DIM, page_tokens=2, max_pages=3) as cache:
        k, v = _kv(rng, 4)
        cache.append(0, 0, k, v)  # 2 pages
        assert not cache.can_admit(5)  # needs 3 more pages; only 1 left
        before = cache.resident_pages
        with pytest.raises(KVCacheFull):
            cache.append(1, 0, *_kv(rng, 5))
        # rollback: the failed admission left no footprint
        assert cache.resident_pages == before
        assert cache.tokens(1) == 0
        assert 1 not in cache.sessions()
        # the survivor is intact
        got_k, _ = _history(cache, 0, 0)
        assert np.array_equal(got_k, k)


def test_pinned_pages_never_evicted(tmp_path):
    """The page being written survives eviction pressure mid-append."""
    rng = np.random.default_rng(3)
    with PagedKVCache(
        1, HEADS, DIM, page_tokens=2, max_pages=2,
        spill=str(tmp_path / "kv"),
    ) as cache:
        k, v = _kv(rng, 10)
        cache.append(0, 0, k, v)  # forces evictions while appending
        got_k = np.concatenate(
            [pk.copy() for pk, _ in cache.iter_pages(0, 0)], axis=1
        )
        assert np.array_equal(got_k, k)


# -- paged attention -----------------------------------------------------


def _dense_causal(q, k, v, past_len):
    heads, tq, d = q.shape
    s = np.einsum("hqd,hkd->hqk", q, k) / np.sqrt(d)
    rows = past_len + np.arange(tq)[:, None]
    cols = np.arange(k.shape[1])[None, :]
    s = np.where(cols > rows, -np.inf, s)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return np.einsum("hqk,hkd->hqd", p, v).astype(np.float32)


@given(
    page_tokens=st.integers(1, 5),
    past=st.integers(0, 9),
    tq=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_paged_attention_matches_dense(page_tokens, past, tq, seed):
    rng = np.random.default_rng(seed)
    k, v = _kv(rng, past + tq)
    q = rng.standard_normal((HEADS, tq, DIM)).astype(np.float32)
    with PagedKVCache(1, HEADS, DIM, page_tokens=page_tokens) as cache:
        cache.append(0, 0, k, v)
        got = paged_attention(q, cache.iter_pages(0, 0), past)
    ref = _dense_causal(q, k, v, past)
    assert float(np.abs(got - ref).max()) <= 1e-5


def test_paged_attention_validates_token_total():
    rng = np.random.default_rng(4)
    k, v = _kv(rng, 4)
    q = rng.standard_normal((HEADS, 1, DIM)).astype(np.float32)
    with PagedKVCache(1, HEADS, DIM, page_tokens=2) as cache:
        cache.append(0, 0, k, v)
        with pytest.raises(ValueError):
            paged_attention(q, cache.view(0, 0), past_len=9)


def test_decode_after_evict_attends_full_history(tmp_path):
    """Attention over a history bigger than the resident budget."""
    rng = np.random.default_rng(5)
    total = 16
    k, v = _kv(rng, total)
    with PagedKVCache(
        1, HEADS, DIM, page_tokens=2, max_pages=3,
        spill=str(tmp_path / "kv"),
    ) as cache:
        for i in range(total):
            cache.append(0, 0, k[:, i:i + 1], v[:, i:i + 1])
        q = rng.standard_normal((HEADS, 1, DIM)).astype(np.float32)
        got = paged_attention(q, cache.iter_pages(0, 0), total - 1)
    ref = _dense_causal(q, k[:, :total], v[:, :total], total - 1)
    assert float(np.abs(got - ref).max()) <= 1e-5


# -- steady state --------------------------------------------------------


def test_steady_state_zero_allocations():
    """After warm-up, session churn reuses pages from the free list."""
    rng = np.random.default_rng(6)
    with PagedKVCache(1, HEADS, DIM, page_tokens=4) as cache:
        def one_session(session):
            for _ in range(3):
                cache.append(session, 0, *_kv(rng, 3))
            cache.release(session)

        one_session(0)  # warm-up
        allocs = cache.workspace.alloc_count
        for s in range(1, 6):
            one_session(s)
        assert cache.workspace.alloc_count == allocs


# -- sweep-aware residency -----------------------------------------------


def _check_accounting(cache, spill_pages):
    """Budget, buffer and slot conservation (white box)."""
    pages = [p for run in cache._pages.values() for p in run]
    holding = [p for p in pages if p.buf is not None]
    assert cache.resident_pages == len(holding) <= cache.max_pages
    assert cache.workspace.live_bytes == cache.resident_bytes
    held = [p.slot for p in pages if p.slot is not None]
    assert len(set(held)) == len(held)
    assert sorted(held + cache._free_slots) == list(range(spill_pages))
    for p in pages:  # a page is somewhere, and never clean without a copy
        assert p.buf is not None or p.slot is not None
        assert p.dirty or p.slot is not None


_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 2), st.integers(0, 1),
              st.integers(1, 5)),
    st.tuples(st.sampled_from(["iter", "view"]), st.integers(0, 2),
              st.integers(0, 1)),
    st.tuples(st.just("release"), st.integers(0, 2)),
)


@given(
    page_tokens=st.integers(1, 3),
    max_pages=st.integers(2, 6),
    ops=st.lists(_OPS, min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_bounded_cache_matches_unbounded_twin(
    tmp_path_factory, page_tokens, max_pages, ops, seed
):
    """Random interleavings against an unbounded twin: every page read
    back bitwise equal, the budget (in-flight read-ahead buffers
    included) and the slot count conserved at every point."""
    rng = np.random.default_rng(seed)
    spill_pages = 256  # > 40 ops x 5 tokens: the tier never fills here
    with PagedKVCache(
        2, HEADS, DIM, page_tokens=page_tokens, max_pages=max_pages,
        spill=str(tmp_path_factory.mktemp("kv")), spill_pages=spill_pages,
    ) as cache, PagedKVCache(2, HEADS, DIM, page_tokens=page_tokens) as twin:
        for op, session, *rest in ops:
            if op == "append":
                layer, t = rest
                k, v = _kv(rng, t)
                cache.append(session, layer, k, v)
                twin.append(session, layer, k, v)
            elif op == "release":
                cache.release(session)
                twin.release(session)
            elif op == "view" and \
                    len(cache._pages.get((session, rest[0]), [])) > max_pages:
                with pytest.raises(KVCacheFull):  # view pins the whole run
                    cache.view(session, rest[0])
            else:
                read = cache.view if op == "view" else cache.iter_pages
                expect = twin.view(session, rest[0])
                n = 0
                for (k, v), (tk, tv) in zip(read(session, rest[0]), expect):
                    assert np.array_equal(k, tk) and np.array_equal(v, tv)
                    _check_accounting(cache, spill_pages)
                    n += 1
                assert n == len(expect)
            _check_accounting(cache, spill_pages)
            assert cache.tokens(session) == twin.tokens(session)
        # Page churn is fed by the free list once the pool is warm.
        assert cache.workspace.alloc_count <= max_pages


def test_cyclic_sweep_hits_and_writes_only_dirty(tmp_path):
    """The decode pattern — every step each run appends one token and is
    attended once, same order — over a working set 2x the budget.  LRU
    restores ~every touch and rewrites every victim; the sweep-aware
    policy keeps budget - two runs in transit resident (here 56 of 128
    pages) and writes only what an append dirtied."""
    rng = np.random.default_rng(7)
    telemetry = Telemetry()
    counter = telemetry.metrics.counter
    page_tokens, budget = 8, 64
    runs = [(s, l) for l in range(4) for s in range(8)]
    with PagedKVCache(
        4, HEADS, DIM, page_tokens=page_tokens, max_pages=budget,
        spill=str(tmp_path / "kv"), telemetry=telemetry,
    ) as cache:
        for session, layer in runs:  # 32 runs x 4 pages, tail page at 1/8
            cache.append(session, layer, *_kv(rng, 3 * page_tokens + 1))
        touched = dirtied = 0
        for step in range(7):  # the tail pages fill up, none is added
            if step == 2:  # the first two sweeps settle the order
                touched = dirtied = 0
                before = {n: counter(n).value for n in (
                    "kv_pages_restored", "kv_pages_written",
                    "kv_pages_evicted")}
            for session, layer in runs:
                cache.append(session, layer, *_kv(rng, 1))
                dirtied += 1
                touched += sum(1 for _ in cache.iter_pages(session, layer))
                assert cache.resident_pages <= budget
        delta = {n: counter(n).value - v for n, v in before.items()}
    assert touched == 5 * 2 * budget
    assert delta["kv_pages_restored"] / touched <= 0.6
    assert delta["kv_pages_written"] <= dirtied
    assert delta["kv_pages_written"] < delta["kv_pages_evicted"]


def _sweep_one(cache, session):
    return np.concatenate(
        [pk.copy() for pk, _ in cache.iter_pages(session, 0)], axis=1)


@pytest.mark.parametrize("survivor", [0, 1])
def test_capacity_is_max_pages_plus_spill_pages(tmp_path, survivor):
    """The cache holds exactly ``max_pages`` resident + ``spill_pages``
    spilled pages even though a restored page keeps its slot: when none
    is free, one is reclaimed from a resident page."""
    rng = np.random.default_rng(8)
    spill_pages = 2
    k, v = _kv(rng, 8)
    with PagedKVCache(
        1, HEADS, DIM, page_tokens=2, max_pages=2,
        spill=str(tmp_path / "kv"), spill_pages=spill_pages,
    ) as cache:
        cache.append(0, 0, k[:, :3], v[:, :3])    # pages A0, A1 (half)
        cache.append(1, 0, k[:, 4:6], v[:, 4:6])  # page B0; A0 spills
        assert np.array_equal(_sweep_one(cache, 0), k[:, :3])
        cache.append(0, 0, k[:, 3:4], v[:, 3:4])
        tail = cache._pages[0, 0][1]  # restored, then dirtied: stale slot
        assert tail.buf is not None and tail.dirty and \
            tail.slot is not None and not cache._free_slots
        assert np.array_equal(_sweep_one(cache, 1), k[:, 4:6])
        cache.append(1, 0, k[:, 6:8], v[:, 6:8])  # B1: B0 needs a slot
        assert tail.slot is None and tail.dirty
        _check_accounting(cache, spill_pages)
        assert sum(len(run) for run in cache._pages.values()) == 4
        with pytest.raises(KVCacheFull, match="out of slots"):
            cache.append(2, 0, *_kv(rng, 1))
        assert 2 not in cache.sessions()
        _check_accounting(cache, spill_pages)
        cache.release(1 - survivor)
        lo = 4 * survivor
        assert np.array_equal(_sweep_one(cache, survivor), k[:, lo:lo + 4])
        cache.release(survivor)
        assert sorted(cache._free_slots) == list(range(spill_pages))
        assert cache.resident_pages == 0


def test_slot_reclaimed_from_landed_read_ahead(tmp_path):
    """The only resident slot holder is a page still being read ahead:
    the read is landed, not abandoned, before its slot is taken."""
    rng = np.random.default_rng(11)
    k, v = _kv(rng, 5)
    with PagedKVCache(
        1, HEADS, DIM, page_tokens=1, max_pages=3,
        spill=str(tmp_path / "kv"), spill_pages=1,
    ) as cache:
        for session in range(3):
            cache.append(session, 0, k[:, session:session + 1],
                         v[:, session:session + 1])
        cache.append(2, 0, k[:, 3:4], v[:, 3:4])  # session 0 spills
        cache.release(1)
        assert np.array_equal(_sweep_one(cache, 2), k[:, 2:4])
        ahead, = cache._pages[0, 0]
        assert ahead.pending is not None and not cache._free_slots
        cache.append(3, 0, k[:, 4:5], v[:, 4:5])
        assert ahead.pending is None and ahead.slot is None and ahead.dirty
        _check_accounting(cache, 1)
        assert np.array_equal(_sweep_one(cache, 0), k[:, 0:1])
        cache.release(3)
        assert np.array_equal(_sweep_one(cache, 2), k[:, 2:4])


def test_view_larger_than_the_budget_is_refused(tmp_path):
    rng = np.random.default_rng(13)
    with PagedKVCache(
        1, HEADS, DIM, page_tokens=1, max_pages=2,
        spill=str(tmp_path / "kv"),
    ) as cache:
        cache.append(0, 0, *_kv(rng, 3))
        with pytest.raises(KVCacheFull, match="pinned"):
            cache.view(0, 0)  # pins the whole run
        _check_accounting(cache, 8)


# -- fault injection on the read-ahead path --------------------------------


@contextmanager
def _failing_pread(cache, nth, mode):
    """Make the ``nth`` low-level read on the arena's read stream fail
    from now: ``eio`` raises before touching the buffer, ``short`` fills
    half and reports a short read.  The write stream's sector
    read-modify-write goes through untouched.  Yields the reads seen."""
    arena, real = cache._arena, cache._arena._pread_exact
    seen = []

    def shim(fd, stage, at, name):
        if threading.current_thread().name != "spill-read":
            return real(fd, stage, at, name)
        seen.append(at)
        if len(seen) - 1 == nth:
            if mode == "eio":
                raise OSError(errno.EIO, "injected read error")
            real(fd, stage[: stage.nbytes // 2], at, name)
            raise OSError(f"short read on plane {name!r} (injected)")
        real(fd, stage, at, name)

    arena._pread_exact = shim
    try:
        yield seen
    finally:
        del arena._pread_exact


def _spilling_cache(tmp_path, rng, telemetry=None):
    """Three 4-page runs on a 6-page budget, swept once so the visit
    order is established, plus the histories that went in."""
    kwargs = {"telemetry": telemetry} if telemetry is not None else {}
    cache = PagedKVCache(
        1, HEADS, DIM, page_tokens=2, max_pages=6,
        spill=str(tmp_path), **kwargs,
    )
    data = {}
    for session in range(3):
        data[session] = _kv(rng, 8)
        cache.append(session, 0, *data[session])
    for session in range(3):
        for _ in cache.iter_pages(session, 0):
            pass
    return cache, data


def _sweep(cache, data):
    """One sweep; returns the sessions whose read raised OSError, having
    checked that the failure left their unread pages on disk."""
    failed = []
    for session, (k, _) in data.items():
        try:
            got = _sweep_one(cache, session)
        except OSError:
            failed.append(session)
            assert any(p.buf is None and p.slot is not None
                       for p in cache._pages[session, 0])
            _check_accounting(cache, 24)
        else:
            assert np.array_equal(got, k)
    return failed


@given(
    nth=st.integers(0, 11),
    mode=st.sampled_from(["eio", "short"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_failed_restore_fails_one_read_and_retries(
    tmp_path_factory, nth, mode, seed
):
    rng = np.random.default_rng(seed)
    cache, data = _spilling_cache(tmp_path_factory.mktemp("kv"), rng)
    with cache:
        with _failing_pread(cache, nth, mode) as seen:
            # Two sweeps: a read-ahead issued at the end of the first is
            # consumed by the second.
            failed = _sweep(cache, data) + _sweep(cache, data)
            cache._arena.drain()
        # The fault hit exactly one consumer; everyone else, and the
        # same session the next time round, read their exact bytes back.
        assert len(seen) > nth and len(failed) == 1
        _check_accounting(cache, 24)
        assert _sweep(cache, data) == []
        _check_accounting(cache, 24)


def test_read_ahead_error_surfaces_at_the_consumer(tmp_path):
    """The read that fails is issued while session 0 is swept, but it is
    session 1's ``iter_pages`` that raises."""
    rng = np.random.default_rng(9)
    telemetry = Telemetry()
    counter = telemetry.metrics.counter
    cache, data = _spilling_cache(tmp_path, rng, telemetry)
    with cache:
        # Session 0 was read ahead by the last sweep; session 1 is on disk.
        assert all(p.buf is not None for p in cache._pages[0, 0])
        assert all(p.buf is None for p in cache._pages[1, 0])
        cache._arena.drain()
        with _failing_pread(cache, 0, "eio") as seen:
            for _ in cache.iter_pages(0, 0):  # reads session 1 ahead
                pass
            in_flight = [p for p in cache._pages[1, 0]
                         if p.pending is not None]
            assert in_flight
            restored = counter("kv_pages_restored").value
            with pytest.raises(OSError, match="injected"):
                next(cache.iter_pages(1, 0))
            assert seen
        assert counter("kv_pages_restored").value == restored
        assert all(p.buf is None and p.slot is not None and
                   p.pending is None for p in in_flight)
        _check_accounting(cache, 24)
        assert _sweep(cache, data) == []


def test_release_waits_for_a_read_in_flight(tmp_path):
    """Retiring a session whose read-ahead is still running must not
    recycle the buffer under the reader."""
    rng = np.random.default_rng(10)
    telemetry = Telemetry()
    cache, data = _spilling_cache(tmp_path, rng, telemetry)
    with cache:
        arena, real = cache._arena, cache._arena._pread_exact
        started, gate = threading.Event(), threading.Event()

        def slow(fd, stage, at, name):
            if threading.current_thread().name == "spill-read":
                started.set()
                assert gate.wait(10)
            real(fd, stage, at, name)

        arena.drain()
        arena._pread_exact = slow
        try:
            for _ in cache.iter_pages(0, 0):  # reads session 1 ahead
                pass
            assert started.wait(10)
            pending = [p for p in cache._pages[1, 0] if p.pending]
            assert pending and not pending[0].pending[0].done
            opener = threading.Timer(0.05, gate.set)
            opener.start()
            cache.release(1)
            opener.join(10)
            assert gate.is_set() and not opener.is_alive()
            assert telemetry.metrics.counter(
                "kv_readahead_waits").value >= 1
        finally:
            gate.set()
            del arena._pread_exact
        assert all(p.buf is None and p.pending is None for p in pending)
        _check_accounting(cache, 24)
        del data[1]
        assert _sweep(cache, data) == []


@pytest.mark.parametrize("read_fails", [False, True])
def test_unconsumed_read_ahead_gives_way_to_a_pinned_view(
    tmp_path, read_fails
):
    """When everything else is pinned, a read-ahead nobody consumed yet
    is landed and evicted (or, if it failed, just dropped) rather than
    failing a caller that never asked for those bytes."""
    rng = np.random.default_rng(12)
    k, v = _kv(rng, 5)
    with PagedKVCache(
        1, HEADS, DIM, page_tokens=1, max_pages=2,
        spill=str(tmp_path / "kv"),
    ) as cache:
        cache.append(0, 0, k[:, :1], v[:, :1])
        cache.append(1, 0, k[:, 1:3], v[:, 1:3])  # session 0 spills
        cache.release(1)
        with _failing_pread(cache, 0 if read_fails else -1, "eio"):
            cache.append(2, 0, k[:, 3:4], v[:, 3:4])  # reads 0 ahead
            ahead, = cache._pages[0, 0]
            assert ahead.pending is not None
            cache.append(2, 0, k[:, 4:5], v[:, 4:5])
            assert ahead.pending is not None
            views = cache.view(2, 0)  # pins both pages it needs
        assert np.array_equal(
            np.concatenate([pk for pk, _ in views], axis=1), k[:, 3:5])
        assert ahead.buf is None and ahead.pending is None
        _check_accounting(cache, 8)
        assert np.array_equal(_sweep_one(cache, 0), k[:, :1])


@pytest.mark.parametrize("nth", [0, 3])
def test_failed_eviction_write_loses_nothing(tmp_path, nth):
    """A write error while evicting — on demand or to make room for a
    read-ahead — fails that one call: the victim stays resident and
    dirty, no buffer is stranded, and every history reads back."""
    rng = np.random.default_rng(14)
    cache, data = _spilling_cache(tmp_path, rng)
    with cache:
        arena, real = cache._arena, cache._arena._pwrite_exact
        calls = itertools.count()

        def shim(fd, stage, at, name):
            if next(calls) == nth:
                raise OSError(errno.EIO, "injected write error")
            real(fd, stage, at, name)

        arena._pwrite_exact = shim
        errors = 0
        try:
            for _ in range(3):  # decode steps: tails get dirty
                for session in data:
                    k, v = data[session]
                    nk, nv = _kv(rng, 1)
                    try:
                        cache.append(session, 0, nk, nv)
                    except OSError:
                        errors += 1  # rolled back: nothing was appended
                    else:
                        data[session] = (np.concatenate([k, nk], axis=1),
                                         np.concatenate([v, nv], axis=1))
                    _check_accounting(cache, 24)
                    try:
                        got = _sweep_one(cache, session)
                    except OSError:
                        errors += 1
                    else:
                        assert np.array_equal(got, data[session][0])
                    _check_accounting(cache, 24)
        finally:
            del arena._pwrite_exact
        assert errors == 1
        assert _sweep(cache, data) == []
