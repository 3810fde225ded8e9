"""Self time on synthetic spans, and wrappers that install and leave."""

import threading
import types

import pytest

from bench import trace
from bench.trace import Recorder, Target, make_span


def test_nested_self_times_sum_to_the_root():
    root = make_span("op", "bench", 0.0, 10.0)
    step = make_span("step", "training", 1.0, 9.0, parent=root)
    fwd = make_span("fwd", "numeric", 2.0, 6.0, parent=step)
    attn = make_span("attn", "numeric", 3.0, 5.0, parent=fwd)
    adam = make_span("adam", "optim", 6.0, 8.0, parent=step)
    spans = [root, step, fwd, attn, adam]
    assert trace.self_times(spans) == [2.0, 2.0, 2.0, 2.0, 2.0]
    totals = trace.layer_self_totals(spans)
    assert totals == {"bench": 2.0, "training": 2.0, "numeric": 4.0,
                      "optim": 2.0}
    assert sum(totals.values()) == trace.duration(root)


def test_threads_account_separately():
    main = make_span("op", "bench", 0.0, 4.0, tid=1)
    wait = make_span("pool_run", "exec", 1.0, 3.0, parent=main, tid=1)
    # Worker spans overlap the caller's wait but have no parent there.
    w1 = make_span("adam_chunk", "optim", 1.0, 2.5, tid=2)
    w2 = make_span("adam_chunk", "optim", 1.2, 2.9, tid=3)
    spans = [main, wait, w1, w2]
    assert trace.layer_self_totals(spans, tid=1) == {"bench": 2.0,
                                                     "exec": 2.0}
    assert trace.layer_self_totals(spans, tid=2) == {"optim": 1.5}
    # Per thread, children sum to the parent; across threads they do not.
    assert sum(trace.layer_self_totals(spans, tid=1).values()) == 4.0
    assert sum(trace.layer_self_totals(spans).values()) > 4.0


def test_outermost_counts_nested_calls_once():
    run = make_span("run", "exec", 0.0, 5.0)
    result = make_span("result", "exec", 1.0, 2.0, parent=run)
    other = make_span("qmatmul", "exec", 2.0, 3.0, parent=run)
    lone = make_span("result", "exec", 6.0, 7.0)
    picked = trace.outermost([run, result, other, lone], {"run", "result"})
    assert picked == [run, lone]


def test_in_window_keeps_whole_spans_only():
    spans = [make_span("a", "x", 0.0, 1.0), make_span("b", "x", 1.0, 2.0),
             make_span("c", "x", 1.5, 3.5)]
    assert trace.in_window(spans, 1.0, 3.0) == [spans[1]]


class _Engine:
    def step(self, x):
        return helper(x) + 1

    @classmethod
    def pack(cls, x):
        return x * 2


def helper(x):
    return x * 10


@pytest.fixture
def fake_module(monkeypatch):
    """A stand-in for a ``repro`` module plus one that imported from it."""
    import sys

    mod = types.ModuleType("repro_fake")
    mod.Engine, mod.helper = _Engine, helper
    user = types.ModuleType("repro_fake_user")
    user.helper = helper                      # ``from repro_fake import``
    monkeypatch.setitem(sys.modules, "repro_fake", mod)
    monkeypatch.setitem(sys.modules, "repro_fake_user", user)
    return mod, user


TARGETS = (
    Target("core", "core.step", "repro_fake", "Engine.step",
           value=lambda a, k, r: r, bumps_op=True),
    Target("numeric", "numeric.pack", "repro_fake", "Engine.pack"),
    Target("exec", "exec.helper", "repro_fake", "helper"),
)


def test_wrappers_record_parents_and_leave_no_trace(fake_module):
    mod, user = fake_module
    original_step = _Engine.__dict__["step"]
    rec = Recorder()
    rec.install(TARGETS)
    try:
        assert user.helper is not helper      # patched where imported too
        assert _Engine().step(2) == 21
        assert _Engine.pack(4) == 8
    finally:
        rec.uninstall()
    assert _Engine.__dict__["step"] is original_step
    assert isinstance(_Engine.__dict__["pack"], classmethod)
    assert mod.helper is helper and user.helper is helper
    names = [s[trace.NAME] for s in rec.spans]
    assert names == ["core.step", "numeric.pack"]   # helper is a global
    step_span = rec.spans[0]
    assert step_span[trace.VALUE] == 21 and step_span[trace.OP] == 0
    assert _Engine().step(1) == 11 and len(rec.spans) == 2  # uninstalled


def test_spans_nest_per_thread(fake_module):
    mod, _ = fake_module
    rec = Recorder()
    rec.install([Target("exec", "exec.helper", "repro_fake", "helper")])

    def work():
        with rec.span("bench.op"):
            mod.helper(1)

    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        rec.uninstall()
    roots = [s for s in rec.spans if s[trace.NAME] == "bench.op"]
    calls = [s for s in rec.spans if s[trace.NAME] == "exec.helper"]
    assert len(roots) == len(calls) == 4
    for call in calls:
        parent = call[trace.PARENT]
        assert parent in roots and parent[trace.TID] == call[trace.TID]
    for tid in {s[trace.TID] for s in roots}:
        own = [s for s in rec.spans if s[trace.TID] == tid]
        assert sum(trace.layer_self_totals(own).values()) == pytest.approx(
            sum(trace.duration(s) for s in own if s[trace.PARENT] is None))


def test_every_target_resolves_in_the_program():
    """The table names real public callables (a rename must fail here,
    not silently drop a layer from the roll-up)."""
    rec = Recorder()
    rec.install()
    try:
        patched = {(owner.__name__, attr) for owner, attr, _ in rec._undo}
    finally:
        rec.uninstall()
    for t in trace.TARGETS:
        owner_attr = tuple(t.qualname.split(".")) if "." in t.qualname \
            else None
        if owner_attr:
            assert owner_attr in patched, t
        else:
            assert any(attr == t.qualname for _, attr in patched), t
