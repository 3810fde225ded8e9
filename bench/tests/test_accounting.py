"""``failed_share``: failed operations over attempted ones."""

import pytest

from bench.workloads.base import Context, Window, timed_ops
from bench.workloads.serve import Serve


def test_a_false_or_raising_operation_counts_as_failed(tmp_path, capsys):
    ctx = Context(seed=0, seconds=1, quick=True, out=tmp_path)
    window = Window()

    def op(i):
        if i == 1:
            raise RuntimeError("boom")
        return i != 3

    durations = timed_ops(ctx, window, 5, op)
    assert len(durations) == 5
    assert (window.attempted, window.failed) == (5, 2)
    assert "boom" in capsys.readouterr().err


def _tiny_serve(max_seq):
    return Serve("tiny", "test", max_seq=max_seq, prompt_len=(8, 30),
                 output_len=(4, 4), max_pages=None,
                 requests_per_second=1.0, floor=8)


def test_refused_and_short_sessions_count_as_failed(tmp_path):
    """Prompts that leave no room are refused by ``submit``; prompts that
    leave less than the budget come back short.  Both are failures."""
    workload = _tiny_serve(max_seq=24)
    ctx = Context(seed=1, seconds=1, quick=True, out=tmp_path)
    try:
        workload.build(ctx)
        refused = sum(len(p) >= 24 for p, _ in workload.requests)
        short = sum(20 < len(p) < 24 for p, _ in workload.requests)
        assert refused and refused + short < len(workload.requests)
        window = workload.run(ctx)
        failures = workload.check(ctx, window)
    finally:
        workload.close()
    assert window.attempted == len(workload.requests)
    assert window.failed == refused + short
    assert len(failures) == window.failed


def test_a_corrupted_expected_value_fails_the_check(tmp_path, monkeypatch):
    workload = _tiny_serve(max_seq=64)
    ctx = Context(seed=1, seconds=1, quick=True, out=tmp_path)
    try:
        workload.build(ctx)
        workload.warmup(ctx)
        window = workload.run(ctx)
        assert window.failed == 0 and workload.check(ctx, window) == []
        genuine = workload.expected_tokens

        def corrupted(ctx, index):
            tokens = genuine(ctx, index)
            return tokens[:-1] + [tokens[-1] ^ 1] if index == 0 else tokens

        monkeypatch.setattr(workload, "expected_tokens", corrupted)
        failures = workload.check(ctx, window)
    finally:
        workload.close()
    assert len(failures) == 1 and "session 0 differs" in failures[0]
