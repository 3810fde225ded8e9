"""ActivationWorkspace: reuse, lifetime protocol, and telemetry."""

import numpy as np
import pytest

from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.telemetry import Telemetry
from repro.tensors.workspace import ActivationWorkspace, take_like
from tests.dense_oracle import use_dense_reference


class TestTakeGive:
    def test_take_allocates_then_reuses(self):
        ws = ActivationWorkspace()
        a = ws.take((4, 8))
        assert a.shape == (4, 8) and a.dtype == np.float32
        assert ws.alloc_count == 1 and ws.reuse_count == 0
        ws.give(a)
        b = ws.take((4, 8))
        assert b is a
        assert ws.alloc_count == 1 and ws.reuse_count == 1

    def test_outstanding_takes_never_alias(self):
        ws = ActivationWorkspace()
        a = ws.take((3, 3))
        b = ws.take((3, 3))
        assert a is not b
        assert not np.shares_memory(a, b)

    def test_keys_split_by_shape_and_dtype(self):
        ws = ActivationWorkspace()
        a = ws.take((2, 2), np.float32)
        ws.give(a)
        b = ws.take((2, 2), np.float64)
        assert b is not a
        c = ws.take((4,), np.float32)
        assert c is not a
        assert ws.take((2, 2), np.float32) is a

    def test_give_foreign_buffer_is_ignored(self):
        ws = ActivationWorkspace()
        foreign = np.zeros((5,), dtype=np.float32)
        ws.give(foreign)  # no throw, no adoption
        assert ws.take((5,), np.float32) is not foreign

    def test_double_give_does_not_duplicate(self):
        ws = ActivationWorkspace()
        a = ws.take((2,))
        ws.give(a)
        ws.give(a)  # second give is a no-op: not live anymore
        b = ws.take((2,))
        c = ws.take((2,))
        assert b is a and c is not a


class TestNewStep:
    def test_new_step_recycles_outstanding(self):
        ws = ActivationWorkspace()
        a = ws.take((8,))
        ws.new_step()
        assert ws.take((8,)) is a
        assert ws.alloc_count == 1

    def test_steady_state_allocations_zero(self):
        """After one warm-up step, a fixed-shape step allocates nothing."""
        ws = ActivationWorkspace()
        shapes = [(4, 16), (4, 16), (4, 1), (16,), (4, 16)]

        def step():
            ws.new_step()
            held = [ws.take(s) for s in shapes]
            ws.give(held[0])
            held.append(ws.take(shapes[0]))

        step()
        warm = ws.alloc_count
        for _ in range(5):
            step()
        assert ws.alloc_count == warm
        assert ws.reuse_count > 0

    def test_live_and_pooled_bytes(self):
        ws = ActivationWorkspace()
        a = ws.take((1024,))  # 4096 bytes
        assert ws.live_bytes == 4096
        assert ws.pooled_bytes == 0
        ws.give(a)
        assert ws.live_bytes == 0
        assert ws.pooled_bytes == 4096
        assert ws.peak_bytes == ws.total_bytes == 4096


class TestTelemetry:
    def test_counters_and_peak_gauge(self):
        telemetry = Telemetry()
        ws = ActivationWorkspace(telemetry=telemetry)
        a = ws.take((256,))
        ws.give(a)
        ws.take((256,))
        allocated = telemetry.metrics.counter("workspace_bytes_allocated")
        reused = telemetry.metrics.counter("workspace_bytes_reused")
        peak = telemetry.metrics.gauge("workspace_peak_bytes")
        assert allocated.value == 1024
        assert reused.value == 1024
        assert peak.value == 1024


class TestTakeLike:
    def test_with_and_without_workspace(self):
        plain = take_like(None, (3, 2), np.float32)
        assert plain.shape == (3, 2)
        ws = ActivationWorkspace()
        backed = take_like(ws, (3, 2), np.float32)
        assert ws.alloc_count == 1
        ws.give(backed)
        assert take_like(ws, (3, 2), np.float32) is backed


class TestModelStepIntegration:
    @pytest.mark.parametrize("core", ["dense", "streaming"])
    def test_model_steady_state_allocations_zero(self, rng, core):
        """The acceptance property: a full transformer loss_and_grads
        allocates zero workspace buffers once shapes have been seen —
        over the streaming core and over the dense reference oracle."""
        spec = TransformerParams(
            vocab=48, max_seq=16, hidden=16, n_layers=2, n_heads=2
        )
        ws = ActivationWorkspace()
        model = TinyTransformer(
            spec, seed=0, workspace=ws, block_q=8, block_k=8,
        )
        if core == "dense":
            use_dense_reference(model)
        ids = rng.integers(0, spec.vocab, size=(2, 16))
        targets = rng.integers(0, spec.vocab, size=(2, 16))
        model.loss_and_grads(ids, targets)  # warm-up allocates
        warm_allocs = ws.alloc_count
        assert warm_allocs > 0
        for _ in range(3):
            model.loss_and_grads(ids, targets)
        assert ws.alloc_count == warm_allocs
        assert ws.peak_bytes == ws.total_bytes

    def test_gradients_are_never_workspace_backed(self, rng):
        """Param gradients outlive the step (DP accumulates them across
        ranks), so they must not come from the recycled pool."""
        spec = TransformerParams(
            vocab=32, max_seq=8, hidden=16, n_layers=1, n_heads=2
        )
        ws = ActivationWorkspace()
        model = TinyTransformer(spec, seed=0, workspace=ws)
        ids = rng.integers(0, spec.vocab, size=(1, 8))
        targets = rng.integers(0, spec.vocab, size=(1, 8))
        _, grads = model.loss_and_grads(ids, targets)
        snapshot = {k: g.copy() for k, g in grads.items()}
        # next step recycles every workspace buffer and overwrites them
        model.loss_and_grads(ids, targets)
        for key, g in grads.items():
            assert np.array_equal(g, snapshot[key]), key
