"""``backward(grads_out=...)``: parameter gradients written straight into
caller-owned buffers (a gradient arena's views) are the fresh-allocation
gradients bit for bit, and every element of every buffer is overwritten
— stale values from the previous step can never leak into the reduce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.numeric import TinyTransformer, TransformerParams
from repro.tensors.arena import FlatArena
from repro.tensors.workspace import ActivationWorkspace

SPEC = TransformerParams(vocab=53, max_seq=24, hidden=16, n_layers=2,
                         n_heads=4)
WORLD = 4  # 53*16 + ... leaves a non-empty pad region at world 4


def _model(backend, workspace):
    return TinyTransformer(
        SPEC, seed=2, attn_backend=backend,
        workspace=ActivationWorkspace() if workspace else None,
    )


def _grad_arena(model):
    arena = FlatArena.zeros(
        {k: v.shape for k, v in model.params.items()}, WORLD)
    assert arena.layout.total > arena.layout.unpadded
    return arena


def _batch(rng, batch, seq):
    return (rng.integers(0, SPEC.vocab, size=(batch, seq)),
            rng.integers(0, SPEC.vocab, size=(batch, seq)))


@pytest.mark.parametrize("workspace", [False, True])
@pytest.mark.parametrize("backend", ["dense", "streaming"])
class TestGradsOut:
    @given(batch=st.integers(min_value=1, max_value=4),
           seq=st.integers(min_value=1, max_value=SPEC.max_seq),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=12, deadline=None)
    def test_bitwise_equal_to_fresh_allocation(self, backend, workspace,
                                               batch, seq, seed):
        model = _model(backend, workspace)
        ids, targets = _batch(np.random.default_rng(seed), batch, seq)
        loss, fresh = model.loss_and_grads(ids, targets)
        fresh = {k: g.copy() for k, g in fresh.items()}
        arena = _grad_arena(model)
        loss_into, grads = model.loss_and_grads(ids, targets,
                                                grads_out=arena.views)
        assert loss_into == loss
        assert grads is arena.views
        for name, g in fresh.items():
            np.testing.assert_array_equal(arena.views[name], g)

    def test_every_element_overwritten_padding_untouched(self, backend,
                                                         workspace):
        """Poison the arena, run a *short* sequence over a *few* tokens:
        ``pos_emb[s:]`` and the ``tok_emb`` rows no token hit must come
        back exactly zero, not NaN, and the world-size padding (no
        tensor's storage) must not be written at all."""
        model = _model(backend, workspace)
        arena = _grad_arena(model)
        n = arena.layout.unpadded
        arena.flat[:n] = np.nan
        seq = 5
        ids = np.array([[1, 2, 3, 1, 2]])
        model.loss_and_grads(ids, ids, grads_out=arena.views)
        assert np.isfinite(arena.flat[:n]).all()
        np.testing.assert_array_equal(arena.views["pos_emb"][seq:], 0.0)
        untouched = np.setdiff1d(np.arange(SPEC.vocab), ids.ravel())
        np.testing.assert_array_equal(
            arena.views["tok_emb"][untouched], 0.0)
        assert np.abs(arena.views["tok_emb"][ids.ravel()]).max() > 0
        np.testing.assert_array_equal(arena.flat[n:], 0.0)

    def test_reused_buffers_forget_the_previous_step(self, backend,
                                                     workspace):
        model = _model(backend, workspace)
        arena = _grad_arena(model)
        rng = np.random.default_rng(3)
        model.loss_and_grads(*_batch(rng, 3, SPEC.max_seq),
                             grads_out=arena.views)
        ids, targets = _batch(rng, 2, 7)
        model.loss_and_grads(ids, targets, grads_out=arena.views)
        _, fresh = model.loss_and_grads(ids, targets)
        for name, g in fresh.items():
            np.testing.assert_array_equal(arena.views[name], g)


def test_missing_buffer_is_an_error():
    model = _model("dense", False)
    views = dict(_grad_arena(model).views)
    del views["h1.fc1.b"]
    with pytest.raises(KeyError):
        model.loss_and_grads(*_batch(np.random.default_rng(0), 1, 4),
                             grads_out=views)
