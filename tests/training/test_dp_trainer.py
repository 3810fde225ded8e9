"""Tests for numeric data-parallel training (§4.7)."""

import numpy as np
import pytest

from repro.numeric.transformer import TransformerParams
from repro.optim.adam import AdamConfig
from repro.training.dp_trainer import DataParallelTrainer


@pytest.fixture
def spec():
    return TransformerParams(vocab=67, max_seq=12, hidden=16, n_layers=2,
                             n_heads=4)


def batches(spec, n, batch=8, seed=11):
    from repro.data import SyntheticPile

    pile = SyntheticPile(spec.vocab, seed=seed)
    gen = pile.batches(batch, spec.max_seq)
    return [next(gen) for _ in range(n)]


class TestDPEquivalence:
    @pytest.mark.parametrize("world", [2, 4])
    def test_matches_single_rank_training(self, spec, world):
        data = batches(spec, 6)
        single = DataParallelTrainer(spec, 1, adam=AdamConfig(lr=5e-3), seed=3)
        multi = DataParallelTrainer(spec, world, adam=AdamConfig(lr=5e-3),
                                    seed=3)
        for ids, tg in data:
            r1 = single.train_step(ids, tg)
            rn = multi.train_step(ids, tg)
            assert r1.loss == pytest.approx(rn.loss, abs=1e-5)
        for k in single.model.params:
            np.testing.assert_allclose(
                single.model.params[k], multi.model.params[k], atol=1e-5
            )

    def test_clipping_consistent_across_worlds(self, spec):
        data = batches(spec, 5)
        single = DataParallelTrainer(spec, 1, adam=AdamConfig(lr=5e-3),
                                     clip_norm=0.5, seed=3)
        multi = DataParallelTrainer(spec, 4, adam=AdamConfig(lr=5e-3),
                                    clip_norm=0.5, seed=3)
        clip_single = [single.train_step(*b).clipped for b in data]
        clip_multi = [multi.train_step(*b).clipped for b in data]
        assert clip_single == clip_multi
        assert any(clip_single)  # threshold tight enough to trigger
        for k in single.model.params:
            np.testing.assert_allclose(
                single.model.params[k], multi.model.params[k], atol=1e-5
            )


class TestDPBehaviour:
    def test_training_reduces_loss(self, spec):
        trainer = DataParallelTrainer(spec, 2, adam=AdamConfig(lr=5e-3),
                                      seed=0)
        reports = trainer.train(30, batch=8, seed=4)
        assert np.mean([r.loss for r in reports[-5:]]) < np.mean(
            [r.loss for r in reports[:5]]
        )

    def test_batch_must_divide(self, spec):
        trainer = DataParallelTrainer(spec, 4)
        ids = np.zeros((6, spec.max_seq), dtype=np.int64)
        with pytest.raises(ValueError):
            trainer.train_step(ids, ids)

    def test_iteration_counter(self, spec):
        trainer = DataParallelTrainer(spec, 2)
        trainer.train(3, batch=4)
        assert trainer.iteration == 3

    def test_invalid_world(self, spec):
        with pytest.raises(ValueError):
            DataParallelTrainer(spec, 0)

    def test_fp16_copy_tracks_master(self, spec):
        trainer = DataParallelTrainer(spec, 2, adam=AdamConfig(lr=5e-3))
        trainer.train(2, batch=4)
        for k, master in trainer.model.params.items():
            copy = trainer._model_copy[k]
            assert copy.dtype == np.float32
            np.testing.assert_array_equal(
                copy.view(np.uint32),
                master.astype(np.float16).astype(np.float32)
                .view(np.uint32))
            drift = np.abs(master - copy).max()
            assert drift <= np.abs(master).max() * 2**-10 + 1e-6
