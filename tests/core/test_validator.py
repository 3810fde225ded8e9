"""Tests for the background validation worker (§4.4's validation process)."""

import numpy as np
import pytest

from repro.core.stv import STVEngine, SynchronousEngine
from repro.core.validator import BackgroundValidator
from repro.numeric.transformer import TinyTransformer
from repro.optim import AdamConfig, GraceAdam, LossScaler, grad_sumsq


def sums(g):
    """The job the engines submit for one gradient tensor ``g``."""
    return [grad_sumsq(np.asarray(g, dtype=np.float32))]


class TestBackgroundValidator:
    def test_healthy_verdict(self):
        with BackgroundValidator() as v:
            ticket = v.submit(sums(np.ones(8)), 100.0)
            health = ticket.result(timeout=5)
        assert health.speculation_valid

    def test_overflow_verdict(self):
        with BackgroundValidator() as v:
            health = v.submit(sums([np.inf]), None).result(timeout=5)
        assert health.has_nan_or_inf

    def test_clip_verdict(self):
        with BackgroundValidator() as v:
            health = v.submit(sums(np.full(100, 5.0)), 1.0).result(timeout=5)
        assert health.clip_triggered

    def test_multiple_jobs_in_order(self):
        with BackgroundValidator() as v:
            tickets = [
                v.submit(sums(np.full(4, float(i))), None)
                for i in range(1, 6)
            ]
            norms = [t.result(timeout=5).global_norm for t in tickets]
        assert norms == sorted(norms)
        assert norms[0] == pytest.approx(2.0)  # ||(1,1,1,1)||

    def test_submit_after_close_rejected(self):
        v = BackgroundValidator()
        v.close()
        with pytest.raises(RuntimeError):
            v.submit(sums(np.ones(1)), None)

    def test_close_idempotent(self):
        v = BackgroundValidator()
        v.close()
        v.close()

    def test_done_polling(self):
        with BackgroundValidator() as v:
            ticket = v.submit(sums(np.ones(2)), None)
            ticket.result(timeout=5)
            assert ticket.done()


class TestEngineIntegration:
    def test_background_validation_identical_results(self, tiny_spec,
                                                     tiny_batches):
        def run(background):
            model = TinyTransformer(tiny_spec, seed=7)
            opt = GraceAdam(model.params, AdamConfig(lr=3e-3))
            engine = STVEngine(
                model, opt, clip_norm=0.9,
                loss_scaler=LossScaler(init_scale=2.0**14),
                background_validation=background,
            )
            for ids, tg in tiny_batches[:10]:
                engine.train_step(ids, tg)
            if engine._validator is not None:
                engine._validator.close()
            return model

    # both paths must be bit-identical — the worker computes the exact
    # same verdict, just on another thread
        m_bg = run(True)
        m_inline = run(False)
        for k in m_bg.params:
            np.testing.assert_array_equal(m_bg.params[k], m_inline.params[k])

    def test_background_matches_synchronous_engine(self, tiny_spec,
                                                   tiny_batches):
        model_bg = TinyTransformer(tiny_spec, seed=3)
        engine_bg = STVEngine(
            model_bg, GraceAdam(model_bg.params, AdamConfig(lr=3e-3)),
            clip_norm=0.9, loss_scaler=LossScaler(init_scale=2.0**14),
            background_validation=True,
        )
        model_ste = TinyTransformer(tiny_spec, seed=3)
        engine_ste = SynchronousEngine(
            model_ste, GraceAdam(model_ste.params, AdamConfig(lr=3e-3)),
            clip_norm=0.9, loss_scaler=LossScaler(init_scale=2.0**14),
        )
        for ids, tg in tiny_batches[:8]:
            engine_bg.train_step(ids, tg)
            engine_ste.train_step(ids, tg)
        engine_bg._validator.close()
        for k in model_bg.params:
            np.testing.assert_array_equal(
                model_bg.params[k], model_ste.params[k]
            )
