"""Tests for the Fig. 14 numeric training run (loss curve + rollbacks)."""

import numpy as np
import pytest

from repro.core.engine import SuperOffloadConfig
from repro.training import InstabilityInjector, STVTrainer


@pytest.fixture(scope="module")
def record():
    trainer = STVTrainer(
        batch=4,
        injector=InstabilityInjector(
            warmup_iters=30, spike_probability=0.5, spike_scale=100.0,
            overflow_probability=0.2, seed=0,
        ),
        seed=1,
    )
    return trainer.run(120)


class TestFig14Dynamics:
    def test_loss_decreases(self, record):
        first = np.mean(record.losses[:10])
        last = np.mean(record.losses[-10:])
        assert last < first - 0.1

    def test_rollbacks_concentrated_in_warmup(self, record):
        """Fig. 14: frequent rollbacks before stabilization, rare after."""
        early = record.rollback_rate(0, 30)
        late = record.rollback_rate(30)
        assert early > 0.15
        assert late < early / 2

    def test_both_rollback_scenarios_exercised(self, record):
        assert record.clip_iterations, "no clipping rollbacks occurred"
        assert record.overflow_iterations, "no overflow skips occurred"

    def test_event_indices_within_range(self, record):
        for i in record.rollback_iterations:
            assert 0 <= i < record.n_iterations


class TestTrainerBehaviour:
    def test_clean_run_has_no_rollbacks(self):
        trainer = STVTrainer(batch=4, injector=None, seed=2,
                             config=SuperOffloadConfig(clip_norm=100.0))
        record = trainer.run(20)
        assert not record.rollback_iterations

    def test_deterministic_given_seed(self):
        def losses():
            t = STVTrainer(
                batch=4, seed=3,
                injector=InstabilityInjector(warmup_iters=10, seed=4),
            )
            return t.run(15).losses

        assert losses() == losses()

    def test_stv_and_ste_runs_identical(self):
        """Fig. 14's premise: STV preserves the training trajectory exactly
        even under injected instability."""
        def run(stv):
            trainer = STVTrainer(
                batch=4, seed=5,
                config=SuperOffloadConfig(stv=stv, clip_norm=0.9),
                injector=InstabilityInjector(
                    warmup_iters=15, spike_probability=0.6, seed=6
                ),
            )
            record = trainer.run(40)
            return record, trainer

        rec_stv, t_stv = run(True)
        rec_ste, t_ste = run(False)
        assert rec_stv.losses == rec_ste.losses
        for k in t_stv.model.params:
            np.testing.assert_array_equal(
                t_stv.model.params[k], t_ste.model.params[k]
            )
        # ... but only STV actually rolled back (STE never speculates)
        assert rec_stv.rollback_iterations
        assert not rec_ste.rollback_iterations

    def test_rollback_rate_bounds(self, record):
        assert record.rollback_rate(0, 0) == 0.0
        assert 0 <= record.rollback_rate() <= 1

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            STVTrainer(batch=2).run(0)

    def test_attn_backend_accepts_only_streaming(self):
        """The keyword is a shim for the run-level benchmark: streaming is
        the only core, and asking for dense points at the oracle."""
        with pytest.raises(ValueError, match="repro.reference"):
            STVTrainer(batch=2, attn_backend="dense")
        record = STVTrainer(batch=2, attn_backend="streaming").run(2)
        assert all(np.isfinite(record.losses))
