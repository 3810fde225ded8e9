"""Tests for bf16 training mode."""

import numpy as np
import pytest

from repro.core import SuperOffloadConfig, init
from repro.core.stv import STVEngine, SynchronousEngine
from repro.numeric.transformer import TinyTransformer
from repro.optim import AdamConfig, GraceAdam
from repro.optim.mixed_precision import MixedPrecisionState, lower_precision


class TestLowerPrecision:
    def test_fp16_route(self, rng):
        x = rng.standard_normal(8).astype(np.float32)
        y = lower_precision(x, "fp16")
        assert y.dtype == np.float32
        np.testing.assert_array_equal(
            y.view(np.uint32),
            x.astype(np.float16).astype(np.float32).view(np.uint32))

    def test_bf16_keeps_fp32_storage_and_range(self):
        x = np.array([1e38], dtype=np.float32)
        y = lower_precision(x, "bf16")
        assert y.dtype == np.float32
        assert np.isfinite(y).all()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            lower_precision(np.zeros(1, np.float32), "fp8")


class TestBF16Engine:
    def test_no_loss_scaling_by_default(self, tiny_spec):
        engine = init(TinyTransformer(tiny_spec),
                      SuperOffloadConfig(precision="bf16"))
        assert engine.loss_scale == 1.0

    def test_trains_and_converges(self, tiny_spec, tiny_batches):
        engine = init(
            TinyTransformer(tiny_spec, seed=3),
            SuperOffloadConfig(precision="bf16", clip_norm=None,
                               adam=AdamConfig(lr=5e-3)),
        )
        losses = [engine.train_step(ids, tg).loss for ids, tg in tiny_batches]
        assert np.mean(losses[-4:]) < np.mean(losses[:4])

    def test_no_overflow_where_fp16_overflows(self, tiny_spec, tiny_batches):
        """bf16's headline property: the spike that overflows fp16 at high
        scale passes through bf16 (it keeps fp32's exponent range)."""
        def one_step(precision):
            engine = init(
                TinyTransformer(tiny_spec, seed=3),
                SuperOffloadConfig(precision=precision, clip_norm=None),
            )
            engine._inner.grad_injection = 1e6
            report = engine.train_step(*tiny_batches[0])
            engine._inner.grad_injection = 1.0
            return report

        assert one_step("fp16").overflow
        assert not one_step("bf16").overflow

    def test_stv_equals_ste_in_bf16(self, tiny_spec, tiny_batches):
        results = {}
        for stv in (True, False):
            model = TinyTransformer(tiny_spec, seed=5)
            engine = init(model, SuperOffloadConfig(
                precision="bf16", stv=stv, clip_norm=0.9))
            for ids, tg in tiny_batches[:8]:
                engine.train_step(ids, tg)
            results[stv] = model.params
        for k in results[True]:
            np.testing.assert_array_equal(results[True][k], results[False][k])

    def test_mp_state_drift_bound(self, rng):
        master = {"w": (rng.standard_normal(64) * 100).astype(np.float32)}
        mp = MixedPrecisionState(master_fp32=master, low_dtype="bf16")
        assert mp.drift() <= np.abs(master["w"]).max() * 2**-7

    def test_invalid_precision_rejected(self, tiny_spec):
        with pytest.raises(ValueError):
            SuperOffloadConfig(precision="fp8")
        model = TinyTransformer(tiny_spec)
        with pytest.raises(ValueError):
            STVEngine(model, GraceAdam(model.params), precision="int8")
