"""Tests for loss scaling, gradient health checks, and the master copy."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.optim import (
    GradientHealth,
    LossScaler,
    MixedPrecisionState,
    check_gradients,
    clip_coefficient,
    global_grad_norm,
)


class TestGlobalNorm:
    def test_norm_over_multiple_tensors(self):
        grads = {
            "a": np.array([3.0], dtype=np.float32),
            "b": np.array([4.0], dtype=np.float32),
        }
        assert global_grad_norm(grads) == pytest.approx(5.0)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_norm_scales_linearly(self, s):
        g = {"a": np.arange(5, dtype=np.float32)}
        g2 = {"a": (np.arange(5) * s).astype(np.float32)}
        assert global_grad_norm(g2) == pytest.approx(
            s * global_grad_norm(g), rel=1e-5
        )


class TestCheckGradients:
    def test_healthy(self):
        h = check_gradients({"a": np.ones(3, dtype=np.float32)}, clip_norm=10.0)
        assert h.speculation_valid
        assert not h.has_nan_or_inf and not h.clip_triggered

    def test_nan_detected(self):
        h = check_gradients({"a": np.array([1.0, np.nan])}, clip_norm=10.0)
        assert h.has_nan_or_inf
        assert not h.speculation_valid

    def test_inf_detected(self):
        h = check_gradients({"a": np.array([np.inf])}, clip_norm=None)
        assert h.has_nan_or_inf

    def test_clip_triggered(self):
        h = check_gradients({"a": np.full(100, 10.0)}, clip_norm=1.0)
        assert h.clip_triggered and not h.has_nan_or_inf
        assert not h.speculation_valid

    def test_no_clip_threshold(self):
        h = check_gradients({"a": np.full(100, 10.0)}, clip_norm=None)
        assert h.speculation_valid


class TestClipCoefficient:
    def test_under_threshold_is_identity(self):
        assert clip_coefficient(0.5, 1.0) == 1.0

    def test_over_threshold_rescales(self):
        coef = clip_coefficient(10.0, 1.0)
        assert coef == pytest.approx(0.1, rel=1e-4)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            clip_coefficient(1.0, 0.0)


class TestLossScaler:
    def test_backoff_on_overflow(self):
        s = LossScaler(init_scale=1024.0)
        s.update(found_overflow=True)
        assert s.scale == 512.0

    def test_growth_after_interval(self):
        s = LossScaler(init_scale=4.0, growth_interval=3)
        for _ in range(3):
            s.update(found_overflow=False)
        assert s.scale == 8.0

    def test_overflow_resets_growth_counter(self):
        s = LossScaler(init_scale=4.0, growth_interval=2)
        s.update(False)
        s.update(True)
        s.update(False)
        assert s.scale == 2.0  # halved, no growth yet

    def test_min_scale_floor(self):
        s = LossScaler(init_scale=2.0, min_scale=1.0)
        for _ in range(10):
            s.update(True)
        assert s.scale == 1.0

    def test_unscale_divides_in_place(self):
        s = LossScaler(init_scale=8.0)
        g = {"a": np.full(3, 16.0, dtype=np.float32)}
        s.unscale(g)
        np.testing.assert_allclose(g["a"], 2.0)

    def test_scale_loss(self):
        s = LossScaler(init_scale=4.0)
        assert s.scale_loss(2.5) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LossScaler(init_scale=0)
        with pytest.raises(ValueError):
            LossScaler(growth_factor=1.0)
        with pytest.raises(ValueError):
            LossScaler(backoff_factor=1.5)


class TestMixedPrecisionState:
    def test_fp16_copy_created_on_init(self, rng):
        master = {"w": rng.standard_normal(8).astype(np.float32)}
        mp = MixedPrecisionState(master_fp32=master)
        assert mp.model_fp16["w"].dtype == np.float32
        np.testing.assert_array_equal(
            mp.model_fp16["w"].view(np.uint32),
            master["w"].astype(np.float16).astype(np.float32)
            .view(np.uint32))

    def test_drift_zero_after_sync(self, rng):
        master = {"w": rng.standard_normal(8).astype(np.float32)}
        mp = MixedPrecisionState(master_fp32=master)
        assert mp.drift() <= np.abs(master["w"]).max() * 2**-10

    def test_drift_detects_missed_sync(self, rng):
        master = {"w": rng.standard_normal(8).astype(np.float32)}
        mp = MixedPrecisionState(master_fp32=master)
        master["w"] += 1.0
        assert mp.drift() >= 0.9
        mp.sync_model_copy()
        assert mp.drift() < 0.01

    def test_partial_sync(self, rng):
        master = {
            "a": rng.standard_normal(4).astype(np.float32),
            "b": rng.standard_normal(4).astype(np.float32),
        }
        mp = MixedPrecisionState(master_fp32=master)
        master["a"] += 1.0
        master["b"] += 1.0
        mp.sync_model_copy(names=["a"])
        a_drift = np.abs(
            master["a"] - mp.model_fp16["a"].astype(np.float32)
        ).max()
        b_drift = np.abs(
            master["b"] - mp.model_fp16["b"].astype(np.float32)
        ).max()
        assert a_drift < 0.01 and b_drift >= 0.9

    def test_requires_fp32_master(self):
        with pytest.raises(TypeError):
            MixedPrecisionState(master_fp32={"w": np.zeros(2, np.float16)})
