import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vraets.errors import DataError
from vraets.numerics import (AdamState, SeededRng, adam_step, clip_global_norm,
                             finite_difference_gradient, global_norm, softplus)


class TestSoftplus:
    def test_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_positive_asymptote(self):
        assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)

    def test_large_negative(self):
        # ln(1 + e^-20), frozen from a 40-digit mpmath evaluation
        assert softplus(-20.0) == pytest.approx(2.0611536203143807e-09,
                                                rel=1e-10)

    def test_no_overflow(self):
        assert np.isfinite(softplus(1e4))

    @given(st.floats(-100, 100))
    def test_bounds_and_monotonicity(self, x):
        y = float(softplus(x))
        assert y >= 0.0
        assert y >= x
        assert float(softplus(x + 0.5)) > y


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState(params)
        out = adam_step(params, grads, state, lr=0.1)
        np.testing.assert_array_equal(out["w"], params["w"])
        assert state.step == 1

    def test_first_step_moves_by_lr(self):
        # fresh state: m-hat/sqrt(v-hat) = g/|g|, so |step| ~= lr
        params = {"w": np.array([3.0])}
        grads = {"w": np.array([2.0])}
        state = AdamState(params)
        out = adam_step(params, grads, state, lr=0.1)
        assert out["w"][0] == pytest.approx(3.0 - 0.1, abs=1e-7)

    def test_deterministic(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.3, -0.7])}
        s1, s2 = AdamState(params), AdamState(params)
        out1 = adam_step(params, grads, s1, lr=0.01)
        out2 = adam_step(params, grads, s2, lr=0.01)
        np.testing.assert_array_equal(out1["w"], out2["w"])

    def test_shape_mismatch_raises(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(DataError):
            adam_step(params, {"w": np.zeros(3)}, AdamState(params), 0.1)

    def test_step_counter_increases(self):
        params = {"w": np.zeros(2)}
        state = AdamState(params)
        for expected in (1, 2, 3):
            params = adam_step(params, {"w": np.ones(2)}, state, 0.1)
            assert state.step == expected


class TestClipGlobalNorm:
    def test_scales_above_threshold(self):
        out = clip_global_norm({"g": np.array([6.0, 8.0])}, 5.0)
        np.testing.assert_allclose(out["g"], [3.0, 4.0], atol=1e-12)

    def test_below_threshold_unchanged(self):
        g = {"g": np.array([0.6, 0.8])}
        out = clip_global_norm(g, 5.0)
        np.testing.assert_array_equal(out["g"], g["g"])

    def test_multiple_matrices_joint_norm(self):
        rng = SeededRng(3)
        grads = {f"g{i}": rng.standard_normal((4, 5)) for i in range(3)}
        scale = 20.0 / global_norm(grads)
        grads = {k: v * scale for k, v in grads.items()}
        out = clip_global_norm(grads, 2.0)
        assert global_norm(out) == pytest.approx(2.0, abs=1e-12)
        for k in grads:
            np.testing.assert_allclose(out[k], grads[k] * 0.1, atol=1e-12)

    def test_idempotent(self):
        grads = {"g": np.array([30.0, 40.0])}
        once = clip_global_norm(grads, 5.0)
        twice = clip_global_norm(once, 5.0)
        np.testing.assert_allclose(once["g"], twice["g"], atol=1e-15)

    def test_non_positive_max_norm_rejected(self):
        with pytest.raises(DataError):
            clip_global_norm({"g": np.ones(2)}, 0.0)


class TestGaussianSampling:
    def test_seed_reproducibility(self):
        a = SeededRng(42).standard_normal((8, 3))
        b = SeededRng(42).standard_normal((8, 3))
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        x = SeededRng(0).standard_normal((1_000_000,))
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01

    def test_empty_shape(self):
        x = SeededRng(1).standard_normal((0, 5))
        assert x.shape == (0, 5)

    def test_distinct_streams(self):
        a = SeededRng(1).standard_normal((4,))
        b = SeededRng(2).standard_normal((4,))
        assert not np.array_equal(a, b)


class TestFiniteDifferences:
    def test_quadratic(self):
        grads = finite_difference_gradient(
            lambda p: float(p["x"][0] ** 2), {"x": np.array([3.0])}, h=1e-5)
        assert grads["x"][0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_function(self):
        grads = finite_difference_gradient(
            lambda p: 1.5, {"x": np.arange(4.0)}, h=1e-5)
        np.testing.assert_array_equal(grads["x"], np.zeros(4))

    def test_softplus_derivative_is_sigmoid(self):
        grads = finite_difference_gradient(
            lambda p: float(softplus(p["x"][0])), {"x": np.array([0.0])},
            h=1e-5)
        assert grads["x"][0] == pytest.approx(0.5, abs=1e-6)

    def test_params_not_mutated(self):
        params = {"x": np.array([1.0, 2.0])}
        finite_difference_gradient(lambda p: float(np.sum(p["x"] ** 2)),
                                   params)
        np.testing.assert_array_equal(params["x"], [1.0, 2.0])
