import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vraets import clustering, projection
from vraets.errors import DataError
from vraets.numerics import (AdamState, SeededRng, adam_step, clip_global_norm,
                             finite_difference_gradient, global_norm, softplus,
                             sq_distances)


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


def _pairwise_sq(X, C):
    """The squared distances k-means, DBSCAN and the anomaly score used
    before they shared sq_distances: (2X) @ C.T, not 2 (X @ C.T)."""
    d2 = (np.sum(X * X, axis=1)[:, None] + np.sum(C * C, axis=1)[None, :]
          - 2.0 * X @ C.T)
    return np.maximum(d2, 0.0)


class TestSqDistances:
    @pytest.mark.parametrize("n, d, scale", [(1, 3, 1.0), (10, 2, 1.0),
                                             (40, 5, 1e3), (200, 8, 1e-3)])
    def test_self_form_zero_diagonal_symmetric_nonnegative(self, n, d, scale):
        X = np.random.default_rng(n).normal(size=(n, d)) * scale
        d2 = sq_distances(X)
        assert np.all(np.diag(d2) == 0.0)
        np.testing.assert_array_equal(d2, d2.T)
        assert np.all(d2 >= 0.0)
        np.testing.assert_allclose(
            d2, np.sum((X[:, None] - X[None]) ** 2, axis=2),
            rtol=1e-9, atol=1e-9 * scale ** 2)

    @pytest.mark.parametrize("n, m, d", [(1, 1, 2), (30, 1, 2), (30, 4, 2),
                                         (375, 4, 5), (50, 50, 20)])
    def test_cross_form_bit_equal_to_old_copies(self, n, m, d):
        rng = np.random.default_rng(n + m)
        X = rng.normal(size=(n, d)) * 7.0
        C = rng.normal(size=(m, d))
        np.testing.assert_array_equal(sq_distances(X, C), _pairwise_sq(X, C))
        assert sq_distances(X, C).tobytes() == _pairwise_sq(X, C).tobytes()


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
        assert out is g
        np.testing.assert_array_equal(out["g"], [0.6, 0.8])

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


class TestSeededRng:
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_is_a_philox_generator_with_the_same_stream(self, seed):
        rng = SeededRng(seed)
        ref = np.random.Generator(np.random.Philox(seed))
        assert isinstance(rng, np.random.Generator)
        np.testing.assert_array_equal(rng.standard_normal((3, 4)),
                                      ref.standard_normal((3, 4)))
        np.testing.assert_array_equal(rng.uniform(-1, 1, (5,)),
                                      ref.uniform(-1, 1, (5,)))
        np.testing.assert_array_equal(rng.permutation(9), ref.permutation(9))
        assert rng.integers(0, 10) == ref.integers(0, 10)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert rng.choice(4, p=p) == ref.choice(4, p=p)


class TestRecordedSchedules:
    # the fixed schedules stay in each artifact's params, so the
    # embedding and assignment bytes keep them
    def test_kmeans_params(self):
        X = SeededRng(4).standard_normal((12, 2))
        params = clustering.kmeans_pp(X, 2, seed=3).params
        assert params == {"k": 2, "seed": 3, "max_iter": 100, "tol": 1e-7,
                          "restarts": 10}

    def test_tsne_params(self):
        X = SeededRng(5).standard_normal((10, 3))
        params = projection.tsne(X, perplexity=3.0, iterations=2).params
        assert params == {"perplexity": 3.0, "iterations": 2,
                          "learning_rate": 200.0}


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
