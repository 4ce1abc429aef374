"""Projection tests: PCA against eigen-oracles, t-SNE entropy and
equivariance checks, kernel PCA centering, spectral embedding geometry,
and the reference implementations that the faster code must match."""

import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_array
from hypothesis import given, settings
from hypothesis import strategies as st

from vraets import artifacts, projection
from vraets.errors import DataError
from vraets.numerics import SeededRng, sq_distances


def _random_data(n, d, seed=0, scale=1.0):
    rng = SeededRng(seed)
    return scale * rng.standard_normal((n, d)) + rng.standard_normal((1, d))


def _fragmented_blobs():
    # five blobs of 6 points, 1e3 apart: a 2-NN graph of 5 components
    rng = SeededRng(23)
    return np.concatenate([rng.standard_normal((6, 2)) + off
                           for off in (0.0, 1e3, 2e3, 3e3, 4e3)])


def _duplicated_points():
    # 12 distinct points, each three times: d2 has off-diagonal zeros
    base = _random_data(12, 4, seed=30)
    return np.repeat(base, 3, axis=0)[SeededRng(31).permutation(36)]


# ---------------------------------------------------------------- PCA

class TestPca:
    def test_components_orthonormal(self):
        X = _random_data(40, 6, seed=1)
        emb = projection.pca(X, 4)
        C = emb.extras["components"]
        assert np.allclose(C.T @ C, np.eye(4), atol=1e-9)

    def test_scores_are_centered_projection(self):
        X = _random_data(30, 5, seed=2)
        emb = projection.pca(X, 3)
        expected = (X - X.mean(axis=0)) @ emb.extras["components"]
        assert np.allclose(emb.points, expected)

    def test_explained_variance_matches_covariance_eigvals(self):
        # oracle: eigenvalues of np.cov sorted descending
        X = _random_data(50, 4, seed=3)
        emb = projection.pca(X, 4)
        oracle = np.sort(np.linalg.eigvalsh(np.cov(X.T)))[::-1]
        assert np.allclose(emb.extras["explained_variance"], oracle)

    def test_first_component_maximizes_variance(self):
        # oracle: variance along any random unit direction never exceeds
        # the top explained variance
        X = _random_data(60, 5, seed=4)
        emb = projection.pca(X, 1)
        top = emb.extras["explained_variance"][0]
        rng = SeededRng(5)
        for _ in range(20):
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            assert np.var(X @ u, ddof=1) <= top + 1e-9

    def test_full_rank_reconstruction(self):
        X = _random_data(25, 4, seed=6)
        emb = projection.pca(X, 4)
        recon = emb.points @ emb.extras["components"].T + emb.extras["mean"]
        assert np.allclose(recon, X)

    def test_known_anisotropic_data(self):
        # points on a line y = 2x: single nonzero eigenvalue, direction
        # proportional to (1, 2)/sqrt(5)
        t = np.linspace(-1, 1, 11)
        X = np.stack([t, 2 * t], axis=1)
        emb = projection.pca(X, 2)
        direction = emb.extras["components"][:, 0]
        assert np.allclose(np.abs(direction), [1, 2] / np.sqrt(5))
        assert emb.extras["explained_variance"][1] < 1e-12

    def test_permutation_equivariance(self):
        X = _random_data(30, 5, seed=7)
        perm = SeededRng(8).permutation(30)
        a = projection.pca(X, 2).points
        b = projection.pca(X[perm], 2).points
        assert np.allclose(a[perm], b)

    def test_deterministic(self):
        X = _random_data(20, 3, seed=9)
        a = projection.pca(X, 2).points
        b = projection.pca(X, 2).points
        assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        X = _random_data(10, 3)
        with pytest.raises(DataError):
            projection.pca(X, 0)
        with pytest.raises(DataError):
            projection.pca(X, 4)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            projection.pca(np.ones((1, 3)), 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=5, max_value=30),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    def test_property_orthonormal_and_sorted(self, n, d, seed):
        X = _random_data(n, d, seed=seed)
        k = min(n, d)
        emb = projection.pca(X, k)
        C = emb.extras["components"]
        assert np.allclose(C.T @ C, np.eye(k), atol=1e-9)
        ev = emb.extras["explained_variance"]
        assert np.all(np.diff(ev) <= 1e-12)
        assert np.all(ev >= 0)


# --------------------------------------------------------- kernel PCA

class TestKernelPca:
    def test_default_gamma_is_inverse_median_sq_distance(self):
        X = _random_data(20, 3, seed=10)
        d2 = []
        for i in range(20):
            for j in range(i + 1, 20):
                d2.append(np.sum((X[i] - X[j]) ** 2))
        assert (projection.default_gamma(sq_distances(X))
                == pytest.approx(1.0 / np.median(d2)))

    def test_scores_centered(self):
        X = _random_data(25, 4, seed=11)
        emb = projection.kernel_pca_rbf(X, 3)
        assert np.allclose(emb.points.mean(axis=0), 0, atol=1e-9)

    def test_eigenvalues_nonincreasing_nonnegative(self):
        X = _random_data(30, 4, seed=12)
        emb = projection.kernel_pca_rbf(X, 5)
        ev = emb.extras["eigenvalues"]
        assert np.all(np.diff(ev) <= 1e-12) and np.all(ev >= 0)

    def test_separates_concentric_circles(self):
        # classic nonlinear case PCA cannot split on the first axis
        rng = SeededRng(13)
        theta = rng.uniform(0, 2 * np.pi, 60)
        r = np.concatenate([np.full(30, 1.0), np.full(30, 4.0)])
        X = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        X += 0.05 * rng.standard_normal(X.shape)
        emb = projection.kernel_pca_rbf(X, 2)
        # some kernel coordinate separates the rings almost linearly
        best = 0
        for dim in range(2):
            inner, outer = emb.points[:30, dim], emb.points[30:, dim]
            threshold = (inner.mean() + outer.mean()) / 2
            correct = np.sum(inner < threshold) + np.sum(outer > threshold)
            best = max(best, correct, 60 - correct)
        assert best >= 55

    @pytest.mark.parametrize("n, k", [(10, 0), (10, -1), (10, 11), (1, 2)])
    def test_k_out_of_range(self, n, k):
        with pytest.raises(DataError, match="k="):
            projection.kernel_pca_rbf(_random_data(n, 3), k)

    def test_k_equal_to_n(self):
        emb = projection.kernel_pca_rbf(_random_data(6, 3, seed=36), 6)
        assert emb.points.shape == (6, 6)


def _kernel_pca_reference(X, k, gamma=None):
    """Kernel PCA as it was before mean centring: K centred with three
    products against a dense 1/n matrix, and every eigenpair of the
    result from np.linalg.eigh. Returns (points, eigenvalues)."""
    if gamma is None:
        gamma = projection.default_gamma(sq_distances(X))
    n = X.shape[0]
    K = np.exp(-gamma * sq_distances(X))
    one = np.full((n, n), 1.0 / n)
    Kc = K - one @ K - K @ one + one @ K @ one
    eigvals, eigvecs = np.linalg.eigh(Kc)
    order = np.argsort(eigvals)[::-1][:k]
    vals = np.maximum(eigvals[order], 0.0)
    vecs = projection._fix_signs(eigvecs[:, order])
    return vecs * np.sqrt(vals)[None, :], vals


class TestKernelPcaMatchesReference:
    @pytest.mark.parametrize("X, k, gamma", [
        (_random_data(5, 3, seed=37), 2, None),
        (_random_data(40, 4, seed=38), 3, None),
        (_random_data(120, 5, seed=39), 2, 0.3),
        (_duplicated_points(), 4, None),
        (np.concatenate([_random_data(30, 3, seed=40),
                         _random_data(30, 3, seed=41) + 6.0]), 2, None),
    ], ids=["n5", "n40", "n120-gamma", "duplicates", "two-blobs"])
    def test_points_within_1e12(self, X, k, gamma):
        emb = projection.kernel_pca_rbf(X, k, gamma)
        points, vals = _kernel_pca_reference(X, k, gamma)
        np.testing.assert_allclose(emb.points, points, rtol=0, atol=1e-12)
        np.testing.assert_allclose(emb.extras["eigenvalues"], vals,
                                   rtol=0, atol=1e-12)


def _regular_polygon(m):
    theta = 2 * np.pi * np.arange(m) / m
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


class TestTopEigenpairs:
    """The ARPACK solve behind kernel PCA and spectral embedding, and its
    dense fallback."""

    def test_two_calls_give_the_same_bits(self):
        # ARPACK's own start vector comes from a stream that carries on
        # between calls; the fixed one makes a call a function of its input
        X = _random_data(80, 4, seed=52)
        for run in (lambda: projection.kernel_pca_rbf(X, 2).points,
                    lambda: projection.spectral_embedding(X, 8).points):
            np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("m, k", [(8, 2), (8, 3), (40, 2), (40, 3)])
    def test_repeated_top_eigenvalue_of_a_regular_polygon(self, m, k):
        # the kernel matrix is circulant: its top eigenvalue is double,
        # and Lanczos from one vector must still find both copies
        X = _regular_polygon(m)
        emb = projection.kernel_pca_rbf(X, k)
        _, vals = _kernel_pca_reference(X, k)
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        np.testing.assert_allclose(emb.extras["eigenvalues"], vals,
                                   rtol=0, atol=1e-12)

    def test_fragmented_graph_takes_the_dense_eigh(self):
        # five components: the Laplacian's 0 is five-fold, which Lanczos
        # from one vector can miss, so the points are the dense eigh's
        X = _fragmented_blobs()
        with pytest.warns(UserWarning, match="connected components"):
            got = projection.spectral_embedding(X, k_neighbors=2, dims=2)
        _, vecs = scipy.linalg.eigh(_laplacian_by_neighbour_loop(X, 2),
                                    subset_by_index=[0, 2])
        np.testing.assert_array_equal(got.points,
                                      projection._fix_signs(vecs[:, 1:]))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_no_convergence_falls_back_to_dense_eigh(self, monkeypatch,
                                                     sparse):
        import scipy.sparse.linalg

        def fail(A, k, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "no convergence", np.empty(0), np.empty((A.shape[0], 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        B = _random_data(30, 30, seed=53)
        A = B + B.T
        vals, vecs = projection._top_eigenpairs(
            csr_array(A) if sparse else A, 3)
        want_vals, want_vecs = scipy.linalg.eigh(A, subset_by_index=[27, 29])
        np.testing.assert_array_equal(vals, want_vals[::-1])
        np.testing.assert_array_equal(vecs, want_vecs[:, ::-1])
        emb = projection.kernel_pca_rbf(_random_data(40, 4, seed=38), 3)
        np.testing.assert_allclose(
            emb.points, _kernel_pca_reference(_random_data(40, 4, seed=38),
                                              3)[0], rtol=0, atol=1e-12)


# -------------------------------------------------------------- t-SNE

class TestTsne:
    def test_affinity_entropy_matches_perplexity(self):
        # acceptance-style oracle: per-row conditional entropy of the
        # bandwidth search equals log2(perplexity) within 1e-3
        X = _random_data(50, 5, seed=14)
        perplexity = 12.0
        P = projection._binary_search_bandwidths(
            sq_distances(X), perplexity)
        for i in range(50):
            row = P[i][P[i] > 0]
            h = -np.sum(row * np.log2(row))
            assert 2.0 ** h == pytest.approx(perplexity, abs=1e-3)

    def test_affinities_symmetric_and_normalized(self):
        X = _random_data(30, 4, seed=15)
        P = projection.tsne_affinities(X, 10.0)
        assert np.allclose(P, P.T)
        assert np.sum(P) == pytest.approx(1.0, abs=1e-6)

    def test_kl_trace_improves(self):
        X = _random_data(40, 6, seed=16)
        emb = projection.tsne(X, perplexity=10.0, iterations=300)
        trace = emb.extras["kl_trace"]
        # compare post-exaggeration KL to its start; must not get worse
        assert trace[-1] <= trace[250] + 1e-9

    def test_deterministic(self):
        X = _random_data(25, 4, seed=17)
        a = projection.tsne(X, perplexity=8.0, iterations=120).points
        b = projection.tsne(X, perplexity=8.0, iterations=120).points
        assert np.array_equal(a, b)

    def test_permutation_equivariance_50_points(self):
        # run short: gradient descent amplifies the ~1e-16 float noise
        # that row reordering introduces, so long runs diverge visibly
        # even though the algorithm itself is equivariant
        X = _random_data(50, 5, seed=18)
        perm = SeededRng(19).permutation(50)
        a = projection.tsne(X, perplexity=12.0, iterations=15).points
        b = projection.tsne(X[perm], perplexity=12.0, iterations=15).points
        assert np.allclose(a[perm], b, atol=1e-6)

    def test_affinities_permutation_equivariant_exactly(self):
        X = _random_data(50, 5, seed=18)
        perm = SeededRng(19).permutation(50)
        Pa = projection.tsne_affinities(X, 12.0)
        Pb = projection.tsne_affinities(X[perm], 12.0)
        assert np.allclose(Pa[np.ix_(perm, perm)], Pb, atol=1e-15)

    def test_separates_distant_blobs(self):
        # inter-cluster distance ~100x the intra-cluster spread
        rng = SeededRng(20)
        X = np.concatenate([rng.standard_normal((30, 4)),
                            rng.standard_normal((30, 4)) + 100.0])
        emb = projection.tsne(X, perplexity=10.0, iterations=1000)
        a, b = emb.points[:30], emb.points[30:]
        # class-mean midpoint test: project onto the line between class
        # means and check every point lands on its own side
        axis = b.mean(axis=0) - a.mean(axis=0)
        mid = (a.mean(axis=0) + b.mean(axis=0)) / 2
        proj = (emb.points - mid) @ axis
        assert np.all(proj[:30] < 0) and np.all(proj[30:] > 0)

    def test_no_point_is_flung_to_the_other_blob(self):
        # without TSNE_MAX_STEP, the step at the end of the exaggeration
        # phase flung a point across to the other blob on 6 of these 20
        # datasets
        flung = []
        for seed in range(20):
            rng = SeededRng(seed)
            X = np.concatenate([rng.standard_normal((30, 4)),
                                rng.standard_normal((30, 4)) + 100.0])
            Y = projection.tsne(X, perplexity=10.0, iterations=1000).points
            axis = Y[30:].mean(axis=0) - Y[:30].mean(axis=0)
            side = (Y - (Y[:30].mean(axis=0) + Y[30:].mean(axis=0)) / 2) @ axis
            if not (np.all(side[:30] < 0) and np.all(side[30:] > 0)):
                flung.append(seed)
        assert flung == []

    def test_two_threads_give_the_bytes_of_serial_calls(self):
        # three callers share the one helper thread with the main thread
        inputs = [(_random_data(37, 5, seed=33), 10.0),
                  (_random_data(120, 4, seed=34), 30.0),
                  (_duplicated_points(), 8.0)]
        want = [projection.tsne(X, p, 301).points.tobytes()
                for X, p in inputs]
        got = [None] * len(inputs)

        def run(i):
            X, p = inputs[i]
            got[i] = projection.tsne(X, p, 301).points.tobytes()

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_too_few_points(self):
        with pytest.raises(DataError):
            projection.tsne(_random_data(3, 2), perplexity=2.0)


def _tsne_reference(X, perplexity, iterations, learning_rate=200.0,
                    early_exaggeration=12.0, exaggeration_iters=250,
                    max_step=5.0):
    """The t-SNE loop in plain formulas: fresh temporaries, the two row
    blocks one after the other, the step clip point by point, and the
    KL at every iteration. Z and the KL are the blocks' partial sums
    added in block order. Returns (points, kl_trace)."""
    n = X.shape[0]
    P = projection.tsne_affinities(X, perplexity)
    k0 = min(2, X.shape[1], n - 1) if min(n, X.shape[1]) >= 2 else 1
    init = projection.pca(X, k0).points
    if init.shape[1] < 2:
        init = np.hstack([init, np.zeros((n, 1))])
    spread = init[:, 0].std()
    Y = init * (1e-4 / spread) if spread > 0 else init
    cut = (n // 2) // 8 * 8
    blocks = [(0, cut), (cut, n)]
    velocity = np.zeros_like(Y)
    kl_trace = []
    for it in range(iterations):
        exag = early_exaggeration if it < exaggeration_iters else 1.0
        momentum = 0.5 if it < exaggeration_iters else 0.8
        nums = []
        for lo, hi in blocks:
            d2 = ((Y[lo:hi, 0, None] - Y[None, :, 0]) ** 2
                  + (Y[lo:hi, 1, None] - Y[None, :, 1]) ** 2)
            num = 1.0 / (1.0 + d2)
            num[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
            nums.append(num)
        Z = np.sum(nums[0]) + np.sum(nums[1])
        grad = np.empty_like(Y)
        kl = []
        for (lo, hi), num in zip(blocks, nums):
            Q = np.maximum(num / Z, projection._EPS)
            PQ = (exag * P[lo:hi] - Q) * num
            grad[lo:hi] = 4.0 * (PQ.sum(axis=1)[:, None] * Y[lo:hi] - PQ @ Y)
            kl.append(float(np.sum(P[lo:hi] * np.log(P[lo:hi] / Q))))
        velocity = momentum * velocity - learning_rate * grad
        if it >= exaggeration_iters:
            for i in range(n):
                step = np.hypot(velocity[i, 0], velocity[i, 1])
                if step > max_step:
                    velocity[i] *= max_step / step
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        kl_trace.append(kl[0] + kl[1])
    return Y, np.array(kl_trace)


class TestTsneMatchesReference:
    """Points and every recorded KL value equal to the reference loop,
    bit for bit; the KL is nan where the loop does not compute it."""

    @pytest.mark.parametrize("X, perplexity, iterations", [
        (_random_data(5, 3, seed=32), 3.0, 30),       # below 50; block 0 empty
        (_random_data(37, 5, seed=33), 10.0, 200),    # exaggeration only
        (_random_data(120, 4, seed=34), 30.0, 301),
        (_duplicated_points(), 8.0, 301),
        (_random_data(30, 1, seed=35), 8.0, 120),     # 1-D: padded init
    ], ids=["n5-it30", "n37-it200", "n120-it301", "duplicates", "1d"])
    def test_bit_equal(self, X, perplexity, iterations):
        emb = projection.tsne(X, perplexity=perplexity, iterations=iterations)
        points, kl = _tsne_reference(X, perplexity, iterations)
        np.testing.assert_array_equal(emb.points, points)
        assert emb.points.tobytes() == points.tobytes()   # signs of zeros
        trace = np.array(emb.extras["kl_trace"])
        assert trace.shape == (iterations,)
        recorded = np.zeros(iterations, dtype=bool)
        recorded[::50] = True
        recorded[-1] = True
        np.testing.assert_array_equal(trace[recorded], kl[recorded])
        assert np.all(np.isnan(trace[~recorded]))


# final KL and true-class silhouette of t-SNE on seeds 1-10 of the
# analyze-multi-class mixture, on one thread with one BLAS thread, as the
# loop ran before its rows were split between two threads
_BASE_KL = (0.5981246023193671, 0.6161178653131402, 0.5774128450614667,
            0.618090758466922, 0.5887782067982779, 0.5846475431498881,
            0.6608355998804198, 0.6260382411158903, 0.601151171681529,
            0.6193871597462408)
_BASE_SILHOUETTE = (0.7843056368164221, 0.80661449106452, 0.7939602666096398,
                    0.7806136722625137, 0.8030004889445003,
                    0.7980706463273352, 0.7995220116219678,
                    0.7877211237303927, 0.7939364982768642,
                    0.8080293687146456)
_GATE_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:]
from workloads import mixture
from vraets import projection, scoring
runs = []
for seed in range(1, 11):
    X, labels = mixture(seed * 7919 + 375, 375)
    emb = projection.tsne(X, 30.0, 1000)
    runs.append([emb.extras["kl_trace"][-1],
                 scoring.silhouette(emb.points, labels)])
print(json.dumps(runs))
"""


class TestTsneQualityGate:
    """t-SNE turns a change in the last bit into another embedding, so a
    change to its loop is judged on the seed spread: over the ten seeds,
    the mean final KL is at most the base mean plus one sd, and the mean
    true-class silhouette at least the base mean less one sd."""

    def test_kl_and_silhouette_within_one_sd_of_the_base(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", _GATE_RUN, os.path.join(root, "src"),
             os.path.join(root, "vraebench")],
            env=env, capture_output=True, text=True, timeout=600, check=True)
        kl, silhouette = np.array(json.loads(done.stdout)).T
        assert kl.mean() <= np.mean(_BASE_KL) + np.std(_BASE_KL)
        assert (silhouette.mean()
                >= np.mean(_BASE_SILHOUETTE) - np.std(_BASE_SILHOUETTE))


def _bandwidths_reference(d2, perplexity, tol=1e-5, max_iter=100):
    """The bandwidth search as it was before it ran on all rows at
    once: one row at a time, the diagonal entry deleted from the row."""
    n = d2.shape[0]
    target = np.log2(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        lo, hi = 0.0, np.inf
        beta = 1.0
        di = np.delete(d2[i], i)
        for _ in range(max_iter):
            w = np.exp(-di * beta)
            s = np.sum(w)
            if s <= 0:
                h = 0.0
                p = np.zeros_like(w)
            else:
                p = w / s
                nz = p > 0
                h = -np.sum(p[nz] * np.log2(p[nz]))
            if abs(h - target) < tol:
                break
            if h > target:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (lo + beta) / 2.0
        P[i] = np.insert(p, i, 0.0)
    return P


def _far_outlier():
    # the outlier's weight underflows to exactly 0 in every other row
    X = _random_data(30, 3, seed=42)
    X[7] += 1e3
    return X


class TestBandwidthsMatchReference:
    @pytest.mark.parametrize("X, perplexity", [
        (_random_data(5, 3, seed=32), 3.0),
        (_random_data(37, 5, seed=33), 10.0),
        (_random_data(120, 4, seed=34), 30.0),
        (_duplicated_points(), 8.0),
        (_far_outlier(), 8.0),
    ], ids=["n5", "n37", "n120", "duplicates", "far-outlier"])
    def test_bit_equal(self, X, perplexity):
        d2 = sq_distances(X)
        P = projection._binary_search_bandwidths(d2, perplexity)
        ref = _bandwidths_reference(d2, perplexity)
        np.testing.assert_array_equal(P, ref)
        assert P.tobytes() == ref.tobytes()
        assert np.all(np.diag(P) == 0.0)

    def test_outlier_weights_underflow(self):
        P = projection._binary_search_bandwidths(
            sq_distances(_far_outlier()), 8.0)
        others = np.delete(np.arange(30), 7)
        assert np.all(P[others, 7] == 0.0)
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_rows_with_zeros_stop_where_the_reference_stops(self):
        # a row whose weights include an exact 0 must sum only its
        # nonzero entropy terms, as the reference does: with tol at that
        # row's first |h - target|, an entropy off by one ulp would stop
        # the row one iteration early or late
        d2 = sq_distances(_far_outlier())
        target = np.log2(8.0)
        for i in np.delete(np.arange(30), 7):
            p = np.exp(-np.delete(d2[i], i))
            p /= p.sum()
            nz = p > 0
            gap = abs(-np.sum(p[nz] * np.log2(p[nz])) - target)
            for tol in (gap, np.nextafter(gap, np.inf)):
                np.testing.assert_array_equal(
                    projection._binary_search_bandwidths(d2, 8.0, tol=tol),
                    _bandwidths_reference(d2, 8.0, tol=tol))

    def test_max_iter_stops_unconverged_rows(self):
        d2 = sq_distances(_random_data(20, 3, seed=43))
        np.testing.assert_array_equal(
            projection._binary_search_bandwidths(d2, 5.0, max_iter=3),
            _bandwidths_reference(d2, 5.0, max_iter=3))


# ------------------------------------------------------ spectral maps

def _adjacency_by_neighbour_loop(X, k_neighbors):
    """The dense kNN graph built row by row: each row's first k_neighbors
    others in stable distance order, then the union of these edges."""
    n = X.shape[0]
    order = np.argsort(sq_distances(X), axis=1, kind="stable")
    adj = np.zeros((n, n))
    for i in range(n):
        neigh = [j for j in order[i] if j != i][:k_neighbors]
        adj[i, neigh] = 1.0
    return np.maximum(adj, adj.T)


def _laplacian_by_neighbour_loop(X, k_neighbors):
    """The symmetric-normalized Laplacian of the row-by-row kNN graph."""
    adj = _adjacency_by_neighbour_loop(X, k_neighbors)
    deg = adj.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    return np.eye(X.shape[0]) - dinv[:, None] * adj * dinv[None, :]


def _spectral_points_by_neighbour_loop(X, k_neighbors, dims=2):
    """Reference spectral embedding on the row-by-row kNN graph. The
    eigensolve is the one spectral_embedding makes, so that the two
    compare bit for bit and the comparison tests the graph."""
    adj = csr_array(_adjacency_by_neighbour_loop(X, k_neighbors))
    _, eigvecs = projection._laplacian_eigenpairs(adj, dims + 1)
    return projection._fix_signs(eigvecs[:, 1:])


class TestNearest:
    """The partial selection that picks the spectral kNN graph against
    the stable argsort of whole rows."""

    @staticmethod
    def _check(d2):
        for m in range(1, d2.shape[0] + 1):
            np.testing.assert_array_equal(
                projection._nearest(d2, m),
                np.argsort(d2, axis=1, kind="stable")[:, :m])

    def test_integer_grids_with_duplicates(self):
        # points on a 3x3 grid: most distances tie, many points coincide
        rng = np.random.default_rng(48)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            X = rng.integers(0, 3, size=(n, int(rng.integers(1, 3))))
            self._check(sq_distances(X.astype(np.float64)))

    def test_random_points(self):
        self._check(sq_distances(_random_data(50, 3, seed=49)))

    def test_nan_and_inf_sort_last_as_in_argsort(self):
        d2 = sq_distances(_random_data(12, 2, seed=50))
        d2[np.random.default_rng(51).random(d2.shape) < 0.3] = np.nan
        d2[0, 1:6] = np.inf
        self._check(d2)


class TestSpectral:
    def test_matches_neighbour_loop_bit_for_bit(self):
        for seed, n, k in ((25, 12, 3), (26, 40, 10), (27, 60, 7)):
            X = _random_data(n, 4, seed=seed)
            np.testing.assert_array_equal(
                projection.spectral_embedding(X, k_neighbors=k).points,
                _spectral_points_by_neighbour_loop(X, k))

    def test_duplicates_match_neighbour_loop_bit_for_bit(self):
        # more than k_neighbors + 1 copies of a point: for the later
        # copies, earlier copies fill the first k + 1 slots of the
        # stable order and the row's own index falls outside them
        rng = SeededRng(28)
        k = 3
        X = np.concatenate([np.tile(rng.standard_normal((1, 3)), (7, 1)),
                            rng.standard_normal((10, 3)),
                            np.tile(rng.standard_normal((1, 3)), (5, 1))])
        X = X[SeededRng(29).permutation(len(X))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = projection.spectral_embedding(X, k_neighbors=k).points
        np.testing.assert_array_equal(
            got, _spectral_points_by_neighbour_loop(X, k))

    @pytest.mark.parametrize("seed, n, k, dims", [
        (44, 12, 3, 2), (45, 40, 10, 2), (46, 60, 7, 3), (47, 25, 5, 1)])
    def test_matches_full_eigh_up_to_sign(self, seed, n, k, dims):
        X = _random_data(n, 4, seed=seed)
        eigvals, eigvecs = np.linalg.eigh(_laplacian_by_neighbour_loop(X, k))
        emb = projection.spectral_embedding(X, k_neighbors=k, dims=dims)
        want = eigvecs[:, 1:dims + 1]
        signs = np.sign(np.sum(emb.points * want, axis=0))
        np.testing.assert_allclose(emb.points, want * signs, rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(emb.extras["eigenvalues"],
                                   eigvals[:dims + 1], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n, dims", [(5, 0), (5, -1), (5, 5), (2, 2)])
    def test_dims_out_of_range(self, n, dims):
        with pytest.raises(DataError, match="dims"):
            projection.spectral_embedding(_random_data(n, 3), k_neighbors=1,
                                          dims=dims)

    def test_dims_bound_holds_for_coinciding_points(self):
        with pytest.raises(DataError, match="dims"):
            projection.spectral_embedding(np.ones((3, 2)), k_neighbors=1,
                                          dims=3)

    def test_identical_points_embed_to_zeros(self):
        X = np.ones((8, 3))
        emb = projection.spectral_embedding(X, k_neighbors=3)
        assert np.array_equal(emb.points, np.zeros((8, 2)))

    def test_two_blobs_split_by_sign(self):
        rng = SeededRng(21)
        X = np.concatenate([rng.standard_normal((15, 3)),
                            rng.standard_normal((15, 3)) + 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            emb = projection.spectral_embedding(X, k_neighbors=5, dims=1)
        signs = np.sign(emb.points[:, 0])
        assert len(set(signs[:15])) == 1 and len(set(signs[15:])) == 1
        assert signs[0] != signs[15]

    def test_laplacian_eigenvalues_start_near_zero(self):
        X = _random_data(30, 4, seed=22)
        emb = projection.spectral_embedding(X, k_neighbors=6, dims=2)
        ev = emb.extras["eigenvalues"]
        assert abs(ev[0]) < 1e-9      # constant eigenvector of L_sym
        assert np.all(ev >= -1e-9)

    def test_warns_on_fragmented_graph(self):
        X = _fragmented_blobs()
        with pytest.warns(UserWarning, match="connected components"):
            projection.spectral_embedding(X, k_neighbors=2, dims=2)

    @pytest.mark.parametrize("sizes, k", [((6, 6, 6, 6, 6), 2),
                                          ((3, 7, 4, 9, 5, 2), 1),
                                          ((8, 8, 8, 8), 3)])
    def test_component_count_matches_dense_graph(self, sizes, k):
        from scipy.sparse.csgraph import connected_components
        rng = SeededRng(24)
        X = np.concatenate([rng.standard_normal((m, 2)) + 1e3 * b
                            for b, m in enumerate(sizes)])
        n = len(X)
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        adj = np.zeros((n, n))
        for r in range(n):
            adj[r, np.argsort(d2[r], kind="stable")[:k]] = 1.0
        want = connected_components(np.maximum(adj, adj.T),
                                    directed=False)[0]
        assert want >= len(sizes) > 3
        with pytest.warns(UserWarning,
                          match=f"kNN graph has {want} connected components"):
            projection.spectral_embedding(X, k_neighbors=k, dims=2)


# --------------------------------------------------------- Embedding

class TestEmbeddingArtifact:
    def test_roundtrip_with_labels(self, tmp_path):
        X = _random_data(12, 4, seed=24)
        emb = projection.pca(X, 2)
        labels = np.arange(12) % 3
        path = tmp_path / "emb.artifact"
        emb.save(path, labels)
        loaded, got_labels = projection.Embedding.load(path)
        assert np.array_equal(loaded.points, emb.points)
        assert loaded.method == "pca"
        assert np.array_equal(got_labels, labels)

    @pytest.mark.parametrize("points, labels, source_dim, message", [
        (np.ones(12), None, 4, "points must be 2-D"),
        (np.ones((12, 2)), np.zeros(11, dtype=np.int64), 4,
         "labels have shape"),
        (np.ones((12, 2)), None, "4", "source_dim must be an integer"),
        (np.ones((12, 2)), None, True, "source_dim must be an integer"),
    ], ids=["points-1d", "labels-count", "source-dim-str", "source-dim-bool"])
    def test_load_rejects(self, tmp_path, points, labels, source_dim,
                          message):
        arrays = {"points": points}
        if labels is not None:
            arrays["labels"] = labels
        path = tmp_path / "emb.artifact"
        artifacts.save_artifact(path, "embedding",
                                {"method": "pca", "params": {},
                                 "source_dim": source_dim}, arrays)
        with pytest.raises(DataError, match=message):
            projection.Embedding.load(path)

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            projection.Embedding(np.array([[np.nan, 0.0]]), "pca")
