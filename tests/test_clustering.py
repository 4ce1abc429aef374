"""Clustering tests: constructed-geometry oracles, Lloyd/Ward invariants,
brute-force cross-checks (k-means, Ward) on tiny inputs, and DBSCAN
reachability cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vraets import clustering
from vraets.errors import DataError
from vraets.numerics import SeededRng


def _blobs(centers, n_per, spread, seed=0):
    rng = SeededRng(seed)
    parts = [np.asarray(c) + spread * rng.standard_normal((n_per, len(c)))
             for c in centers]
    return np.concatenate(parts)


# ------------------------------------------------------------ k-means

class TestKmeans:
    def test_two_tight_blobs(self):
        # spec-style oracle: blobs at (0,0) and (10,10), spread 0.1
        X = _blobs([(0, 0), (10, 10)], 20, 0.1, seed=1)
        out = clustering.kmeans_pp(X, 2, seed=0)
        assert len(set(out.labels[:20])) == 1
        assert len(set(out.labels[20:])) == 1
        assert out.labels[0] != out.labels[20]
        for blob_mean in ((0, 0), (10, 10)):
            assert np.min(np.linalg.norm(out.centroids - blob_mean, axis=1)) < 0.2

    def test_inertia_nonincreasing_along_lloyd(self):
        X = _blobs([(0, 0), (5, 5), (0, 5)], 30, 1.0, seed=2)
        out = clustering.kmeans_pp(X, 3, seed=3)
        trace = out.extras["inertia_trace"]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_inertia_matches_definition(self):
        X = _blobs([(0, 0), (8, 0)], 15, 0.5, seed=4)
        out = clustering.kmeans_pp(X, 2, seed=5)
        oracle = sum(np.sum((X[out.labels == j] - out.centroids[j]) ** 2)
                     for j in range(2))
        assert out.inertia == pytest.approx(oracle, rel=1e-12)

    def test_k1_centroid_is_mean(self):
        X = _blobs([(3, -2)], 25, 1.0, seed=6)
        out = clustering.kmeans_pp(X, 1, seed=0)
        assert np.allclose(out.centroids[0], X.mean(axis=0))
        assert np.all(out.labels == 0)

    def test_k_equals_n_zero_inertia(self):
        X = _blobs([(0, 0)], 6, 5.0, seed=7)
        out = clustering.kmeans_pp(X, 6, seed=0)
        assert out.inertia == pytest.approx(0.0, abs=1e-9)
        assert len(set(out.labels.tolist())) == 6

    def test_deterministic_under_seed(self):
        X = _blobs([(0, 0), (4, 4)], 20, 1.0, seed=8)
        a = clustering.kmeans_pp(X, 2, seed=9)
        b = clustering.kmeans_pp(X, 2, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)

    def test_brute_force_optimal_on_tiny_input(self):
        # exhaustive over all 2-partitions of 8 points
        rng = SeededRng(10)
        X = rng.standard_normal((8, 2)) * 3
        out = clustering.kmeans_pp(X, 2, seed=11)
        best = np.inf
        for mask in range(1, 2 ** 8 - 1):
            sel = np.array([(mask >> i) & 1 for i in range(8)], dtype=bool)
            inertia = (np.sum((X[sel] - X[sel].mean(axis=0)) ** 2)
                       + np.sum((X[~sel] - X[~sel].mean(axis=0)) ** 2))
            best = min(best, inertia)
        assert out.inertia == pytest.approx(best, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=4))
    def test_property_inertia_trace_monotone(self, seed, k):
        rng = SeededRng(seed)
        X = rng.standard_normal((30, 3))
        out = clustering.kmeans_pp(X, k, seed=seed)
        trace = out.extras["inertia_trace"]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert set(out.labels.tolist()) <= set(range(k))


# ------------------------------------------------------- hierarchical

def _brute_force_ward(X, k):
    """Greedy Ward from its definition, for tiny inputs.

    Each step merges the pair of clusters with the least cost
    |A||B|/(|A|+|B|) * ||c_A - c_B||^2, the rise in the within-cluster
    sum of squares, until k clusters remain. Returns labels numbered by
    each cluster's first member and the costs in merge order.
    """
    clusters = [[i] for i in range(len(X))]
    heights = []
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                A, B = clusters[a], clusters[b]
                gap = X[A].mean(axis=0) - X[B].mean(axis=0)
                cost = len(A) * len(B) / (len(A) + len(B)) * float(gap @ gap)
                if best is None or cost < best[0]:
                    best = (cost, a, b)
        cost, a, b = best
        heights.append(cost)
        clusters[a] = clusters[a] + clusters.pop(b)
    labels = np.empty(len(X), dtype=np.int64)
    for new_id, members in enumerate(sorted(clusters, key=min)):
        labels[members] = new_id
    return labels, heights


class TestHierarchical:
    def test_two_tight_blobs(self):
        X = _blobs([(0, 0), (10, 10)], 15, 0.1, seed=12)
        out = clustering.hierarchical(X, 2)
        assert len(set(out.labels[:15])) == 1
        assert len(set(out.labels[15:])) == 1
        assert out.labels[0] != out.labels[15]

    def test_merge_heights_monotone(self):
        rng = SeededRng(13)
        X = rng.standard_normal((40, 4))
        out = clustering.hierarchical(X, 1)
        heights = out.extras["merge_heights"]
        assert len(heights) == 39
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    def test_first_merge_is_closest_pair(self):
        rng = SeededRng(14)
        X = rng.standard_normal((20, 3))
        out = clustering.hierarchical(X, 19)
        d2 = np.sum((X[:, None] - X[None]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        assert out.extras["merge_heights"][0] == pytest.approx(d2.min() / 2)

    def test_ward_two_singletons_height(self):
        # Ward cost of merging two singletons is ||a-b||^2 / 2
        X = np.array([[0.0, 0.0], [3.0, 4.0], [100.0, 100.0]])
        out = clustering.hierarchical(X, 2)
        assert out.extras["merge_heights"][0] == pytest.approx(25.0 / 2)

    def test_matches_scipy_ward_labels(self):
        # oracle: scipy's ward linkage cut at the same k
        from scipy.cluster.hierarchy import fcluster, linkage
        rng = SeededRng(15)
        X = rng.standard_normal((30, 3))
        for k in (2, 3, 5):
            ours = clustering.hierarchical(X, k).labels
            ref = fcluster(linkage(X, method="ward"), k, criterion="maxclust")
            # same partition up to label names
            pairs_ours = (ours[:, None] == ours[None, :])
            pairs_ref = (ref[:, None] == ref[None, :])
            assert np.array_equal(pairs_ours, pairs_ref)

    def test_heights_match_scipy(self):
        from scipy.cluster.hierarchy import linkage
        rng = SeededRng(16)
        X = rng.standard_normal((25, 4))
        ref = linkage(X, method="ward")[:, 2]  # euclidean merge heights
        ours = np.array(clustering.hierarchical(X, 1).extras["merge_heights"])
        # ours records Ward cost in squared-distance/2 units
        assert np.allclose(np.sqrt(2.0 * ours), ref, atol=1e-8)

    def test_labels_match_brute_force_ward(self):
        for seed, n in ((15, 2), (16, 5), (17, 9), (18, 12)):
            X = SeededRng(seed).standard_normal((n, 3))
            for k in range(1, n + 1):
                labels, heights = _brute_force_ward(X, k)
                out = clustering.hierarchical(X, k)
                np.testing.assert_array_equal(out.labels, labels)
                np.testing.assert_allclose(out.extras["merge_heights"],
                                           heights, rtol=0, atol=1e-9)

    def test_k_n_gives_singletons(self):
        X = _blobs([(0, 0)], 7, 2.0, seed=17)
        out = clustering.hierarchical(X, 7)
        assert len(set(out.labels.tolist())) == 7

    def test_k_range(self):
        # scipy's linkage rejects a single point; n = k = 1 is valid
        one = np.array([[1.5, -2.0]])
        out = clustering.hierarchical(one, 1)
        np.testing.assert_array_equal(out.labels, [0])
        np.testing.assert_array_equal(out.centroids, one)
        assert out.extras["merge_heights"] == []


# ------------------------------------------------------------- DBSCAN

class TestDbscan:
    def test_two_blobs_with_outlier(self):
        X = np.concatenate([_blobs([(0, 0), (10, 10)], 15, 0.2, seed=18),
                            [[100.0, 100.0]]])
        out = clustering.dbscan(X, eps=1.0, min_pts=4)
        assert out.n_clusters == 2
        assert out.labels[-1] == -1

    def test_all_noise_when_eps_below_min_pairwise(self):
        rng = SeededRng(19)
        X = rng.standard_normal((20, 3)) * 10
        d = np.sqrt(np.sum((X[:, None] - X[None]) ** 2, axis=2))
        np.fill_diagonal(d, np.inf)
        out = clustering.dbscan(X, eps=0.5 * d.min(), min_pts=2)
        assert np.all(out.labels == -1)

    def test_chain_is_one_cluster(self):
        # points spaced 1 apart are density-reachable with eps slightly above
        X = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
        out = clustering.dbscan(X, eps=1.1, min_pts=3)
        assert out.n_clusters == 1
        assert np.all(out.labels == 0)

    def test_border_point_joins_cluster(self):
        # dense core plus one border point within eps of a core point
        core = _blobs([(0, 0)], 10, 0.1, seed=20)
        border = np.array([[0.5, 0.0]])
        X = np.concatenate([core, border])
        out = clustering.dbscan(X, eps=0.6, min_pts=8)
        assert out.labels[-1] == out.labels[0] != -1

    def test_default_eps_is_median_knn_distance(self):
        rng = SeededRng(21)
        X = rng.standard_normal((30, 2))
        d = np.sqrt(np.sum((X[:, None] - X[None]) ** 2, axis=2))
        np.fill_diagonal(d, np.inf)
        kth = np.sort(d, axis=1)[:, 3]
        assert clustering.default_eps(X) == pytest.approx(float(np.median(kth)))

    @pytest.mark.parametrize("n", [0, 1])
    def test_default_eps_needs_two_points(self, n):
        # 0 points indexed column -2 of an empty array, and 1 point
        # returned inf, which is not JSON
        with pytest.raises(DataError, match="cluster.eps"):
            clustering.default_eps(np.zeros((n, 2)))


def _bfs_dbscan(X, eps, min_pts):
    """DBSCAN as a breadth-first search from each unlabelled core point in
    index order, on brute-force distances; noise is -1."""
    n = X.shape[0]
    d = np.sqrt(np.sum((X[:, None] - X[None]) ** 2, axis=2))
    neighbors = [np.flatnonzero(d[i] <= eps) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = list(neighbors[i])
        while queue:
            j = queue.pop(0)
            if labels[j] == -1:
                labels[j] = cluster
                if core[j]:
                    queue.extend(neighbors[j])
        cluster += 1
    return labels


class TestDbscanMatchesBfs:
    @pytest.mark.parametrize("seed", range(6))
    def test_integer_grids_with_ties(self, seed):
        # small integer coordinates make every distance exact and tie
        # many of them at eps; n runs from 1 upwards
        rng = np.random.default_rng(seed)
        for n in range(1, 60, 3):
            X = rng.integers(0, 6, size=(n, int(rng.integers(1, 4))))
            X = X.astype(np.float64)
            for eps in (1.0, np.sqrt(2.0), 2.0, 3.0):
                for min_pts in (1, 2, 3, 5):
                    np.testing.assert_array_equal(
                        clustering.dbscan(X, eps, min_pts).labels,
                        _bfs_dbscan(X, eps, min_pts))

    def test_no_core_point_and_single_point(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [3.0, 1.0]])
        np.testing.assert_array_equal(clustering.dbscan(X, 1.0, 3).labels,
                                      [-1, -1, -1, -1])
        np.testing.assert_array_equal(_bfs_dbscan(X, 1.0, 3), [-1] * 4)
        for min_pts in (1, 2):
            np.testing.assert_array_equal(
                clustering.dbscan(X[:1], 0.5, min_pts).labels,
                _bfs_dbscan(X[:1], 0.5, min_pts))

    def test_border_point_takes_the_first_reached_cluster(self):
        # the border point 0 lies within eps of core point 4 (index 4,
        # cluster 1) and of core point -4 (index 9, cluster 0); the BFS
        # of cluster 0 runs first and takes it
        X = np.array([[-8.0], [-7.0], [-6.0], [-5.0], [4.0], [5.0], [6.0],
                      [7.0], [8.0], [-4.0], [0.0]])
        labels = clustering.dbscan(X, 4.0, 4).labels
        np.testing.assert_array_equal(labels, _bfs_dbscan(X, 4.0, 4))
        np.testing.assert_array_equal(labels,
                                      [0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0])

    def test_every_point_is_its_own_neighbour(self):
        # with min_pts 1 every point is core, however small eps is; the
        # distance of a point to itself is an exact 0
        X = np.random.default_rng(5).normal(size=(40, 5)) * 1e3
        np.testing.assert_array_equal(
            clustering.dbscan(X, 2e-5, 1).labels, np.arange(40))


# ----------------------------------------------------------- artifact

class TestAssignmentArtifact:
    def test_roundtrip(self, tmp_path):
        X = _blobs([(0, 0), (5, 5)], 10, 0.3, seed=22)
        out = clustering.kmeans_pp(X, 2, seed=0)
        path = tmp_path / "assign.artifact"
        out.save(path)
        loaded = clustering.ClusterAssignment.load(path)
        assert np.array_equal(loaded.labels, out.labels)
        assert np.array_equal(loaded.centroids, out.centroids)
        assert loaded.inertia == out.inertia
        assert loaded.method == "kmeans"
