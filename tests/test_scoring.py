"""Scoring tests: Hungarian matching vs brute-force permutation search,
hand-computed metric oracles, Mann-Whitney AUC cross-checks, and report
serialization determinism."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vraets import scoring
from vraets.clustering import ClusterAssignment
from vraets.errors import DataError, NumericalError
from vraets.numerics import SeededRng


# ----------------------------------------------------- label matching

class TestMatchLabels:
    def test_identity(self):
        truth = np.array([0, 0, 1, 1, 2])
        mapping, relabeled = scoring.match_labels(truth, truth)
        assert mapping == {0: 0, 1: 1, 2: 2}
        assert np.array_equal(relabeled, truth)

    def test_swapped_binary_labels(self):
        truth = np.array([0, 0, 1, 1])
        pred = 1 - truth
        mapping, relabeled = scoring.match_labels(pred, truth)
        assert mapping == {0: 1, 1: 0}
        assert np.array_equal(relabeled, truth)

    def test_known_three_class_confusion(self):
        # confusion [[5,0,1],[0,4,0],[2,0,6]] -> identity assignment
        truth = np.concatenate([np.zeros(6), np.ones(4), np.full(8, 2)]) \
            .astype(int)
        pred = np.concatenate([[0] * 5 + [2], [1] * 4, [0, 0] + [2] * 6]) \
            .astype(int)
        mapping, relabeled = scoring.match_labels(pred, truth)
        assert mapping == {0: 0, 1: 1, 2: 2}
        assert np.sum(relabeled == truth) == 15

    def test_agrees_with_brute_force(self):
        # oracle: exhaustive search over assignments for k <= 4
        rng = SeededRng(1)
        for trial in range(20):
            k = 2 + trial % 3
            truth = rng.integers(0, k, ) if False else None
            truth = np.array([rng.integers(0, k) for _ in range(30)])
            pred = np.array([rng.integers(0, k) for _ in range(30)])
            mapping, relabeled = scoring.match_labels(pred, truth)
            got = np.sum(relabeled == truth)
            best = 0
            for perm in itertools.permutations(range(k)):
                agree = sum(np.sum((pred == c) & (truth == perm[c]))
                            for c in range(k))
                best = max(best, agree)
            assert got == best

    def test_noise_stays_unmatched(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, -1, 1, -1])
        mapping, relabeled = scoring.match_labels(pred, truth)
        assert -1 not in mapping
        assert np.array_equal(relabeled, [0, -1, 1, -1])

    def test_all_noise(self):
        truth = np.array([0, 1])
        mapping, relabeled = scoring.match_labels(np.array([-1, -1]), truth)
        assert mapping == {}
        assert np.all(relabeled == -1)

    def test_extra_predicted_clusters_map_to_minus_one(self):
        truth = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([0, 0, 2, 1, 1, 2])
        mapping, relabeled = scoring.match_labels(pred, truth)
        assert set(mapping.keys()) <= {0, 1, 2}
        assert len(mapping) == 2           # only two truth classes to take
        assert np.all(relabeled[pred == 2] == -1) or 2 in mapping


# ------------------------------------------------------------ metrics

class TestClassificationMetrics:
    def test_hand_computed_binary_case(self):
        # confusion: TP=3 FN=1 (class1), TN=4 FP=2 (class0 view)
        truth = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        pred = np.array([1, 1, 1, 0, 0, 0, 0, 0, 1, 1])
        m = scoring.classification_metrics(pred, truth)
        assert m["accuracy"] == pytest.approx(0.7)
        # class 0: p=4/5, r=4/6; class 1: p=3/5, r=3/4
        assert m["per_class"][0]["precision"] == pytest.approx(4 / 5)
        assert m["per_class"][0]["recall"] == pytest.approx(4 / 6)
        assert m["per_class"][1]["precision"] == pytest.approx(3 / 5)
        assert m["per_class"][1]["recall"] == pytest.approx(3 / 4)
        # weighted: support 6 and 4
        assert m["precision"] == pytest.approx(0.6 * 4 / 5 + 0.4 * 3 / 5)
        assert m["recall"] == pytest.approx(0.6 * 4 / 6 + 0.4 * 3 / 4)

    def test_weighted_recall_equals_accuracy(self):
        rng = SeededRng(2)
        for _ in range(50):
            n = 40
            truth = np.array([rng.integers(0, 4) for _ in range(n)])
            pred = np.array([rng.integers(-1, 4) for _ in range(n)])
            m = scoring.classification_metrics(pred, truth)
            assert abs(m["recall"] - m["accuracy"]) < 1e-12

    def test_perfect_prediction(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        m = scoring.classification_metrics(truth, truth)
        for key in ("accuracy", "precision", "recall", "f1"):
            assert m[key] == pytest.approx(1.0)

    def test_empty_input(self):
        with pytest.raises(DataError):
            scoring.classification_metrics(np.array([], dtype=int),
                                           np.array([], dtype=int))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 3)),
                    min_size=2, max_size=60))
    def test_property_recall_identity_and_ranges(self, pairs):
        truth = np.array([t for t, _ in pairs])
        pred = np.array([p for _, p in pairs])
        m = scoring.classification_metrics(pred, truth)
        assert abs(m["recall"] - m["accuracy"]) < 1e-12
        for key in ("accuracy", "precision", "recall", "f1"):
            assert 0.0 <= m[key] <= 1.0


# ---------------------------------------------------------------- AUC

class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9, 1.0])
        truth = np.array([0, 0, 0, 1, 1, 1])
        assert scoring.auc_binary(scores, truth) == pytest.approx(1.0)

    def test_reversed_separation(self):
        scores = np.array([1.0, 0.9, 0.1, 0.2])
        truth = np.array([0, 0, 1, 1])
        assert scoring.auc_binary(scores, truth) == pytest.approx(0.0)

    def test_matches_pair_counting_oracle(self):
        # AUC = P(score_pos > score_neg) + 0.5 P(tie), counted directly
        rng = SeededRng(3)
        for _ in range(20):
            scores = np.round(rng.standard_normal(30), 1)  # force some ties
            truth = (rng.standard_normal(30) > 0).astype(int)
            if truth.all() or not truth.any():
                continue
            pos, neg = scores[truth == 1], scores[truth == 0]
            wins = sum(np.sum(p > neg) + 0.5 * np.sum(p == neg) for p in pos)
            oracle = wins / (len(pos) * len(neg))
            assert scoring.auc_binary(scores, truth) == pytest.approx(oracle)

    @pytest.mark.parametrize("case", [
        "floats", "integer ties", "all equal", "one value", "signed zeros",
        "nan"])
    def test_midranks_equal_rankdata_bit_for_bit(self, case):
        from scipy.stats import rankdata
        rng = np.random.default_rng(52)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            values = {
                "floats": lambda: rng.normal(size=n),
                "integer ties": lambda: rng.integers(-3, 4, n).astype(float),
                "all equal": lambda: np.full(n, 2.5),
                "one value": lambda: rng.normal(size=1),
                "signed zeros": lambda: rng.choice([-0.0, 0.0, 1.0], n),
                "nan": lambda: np.where(rng.random(n) < 0.2, np.nan,
                                        rng.normal(size=n)),
            }[case]()
            got, want = scoring._midranks(values), rankdata(values)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_hard_labels_balanced_accuracy(self):
        truth = np.array([1, 1, 1, 1, 0, 0])
        pred = np.array([1, 1, 1, 0, 0, 1])
        # TPR = 3/4, TNR = 1/2
        assert scoring.auc_binary(pred, truth, hard_labels=True) \
            == pytest.approx(0.5 * (0.75 + 0.5))

    def test_single_class_errors(self):
        with pytest.raises(DataError):
            scoring.auc_binary(np.ones(4), np.ones(4, dtype=int))


# ------------------------------------------------------ anomaly score

class TestAnomalyScore:
    def test_sign_reflects_nearest_centroid(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0], [5.1, 5.1]])
        assignment = ClusterAssignment(
            labels=np.array([0, 1, 1]), method="kmeans",
            centroids=np.array([[0.0, 0.0], [10.0, 10.0]]))
        mapping = {0: 0, 1: 1}
        s = scoring.anomaly_score(X, assignment, mapping)
        assert s[0] < 0          # at the normal centroid
        assert s[1] > 0          # at the abnormal centroid
        assert s[2] > 0          # slightly nearer abnormal


# ---------------------------------------------------------- silhouette

def _silhouette_per_point(X, labels):
    """Mean silhouette from the definition, one point at a time."""
    scores = []
    for i in range(len(X)):
        d = np.linalg.norm(X - X[i], axis=1)
        own = labels == labels[i]
        if own.sum() == 1:
            scores.append(0.0)
            continue
        a = d[own].sum() / (own.sum() - 1)
        b = min(d[labels == c].mean() for c in set(labels.tolist())
                if c != labels[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


class TestSilhouette:
    @pytest.mark.parametrize("n, k, seed", [(10, 2, 0), (10, 3, 1),
                                            (60, 4, 2), (150, 5, 3)])
    def test_matches_per_point_definition(self, n, k, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        X = rng.normal(size=(n, 3)) + labels[:, None]
        assert scoring.silhouette(X, labels) == pytest.approx(
            _silhouette_per_point(X, labels), rel=0, abs=1e-12)

    def test_singleton_scores_zero(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
        labels = np.array([0, 0, 5])
        # the pair: a = 1, b = the mean distance to the singleton
        b = np.linalg.norm(X[:2] - X[2], axis=1)
        expected = np.sum((b - 1.0) / b) / 3
        assert scoring.silhouette(X, labels) == pytest.approx(expected,
                                                              abs=1e-15)
        assert scoring.silhouette(X, labels) == pytest.approx(
            _silhouette_per_point(X, labels), abs=1e-15)

    def test_errors(self):
        with pytest.raises(DataError, match="two clusters"):
            scoring.silhouette(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(DataError, match="length"):
            scoring.silhouette(np.zeros((3, 2)), np.array([0, 1]))


# ------------------------------------------------------- score report

class TestScoreReport:
    def _make(self, seed=4):
        rng = SeededRng(seed)
        X = np.concatenate([rng.standard_normal((20, 2)),
                            rng.standard_normal((10, 2)) + 8.0])
        truth = np.array([0] * 20 + [1] * 10)
        from vraets.clustering import kmeans_pp
        return scoring.score_assignment(kmeans_pp(X, 2, seed=0), truth, X)

    def test_full_report_populated(self):
        rep = self._make()
        assert rep.accuracy == pytest.approx(1.0)
        assert rep.auc == pytest.approx(1.0)
        assert rep.recall == pytest.approx(rep.accuracy, abs=1e-12)
        assert rep.confusion.shape == (2, 2)
        assert set(rep.mapping.values()) == {0, 1}

    def test_json_roundtrip_and_determinism(self):
        rep = self._make()
        a, b = rep.to_json(), rep.to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["metrics"]["accuracy"] == rep.accuracy
        assert payload["method"] == "kmeans"
        assert payload["confusion"] == rep.confusion.tolist()

    def test_non_finite_metric_is_numerical_error(self):
        rep = self._make()
        rep.auc = float("nan")
        with pytest.raises(NumericalError, match="kmeans report"):
            rep.to_json()

    def test_render_table_mirrors_metrics(self):
        rep = self._make()
        table = rep.render_table()
        for name, value in (("Accuracy", rep.accuracy), ("AUC", rep.auc),
                            ("Precision", rep.precision),
                            ("Recall", rep.recall), ("F1-score", rep.f1)):
            assert f"{value:.4f}" in table
            assert name in table

    def test_dbscan_noise_fallback_auc(self):
        # all noise -> hard-label fallback, noise counted as flagged
        truth = np.array([0, 0, 1, 1])
        assignment = ClusterAssignment(labels=np.array([-1, -1, -1, -1]),
                                       method="dbscan")
        rep = scoring.score_assignment(assignment, truth)
        # every point flagged abnormal: TPR=1, TNR=0
        assert rep.auc == pytest.approx(0.5)
        assert rep.accuracy == pytest.approx(0.0)

    def test_multiclass_auc_is_normal_vs_rest(self):
        rng = SeededRng(5)
        X = np.concatenate([rng.standard_normal((15, 2)),
                            rng.standard_normal((10, 2)) + 10.0,
                            rng.standard_normal((10, 2)) - 10.0])
        truth = np.array([0] * 15 + [1] * 10 + [2] * 10)
        from vraets.clustering import kmeans_pp
        rep = scoring.score_assignment(kmeans_pp(X, 3, seed=1), truth, X)
        assert rep.accuracy == pytest.approx(1.0)
        assert rep.auc == pytest.approx(1.0)
