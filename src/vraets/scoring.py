"""Cluster-to-truth label matching and anomaly-scoring metrics.

Predicted cluster ids are matched one-to-one to ground-truth classes by
maximizing confusion-matrix agreement (Hungarian assignment); DBSCAN
noise (-1) stays a pseudo-class that matches nothing and counts as an
error everywhere. Precision, recall, and F1 are support-weighted
averages, which makes weighted recall identical to accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from vraets import artifacts
from vraets.clustering import ClusterAssignment
from vraets.dataset import LABEL_NORMAL
from vraets.errors import DataError
from vraets.numerics import sq_distances


def confusion_matrix(truth: np.ndarray, pred: np.ndarray,
                     true_classes, pred_classes) -> np.ndarray:
    cm = np.zeros((len(true_classes), len(pred_classes)), dtype=np.int64)
    t_index = {c: i for i, c in enumerate(true_classes)}
    p_index = {c: i for i, c in enumerate(pred_classes)}
    for t, p in zip(truth, pred):
        cm[t_index[int(t)], p_index[int(p)]] += 1
    return cm


def match_labels(pred: np.ndarray, truth: np.ndarray
                 ) -> tuple[dict[int, int], np.ndarray]:
    """Best one-to-one map from predicted cluster ids to truth classes.

    Returns (mapping, relabeled predictions). Unmatched predicted
    clusters and noise points map to -1.
    """
    # scipy.optimize is slow to import and only this path needs it
    from scipy.optimize import linear_sum_assignment

    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    true_classes = sorted(set(truth.tolist()))
    pred_classes = sorted(c for c in set(pred.tolist()) if c != -1)
    if not pred_classes:
        return {}, np.full_like(pred, -1)
    keep = pred != -1
    cm = confusion_matrix(truth[keep], pred[keep], true_classes, pred_classes)
    # maximize agreement == minimize negated counts
    rows, cols = linear_sum_assignment(-cm)
    mapping = {int(pred_classes[c]): int(true_classes[r])
               for r, c in zip(rows, cols)}
    relabeled = np.array([mapping.get(int(p), -1) for p in pred],
                         dtype=np.int64)
    return mapping, relabeled


def classification_metrics(matched_pred: np.ndarray, truth: np.ndarray
                           ) -> dict:
    """Accuracy and support-weighted precision/recall/F1.

    Points predicted -1 (noise / unmatched) count against recall for
    their true class and belong to no predicted class.
    """
    matched_pred = np.asarray(matched_pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    n = len(truth)
    if n == 0:
        raise DataError("classification_metrics: empty input")
    classes = sorted(set(truth.tolist()))
    accuracy = float(np.mean(matched_pred == truth))
    per_class = {}
    precision = recall = f1 = 0.0
    for c in classes:
        support = int(np.sum(truth == c))
        tp = int(np.sum((truth == c) & (matched_pred == c)))
        pred_c = int(np.sum(matched_pred == c))
        p = tp / pred_c if pred_c else 0.0
        r = tp / support if support else 0.0
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        per_class[c] = {"support": support, "precision": p, "recall": r,
                        "f1": f}
        w = support / n
        precision += w * p
        recall += w * r
        f1 += w * f
    return {"accuracy": accuracy, "precision": precision, "recall": recall,
            "f1": f1, "per_class": per_class}


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D float array, ties sharing their mean rank.

    `scipy.stats.rankdata(values)` bit for bit, by the formula of its
    "average" method: a stable sort, the starts of the runs of equal
    values, and for each run half of (the count before it + the count
    through it + 1). A NaN anywhere makes every rank NaN, as there.
    """
    if np.isnan(values).any():
        return np.full(len(values), np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    count = np.r_[np.flatnonzero(starts), len(values)]
    dense = np.cumsum(starts)
    ranks = np.empty(len(values))
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


def auc_binary(values: np.ndarray, truth: np.ndarray,
               hard_labels: bool = False) -> float:
    """ROC AUC for a binary problem (positive class = 1).

    Continuous scores: rank-based Mann-Whitney statistic with midrank
    tie handling. Hard 0/1 labels: balanced accuracy (TPR + TNR) / 2,
    the area of the two-point ROC curve.
    """
    values = np.asarray(values, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    pos = truth == 1
    neg = truth == 0
    if not pos.any() or not neg.any():
        raise DataError("auc_binary: need both classes present")
    if hard_labels:
        tpr = float(np.mean(values[pos] == 1))
        tnr = float(np.mean(values[neg] != 1))
        return 0.5 * (tpr + tnr)
    ranks = _midranks(values)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    u = float(np.sum(ranks[pos])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def silhouette(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient (euclidean); singletons score 0.

    For each point, a = mean distance to its own cluster (excluding
    itself) and b = smallest mean distance to any other cluster; the
    point's score is (b - a) / max(a, b).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if X.shape[0] != labels.shape[0]:
        raise DataError("silhouette: length mismatch")
    _, inverse, counts = np.unique(labels, return_inverse=True,
                                   return_counts=True)
    if len(counts) < 2:
        raise DataError("silhouette: need at least two clusters")
    rows = np.arange(len(labels))
    # sums[i, c]: the distances from point i to the points of cluster c,
    # summed by one product with a one-hot label matrix
    sums = np.sqrt(sq_distances(X)) @ (inverse[:, None]
                                       == np.arange(len(counts)))
    a = sums[rows, inverse] / np.maximum(counts[inverse] - 1, 1)
    means = sums / counts
    means[rows, inverse] = np.inf
    b = means.min(axis=1)
    scores = np.divide(b - a, np.maximum(a, b), out=np.zeros(len(rows)),
                       where=counts[inverse] > 1)
    return float(scores.mean())


def anomaly_score(X: np.ndarray, assignment: ClusterAssignment,
                  mapping: dict[int, int]) -> np.ndarray:
    """Continuous anomaly score: d(x, normal centroid) - d(x, nearest
    abnormal-matched centroid), for centroids as wide as X and a mapping
    that matches the normal and some abnormal class. Larger means more
    anomalous."""
    X = np.asarray(X, dtype=np.float64)
    cents = assignment.centroids
    normal_ids = [cid for cid, cls in mapping.items() if cls == LABEL_NORMAL]
    abnormal_ids = [cid for cid, cls in mapping.items() if cls != LABEL_NORMAL]
    return (np.sqrt(sq_distances(X, cents[normal_ids])).min(axis=1)
            - np.sqrt(sq_distances(X, cents[abnormal_ids])).min(axis=1))


@dataclass
class ScoreReport:
    """Everything the scoring stage emits for one clustering method."""

    method: str
    confusion: np.ndarray
    mapping: dict[int, int]
    accuracy: float
    auc: float
    precision: float
    recall: float
    f1: float
    per_class: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "confusion": self.confusion.tolist(),
            "mapping": {str(k): v for k, v in sorted(self.mapping.items())},
            "metrics": {"accuracy": self.accuracy, "auc": self.auc,
                        "precision": self.precision, "recall": self.recall,
                        "f1": self.f1},
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
        }
        return artifacts.strict_json(payload, f"{self.method} report",
                                     sort_keys=True, indent=2) + "\n"

    def render_table(self) -> str:
        rows = [("Accuracy", self.accuracy), ("AUC", self.auc),
                ("Precision", self.precision), ("Recall", self.recall),
                ("F1-score", self.f1)]
        width = max(len(name) for name, _ in rows)
        lines = [f"Anomaly scoring results ({self.method})"]
        lines += [f"{name:<{width}}  {value:.4f}" for name, value in rows]
        return "\n".join(lines) + "\n"


def score_assignment(assignment: ClusterAssignment, truth: np.ndarray,
                     points: np.ndarray | None = None) -> ScoreReport:
    """Match clusters to truth and compute the full metric set.

    AUC uses centroid-distance scores when centroids exist and both the
    normal and some abnormal class were matched; otherwise it falls back
    to hard matched labels (balanced accuracy). For multi-class truth
    the AUC is computed on normal-vs-rest.
    """
    truth = np.asarray(truth, dtype=np.int64)
    mapping, matched = match_labels(assignment.labels, truth)
    metrics = classification_metrics(matched, truth)
    binary_truth = (truth != LABEL_NORMAL).astype(np.int64)
    matched_classes = set(mapping.values())
    if (assignment.centroids is not None and points is not None
            and LABEL_NORMAL in matched_classes and len(matched_classes) > 1):
        scores = anomaly_score(points, assignment, mapping)
        auc = auc_binary(scores, binary_truth)
    else:
        hard = np.where(matched == -1, -1,
                        (matched != LABEL_NORMAL).astype(np.int64))
        # noise (-1) predictions are "not flagged normal": count as positive
        hard = np.where(hard == -1, 1, hard)
        auc = auc_binary(hard, binary_truth, hard_labels=True)
    true_classes = sorted(set(truth.tolist()))
    pred_classes = sorted(set(int(p) for p in assignment.labels))
    cm = confusion_matrix(truth, assignment.labels, true_classes, pred_classes)
    return ScoreReport(method=assignment.method, confusion=cm,
                       mapping=mapping, accuracy=metrics["accuracy"],
                       auc=auc, precision=metrics["precision"],
                       recall=metrics["recall"], f1=metrics["f1"],
                       per_class=metrics["per_class"])
