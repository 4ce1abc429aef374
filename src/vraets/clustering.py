"""Unsupervised clustering: k-means++, Ward agglomerative, DBSCAN.

All methods return a ClusterAssignment with labels in {-1, 0..k-1};
-1 marks DBSCAN noise. Results are deterministic given (data, seed,
parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from vraets import artifacts
from vraets.errors import DataError
from vraets.numerics import SeededRng, sq_distances

# k-means++: Lloyd iterations per restart, the centre shift that ends
# them, and the number of seeded restarts
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-7
KMEANS_RESTARTS = 10
# DBSCAN's default eps is the median distance to this nearest neighbour
EPS_NEIGHBOUR = 4


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    method: str
    params: dict = field(default_factory=dict)
    centroids: np.ndarray | None = None
    inertia: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n_clusters(self) -> int:
        return int(len(set(self.labels[self.labels >= 0])))

    def save(self, path) -> None:
        arrays = {"labels": self.labels}
        if self.centroids is not None:
            arrays["centroids"] = self.centroids
        meta = {"method": self.method, "params": self.params,
                "inertia": self.inertia}
        artifacts.save_artifact(path, "assignment", meta, arrays)

    @classmethod
    def load(cls, path) -> "ClusterAssignment":
        _, meta, arrays = artifacts.load_artifact(
            path, "assignment",
            fields={"method": "a string", "params": "an object"},
            arrays={"labels": 1}, optional={"centroids": 2})
        labels, centroids = arrays["labels"], arrays.get("centroids")
        top = int(labels.max(initial=-1))
        if centroids is not None and centroids.shape[0] <= top:
            raise DataError(f"{path}: centroids have {centroids.shape[0]} "
                            f"rows for cluster id {top}")
        return cls(labels, meta["method"], meta["params"], centroids,
                   meta.get("inertia"))


def _kmeans_seed(X: np.ndarray, k: int, rng: SeededRng) -> np.ndarray:
    """k-means++ D^2 seeding."""
    n = X.shape[0]
    centers = [X[rng.integers(0, n)]]
    for _ in range(1, k):
        d2 = sq_distances(X, np.array(centers)).min(axis=1)
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(0, n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers.append(X[idx])
    return np.array(centers)


def _lloyd(X: np.ndarray, centers: np.ndarray):
    inertia_trace = []
    labels = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = sq_distances(X, centers)
        labels = d2.argmin(axis=1)
        inertia_trace.append(float(d2[np.arange(len(X)), labels].sum()))
        new_centers = centers.copy()
        for j in range(centers.shape[0]):
            members = X[labels == j]
            if len(members) == 0:
                # re-seed an emptied cluster at the farthest point
                far = d2.min(axis=1).argmax()
                new_centers[j] = X[far]
            else:
                new_centers[j] = members.mean(axis=0)
        shift = float(np.sqrt(np.sum((new_centers - centers) ** 2)))
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = sq_distances(X, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(X)), labels].sum())
    inertia_trace.append(inertia)
    return labels, centers, inertia, inertia_trace


def kmeans_pp(X: np.ndarray, k: int, seed: int = 0) -> ClusterAssignment:
    """k-means++ with Lloyd iterations; best of KMEANS_RESTARTS seeded runs."""
    X = np.asarray(X, dtype=np.float64)
    best = None
    for r in range(KMEANS_RESTARTS):
        centers = _kmeans_seed(X, k, SeededRng(seed * 1_000_003 + r))
        labels, centers, inertia, trace = _lloyd(X, centers)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia, trace)
    labels, centers, inertia, trace = best
    return ClusterAssignment(labels, "kmeans",
                             {"k": k, "seed": seed,
                              "max_iter": KMEANS_MAX_ITER, "tol": KMEANS_TOL,
                              "restarts": KMEANS_RESTARTS},
                             centroids=centers, inertia=inertia,
                             extras={"inertia_trace": trace})


def hierarchical(X: np.ndarray, k: int) -> ClusterAssignment:
    """Agglomerative clustering cut at k clusters (Ward linkage).

    The merges come from scipy's nearest-neighbour-chain Ward (Muellner,
    arXiv:1109.2378); clusters are numbered by their first member.
    merge_heights holds each merge's Ward cost, the rise in the
    within-cluster sum of squares, so it is non-decreasing.
    """
    from scipy.cluster.hierarchy import cut_tree, linkage

    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n == 1:
        labels, merge_heights = np.zeros(1, dtype=np.int64), []
    else:
        Z = linkage(X, method="ward")
        labels = cut_tree(Z, n_clusters=k)[:, 0]
        # scipy's height is sqrt(2 * cost)
        merge_heights = (Z[:n - k, 2] ** 2 / 2).tolist()
    return ClusterAssignment(labels, "hierarchical",
                             {"k": k, "linkage": "ward"},
                             centroids=np.array([X[labels == j].mean(axis=0)
                                                 for j in range(k)]),
                             extras={"merge_heights": merge_heights})


def default_eps(X: np.ndarray) -> float:
    """Median distance to the EPS_NEIGHBOUR-th nearest neighbor."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise DataError(f"dbscan: the default eps needs at least 2 points, "
                        f"got {n}; set cluster.eps")
    d = np.sqrt(sq_distances(X))
    np.fill_diagonal(d, np.inf)
    kth = np.sort(d, axis=1)[:, min(EPS_NEIGHBOUR, n - 1) - 1]
    med = float(np.median(kth))
    return med if med > 0 else 1.0


def dbscan(X: np.ndarray, eps: float, min_pts: int = 4) -> ClusterAssignment:
    """Classic core/border/noise DBSCAN; noise labeled -1.

    Clusters are the connected components of the core points' eps-graph
    (Ester et al., KDD 1996), numbered by their first core point; a
    border point joins the lowest-numbered one among its core neighbours.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    near = np.sqrt(sq_distances(X)) <= eps
    core = np.flatnonzero(near.sum(axis=1) >= min_pts)
    labels = np.full(n, -1, dtype=np.int64)
    if core.size:
        comp = connected_components(csr_array(near[core][:, core]),
                                    directed=False)[1]
        # n where a point has no core neighbour; a core point's core
        # neighbours are all in its own cluster
        lowest = np.where(near[:, core], comp, n).min(axis=1)
        labels[lowest < n] = lowest[lowest < n]
    return ClusterAssignment(labels, "dbscan",
                             {"eps": eps, "min_pts": min_pts})
