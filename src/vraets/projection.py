"""Projections of latent vectors to low dimensions for plots and clustering.

PCA, RBF kernel PCA, exact t-SNE with per-point bandwidth search, and
spectral embedding of a symmetric kNN graph. All methods are
deterministic and permutation-equivariant; t-SNE is initialized from
PCA scores so reordering the input reorders the embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from vraets import artifacts
from vraets.errors import DataError

_EPS = 1e-12
# t-SNE's gradient-descent step, and the factor on P and the number of
# iterations of its early-exaggeration phase
TSNE_LEARNING_RATE = 200.0
TSNE_EARLY_EXAGGERATION = 12.0
TSNE_EXAGGERATION_ITERS = 250


@dataclass
class Embedding:
    """Projected points with the method tag and parameters that made them."""

    points: np.ndarray
    method: str
    params: dict = field(default_factory=dict)
    source_dim: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if not np.all(np.isfinite(self.points)):
            raise DataError(f"{self.method}: non-finite embedding coordinates")

    def save(self, path, labels: np.ndarray | None = None) -> None:
        arrays = {"points": self.points}
        if labels is not None:
            arrays["labels"] = np.asarray(labels, dtype=np.int64)
        meta = {"method": self.method, "params": self.params,
                "source_dim": self.source_dim}
        artifacts.save_artifact(path, "embedding", meta, arrays)

    @classmethod
    def load(cls, path) -> tuple["Embedding", np.ndarray | None]:
        _, meta, arrays = artifacts.load_artifact(path, expect_kind="embedding")
        artifacts.require_keys(path, meta, arrays,
                               ("method", "params", "source_dim"), ("points",))
        points, labels = arrays["points"], arrays.get("labels")
        source_dim = meta["source_dim"]
        if type(source_dim) is not int:
            raise DataError(f"{path}: source_dim must be an integer, got "
                            f"{source_dim!r}")
        if points.ndim != 2:
            raise DataError(f"{path}: points must be 2-D, got shape "
                            f"{points.shape}")
        if labels is not None and labels.shape != (points.shape[0],):
            raise DataError(f"{path}: labels have shape {labels.shape} for "
                            f"{points.shape[0]} points")
        return cls(points, meta["method"], meta["params"], source_dim), labels


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Orient each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = np.argmax(np.abs(out[:, j]))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def pca(X: np.ndarray, k: int = 2) -> Embedding:
    """Principal components via symmetric eigendecomposition of the covariance."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise DataError("pca: need at least 2 points")
    if not 1 <= k <= min(n, d):
        raise DataError(f"pca: k={k} out of range for {n}x{d} data")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    components = _fix_signs(eigvecs[:, order])
    variances = np.maximum(eigvals[order], 0.0)
    scores = Xc @ components
    return Embedding(scores, "pca", {"k": k}, d,
                     extras={"components": components,
                             "explained_variance": variances,
                             "mean": mean})


def _sq_distances(X: np.ndarray) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def default_gamma(X: np.ndarray) -> float:
    """1 / median pairwise squared distance (fallback 1.0 if degenerate)."""
    d2 = _sq_distances(np.asarray(X, dtype=np.float64))
    iu = np.triu_indices(d2.shape[0], k=1)
    med = float(np.median(d2[iu])) if iu[0].size else 0.0
    return 1.0 / med if med > 0 else 1.0


def kernel_pca_rbf(X: np.ndarray, k: int = 2, gamma: float | None = None
                   ) -> Embedding:
    """RBF kernel PCA: double-centered kernel, scores scaled by sqrt(eigval).

    K is centred with its column, row and grand means, and only the top
    k eigenpairs of the centred matrix are computed.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"kernel_pca_rbf: k={k} out of range for {n} points")
    if gamma is None:
        gamma = default_gamma(X)
    if gamma <= 0:
        raise DataError(f"kernel_pca_rbf: gamma must be positive, got {gamma}")
    Kc = np.exp(-gamma * _sq_distances(X))
    # K is symmetric, so its column means are its row means
    means = Kc.mean(axis=0)
    Kc -= means[None, :]
    Kc -= means[:, None]
    Kc += means.mean()
    eigvals, eigvecs = eigh(Kc, overwrite_a=True,
                            subset_by_index=[n - k, n - 1])
    vals = np.maximum(eigvals[::-1], 0.0)
    vecs = _fix_signs(eigvecs[:, ::-1])
    scores = vecs * np.sqrt(vals)[None, :]
    return Embedding(scores, "kernel_pca_rbf", {"k": k, "gamma": gamma},
                     X.shape[1], extras={"eigenvalues": vals})


def _binary_search_bandwidths(d2: np.ndarray, perplexity: float,
                              tol: float = 1e-5, max_iter: int = 100
                              ) -> np.ndarray:
    """Per-point conditional distributions matching log2(perplexity) entropy.

    Each row bisects its own precision beta; all rows still searching
    step together, and a row leaves the search once its entropy is
    within tol of the target. A row gets the same bits as a search over
    that row alone.
    """
    n = d2.shape[0]
    target = np.log2(perplexity)
    # (n, n - 1): row i of d2 without its diagonal entry
    off = d2.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    cond = np.empty((n, n - 1))
    beta = np.ones(n)
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    rows = np.arange(n)
    for it in range(max_iter):
        # -d * beta as d * -beta: the same product, bit for bit
        p = (off if rows.size == n else off[rows]) * -beta[rows, None]
        np.exp(p, out=p)
        s = np.sum(p, axis=1)
        empty = s <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(p, s[:, None], out=p)
            p[empty] = 0.0
            terms = np.log2(p)
            terms *= p                  # nan where p underflowed to 0
        h = -np.sum(terms, axis=1)
        # zeros between the nonzero terms would change how the sum pairs
        # them, so rows with a zero sum their nonzero terms alone
        for r in np.flatnonzero(np.isnan(h) & ~empty):
            h[r] = -np.sum(terms[r][p[r] > 0])
        h[empty] = 0.0
        done = np.abs(h - target) < tol
        if it == max_iter - 1:
            done[:] = True
        cond[rows[done]] = p[done]
        up = rows[~done & (h > target)]
        down = rows[~done & ~(h > target)]
        lo[up] = beta[up]
        beta[up] = np.where(hi[up] == np.inf, beta[up] * 2.0,
                            (beta[up] + hi[up]) / 2.0)
        hi[down] = beta[down]
        beta[down] = (lo[down] + beta[down]) / 2.0
        rows = rows[~done]
        if rows.size == 0:
            break
    P = np.zeros((n, n))
    P.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1] = cond.reshape(n - 1, n)
    return P


def tsne_affinities(X: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized, normalized joint affinities used by t-SNE."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1.0 < perplexity < n:
        raise DataError(f"tsne: perplexity {perplexity} out of (1, {n})")
    Pcond = _binary_search_bandwidths(_sq_distances(X), perplexity)
    P = (Pcond + Pcond.T) / (2.0 * n)
    return np.maximum(P, _EPS)


def tsne(X: np.ndarray, perplexity: float = 30.0, iterations: int = 1000
         ) -> Embedding:
    """Exact O(N^2) t-SNE to 2D with PCA initialization.

    Gradient descent with momentum (0.5 before, 0.8 after the
    exaggeration phase). extras["kl_trace"] holds one float per
    iteration: KL(P||Q) at every 50th iteration (0, 50, 100, ...) and at
    the last one, nan elsewhere. The PCA init makes the result a
    function of X and the parameters alone.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 4:
        raise DataError("tsne: need at least 4 points")
    if iterations < 1:
        raise DataError(f"tsne: iterations must be at least 1, "
                        f"got {iterations}")
    P = tsne_affinities(X, perplexity)

    k0 = min(2, X.shape[1], n - 1) if min(n, X.shape[1]) >= 2 else 1
    init = pca(X, k0).points
    if init.shape[1] < 2:
        init = np.hstack([init, np.zeros((n, 1))])
    spread = init[:, 0].std()
    Y = init * (1e-4 / spread) if spread > 0 else init

    # two n x n buffers take every step of every iteration, in the
    # operation order of _sq_distances and of the plain formulas, so the
    # bits match them; only the KL, at one iteration in 50, allocates.
    # Off the diagonal 0 - PQ, not -PQ, gives the bits np.diag(s) - PQ
    # gave, down to the sign of a zero
    A = np.empty((n, n))
    B = np.empty((n, n))
    exag_P = TSNE_EARLY_EXAGGERATION * P
    velocity = np.zeros_like(Y)
    kl_trace = [np.nan] * iterations
    for it in range(iterations):
        exaggerating = it < TSNE_EXAGGERATION_ITERS
        momentum = 0.5 if exaggerating else 0.8
        sq = np.sum(Y * Y, axis=1)
        np.matmul(Y, Y.T, out=A)
        np.add(sq[:, None], sq[None, :], out=B)
        np.multiply(2.0, A, out=A)
        np.subtract(B, A, out=B)
        np.fill_diagonal(B, 0.0)
        np.maximum(B, 0.0, out=B)             # B = d2
        np.add(1.0, B, out=B)
        np.divide(1.0, B, out=B)
        np.fill_diagonal(B, 0.0)              # B = num
        np.divide(B, np.sum(B), out=A)
        np.maximum(A, _EPS, out=A)            # A = Q
        if it % 50 == 0 or it == iterations - 1:
            kl_trace[it] = float(np.sum(P * np.log(P / A)))
        np.subtract(exag_P if exaggerating else P, A, out=A)
        np.multiply(A, B, out=A)              # A = PQ
        s = A.sum(axis=1)
        np.subtract(0.0, A, out=B)
        np.fill_diagonal(B, s - A.diagonal())  # B = diag(s) - PQ
        grad = 4.0 * (B @ Y)
        velocity = momentum * velocity - TSNE_LEARNING_RATE * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Embedding(Y, "tsne",
                     {"perplexity": perplexity, "iterations": iterations,
                      "learning_rate": TSNE_LEARNING_RATE},
                     X.shape[1], extras={"kl_trace": kl_trace, "P": P})


def spectral_embedding(X: np.ndarray, k_neighbors: int = 10, dims: int = 2
                       ) -> Embedding:
    """Eigenmaps of the symmetric-normalized Laplacian of a kNN graph.

    Only the dims + 1 smallest eigenpairs are computed; the first, the
    trivial one, is dropped.
    """
    from scipy.sparse.csgraph import connected_components

    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 0 <= k_neighbors < n:
        raise DataError(f"spectral_embedding: k_neighbors {k_neighbors} "
                        f"must be in [0, {n})")
    if not 1 <= dims <= n - 1:
        raise DataError(f"spectral_embedding: dims {dims} must be in "
                        f"[1, {n - 1}] for {n} points")
    d2 = _sq_distances(X)
    if np.max(d2) == 0.0:
        # all points coincide: no geometry to embed
        return Embedding(np.zeros((n, dims)), "spectral",
                         {"k_neighbors": k_neighbors, "dims": dims}, X.shape[1])
    # each row's k nearest others in stable order: drop the row's own
    # index, or the (k+1)-th pick where duplicates pushed it out; the
    # copy frees the full n x n argsort, which a view would keep alive
    rows = np.arange(n)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k_neighbors + 1].copy()
    keep = order != rows[:, None]
    keep[keep.all(axis=1), k_neighbors] = False
    adj = np.zeros((n, n))
    adj[np.repeat(rows, k_neighbors), order[keep]] = 1.0
    adj = np.maximum(adj, adj.T)  # union of directed kNN edges

    deg = adj.sum(axis=1)
    if np.all(deg == 0):
        return Embedding(np.zeros((n, dims)), "spectral",
                         {"k_neighbors": k_neighbors, "dims": dims}, X.shape[1])
    n_comp = connected_components(adj, directed=False)[0]
    if n_comp > dims + 1:
        warnings.warn(f"kNN graph has {n_comp} connected components; "
                      f"embedding may be degenerate")
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    lap = np.eye(n) - dinv[:, None] * adj * dinv[None, :]
    eigvals, eigvecs = eigh(lap, overwrite_a=True, subset_by_index=[0, dims])
    coords = _fix_signs(eigvecs[:, 1:])
    return Embedding(coords, "spectral",
                     {"k_neighbors": k_neighbors, "dims": dims}, X.shape[1],
                     extras={"eigenvalues": eigvals})
