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

from vraets import _helper, artifacts
from vraets.errors import DataError
from vraets.numerics import SeededRng, check_coordinates, sq_distances

_EPS = 1e-12
# t-SNE's gradient-descent step, and the factor on P and the number of
# iterations of its early-exaggeration phase
TSNE_LEARNING_RATE = 200.0
TSNE_EARLY_EXAGGERATION = 12.0
TSNE_EXAGGERATION_ITERS = 250
# after the exaggeration phase, no point moves further than this in one
# iteration: P falls twelvefold at its end, and an unclipped step can
# fling a point across to another cluster (openTSNE clips every step at
# 5 by default, `max_step_norm`)
TSNE_MAX_STEP = 5.0


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
        _, meta, arrays = artifacts.load_artifact(
            path, "embedding",
            fields={"method": "a string", "params": "an object",
                    "source_dim": "an integer"},
            arrays={"points": 2}, optional={"labels": 1})
        points, labels = arrays["points"], arrays.get("labels")
        if labels is not None and labels.shape != (points.shape[0],):
            raise DataError(f"{path}: labels have shape {labels.shape} for "
                            f"{points.shape[0]} points")
        check_coordinates(points, path)
        return cls(points, meta["method"], meta["params"],
                   meta["source_dim"]), labels


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Orient each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = np.argmax(np.abs(out[:, j]))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def _top_eigenpairs(A, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs of the symmetric matrix A (an ndarray or
    a scipy sparse array), largest first.

    ARPACK's Lanczos (`eigsh`) finds them to working precision (tol=0)
    from a fixed start vector: without one it draws a start from a
    random stream that carries on between calls, and a second call in
    one process would give other bits. A seeded normal vector, not a
    constant one, which the centred kernel of kernel PCA maps to 0.
    Where ARPACK cannot serve (k + 1 >= n is beyond it) or does not
    converge, the pairs come from scipy.linalg.eigh with
    `subset_by_index` on the dense matrix.
    """
    n = A.shape[0]
    if k + 1 < n:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh
        try:
            # the values come in ascending order
            vals, vecs = eigsh(A, k, which="LA", tol=0,
                               v0=SeededRng(0).standard_normal(n))
        except ArpackNoConvergence:
            pass
        else:
            return vals[::-1], vecs[:, ::-1]
    from scipy.linalg import eigh
    dense = A if isinstance(A, np.ndarray) else A.toarray()
    vals, vecs = eigh(dense, subset_by_index=[n - k, n - 1])
    return vals[::-1], vecs[:, ::-1]


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


def default_gamma(d2: np.ndarray) -> float:
    """1 / median pairwise squared distance (fallback 1.0 if degenerate).

    d2 is the matrix sq_distances(X) returns.
    """
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
    d2 = sq_distances(X)
    if gamma is None:
        gamma = default_gamma(d2)
    # K = exp(-gamma * d2), written over d2
    Kc = np.exp(np.multiply(-gamma, d2, out=d2), out=d2)
    # K is symmetric, so its column means are its row means
    means = Kc.mean(axis=0)
    Kc -= means[None, :]
    Kc -= means[:, None]
    Kc += means.mean()
    eigvals, eigvecs = _top_eigenpairs(Kc, k)
    vals = np.maximum(eigvals, 0.0)
    vecs = _fix_signs(eigvecs)
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
    Pcond = _binary_search_bandwidths(sq_distances(X), perplexity)
    P = (Pcond + Pcond.T) / (2.0 * n)
    return np.maximum(P, _EPS)


def tsne(X: np.ndarray, perplexity: float = 30.0, iterations: int = 1000
         ) -> Embedding:
    """Exact O(N^2) t-SNE to 2D with PCA initialization.

    Gradient descent with momentum (0.5 before, 0.8 after the
    exaggeration phase); after it, each point's step is clipped at
    TSNE_MAX_STEP. extras["kl_trace"] holds one float per
    iteration: KL(P||Q) at every 50th iteration (0, 50, 100, ...) and at
    the last one, nan elsewhere. The PCA init makes the result a
    function of X and the parameters alone.

    The rows split into two fixed blocks at (n // 2) // 8 * 8, a cut
    that depends on n alone. The calling thread works on block 0 and the
    process's one helper thread (`vraets._helper`) on block 1, in two
    phases per iteration with a join after each:
      1. each block forms its rows of num = 1 / (1 + d2), d2 from
         coordinate differences, with zeros on the diagonal, and its
         partial sum of num;
      2. with Z the two partial sums added in block order, each block
         forms Q = max(num / Z, eps), PQ = (P - Q) num (P exaggerated
         in its phase) and its rows of the gradient 4 (s Y - PQ Y), s
         the row sums of PQ; where the trace records the KL, each
         block sums its rows of it, and the KL is the two partial sums
         added in block order.
    Each block runs the same operations on either thread, so the bytes
    do not depend on the core count.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 4:
        raise DataError("tsne: need at least 4 points")
    P = tsne_affinities(X, perplexity)

    init = pca(X, min(2, X.shape[1])).points
    if init.shape[1] < 2:
        init = np.hstack([init, np.zeros((n, 1))])
    spread = init[:, 0].std()
    Y = init * (1e-4 / spread) if spread > 0 else init

    exag_P = TSNE_EARLY_EXAGGERATION * P
    cut = (n // 2) // 8 * 8
    bounds = ((0, cut), (cut, n))
    # per block: num, scratch for d2, Q, PQ and the KL terms, the row
    # sums of PQ and PQ Y
    num = [np.empty((hi - lo, n)) for lo, hi in bounds]
    work = [np.empty((hi - lo, n)) for lo, hi in bounds]
    row_sums = [np.empty(hi - lo) for lo, hi in bounds]
    pq_y = [np.empty((hi - lo, 2)) for lo, hi in bounds]
    partial = [0.0, 0.0]
    kl_part = [0.0, 0.0]
    grad = np.empty((n, 2))

    def affinities(b, coords):
        # coords is Y.T, contiguous. (y_j - y_i)^2 has the bits of
        # (y_i - y_j)^2, and a full array less a column is faster than a
        # row less a column
        lo, hi = bounds[b]
        nb, wb = num[b], work[b]
        np.copyto(wb, coords[0])
        np.subtract(wb, coords[0, lo:hi, None], out=wb)
        np.multiply(wb, wb, out=wb)
        np.copyto(nb, coords[1])
        np.subtract(nb, coords[1, lo:hi, None], out=nb)
        np.multiply(nb, nb, out=nb)
        np.add(wb, nb, out=nb)                # d2
        np.add(1.0, nb, out=nb)
        np.divide(1.0, nb, out=nb)
        nb.reshape(-1)[lo::n + 1] = 0.0       # entries (i, lo + i)
        partial[b] = np.sum(nb)

    def gradient(b, Y, Z, P_it, record):
        lo, hi = bounds[b]
        nb, wb = num[b], work[b]
        np.divide(nb, Z, out=wb)
        np.maximum(wb, _EPS, out=wb)          # Q
        np.subtract(P_it[lo:hi], wb, out=wb)
        np.multiply(wb, nb, out=wb)           # PQ
        s = np.sum(wb, axis=1, out=row_sums[b])
        g = grad[lo:hi]
        np.multiply(s[:, None], Y[lo:hi], out=g)
        np.subtract(g, np.matmul(wb, Y, out=pq_y[b]), out=g)
        np.multiply(4.0, g, out=g)
        if record:
            # Q again, where PQ was
            np.divide(nb, Z, out=wb)
            np.maximum(wb, _EPS, out=wb)
            np.divide(P[lo:hi], wb, out=wb)
            np.log(wb, out=wb)
            np.multiply(P[lo:hi], wb, out=wb)
            kl_part[b] = float(np.sum(wb))

    velocity = np.zeros_like(Y)
    kl_trace = [np.nan] * iterations
    for it in range(iterations):
        exaggerating = it < TSNE_EXAGGERATION_ITERS
        momentum = 0.5 if exaggerating else 0.8
        record = it % 50 == 0 or it == iterations - 1
        coords = Y.T.copy()
        with _helper.beside(affinities, 1, coords):
            affinities(0, coords)
        args = (Y, partial[0] + partial[1], exag_P if exaggerating else P,
                record)
        with _helper.beside(gradient, 1, *args):
            gradient(0, *args)
        if record:
            kl_trace[it] = kl_part[0] + kl_part[1]
        velocity = momentum * velocity - TSNE_LEARNING_RATE * grad
        if not exaggerating:
            step = np.hypot(velocity[:, 0], velocity[:, 1])
            fast = step > TSNE_MAX_STEP
            velocity[fast] *= (TSNE_MAX_STEP / step[fast])[:, None]
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Embedding(Y, "tsne",
                     {"perplexity": perplexity, "iterations": iterations,
                      "learning_rate": TSNE_LEARNING_RATE},
                     X.shape[1], extras={"kl_trace": kl_trace})


def _nearest(d2: np.ndarray, m: int) -> np.ndarray:
    """The first m columns of `np.argsort(d2, axis=1, kind="stable")`,
    for 1 <= m <= n, without sorting whole rows.

    A row's candidates are its entries not above its m-th smallest
    value (so a NaN, which both sorts put last, stays one). A stable
    sort by (row, value) keeps ties in column order, so each row's
    first m candidates are the argsort's first m columns.
    """
    kth = np.partition(d2, m - 1, axis=1)[:, m - 1]
    r, c = np.nonzero(~(d2 > kth[:, None]))
    picked = c[np.lexsort((d2[r, c], r))]
    counts = np.bincount(r, minlength=d2.shape[0])
    starts = np.cumsum(counts) - counts
    return picked[starts[:, None] + np.arange(m)]


def _laplacian_eigenpairs(adj, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m smallest eigenpairs, smallest first, of the symmetric-
    normalized Laplacian L = I - S, S = D^-1/2 A D^-1/2, of the graph
    whose sparse symmetric adjacency A gives every vertex an edge.

    On a connected graph they are the m largest pairs of the sparse S,
    from `_top_eigenpairs`, and L's eigenvalues are 1 - those of S. A
    graph of c components has the eigenvalue 0 c times, and Lanczos from
    one start vector can miss copies of it; there the pairs come from
    scipy.linalg.eigh on the dense L.
    """
    from scipy.sparse import diags_array
    from scipy.sparse.csgraph import connected_components

    dinv = 1.0 / np.sqrt(adj.sum(axis=1))
    n_comp = connected_components(adj, directed=False)[0]
    if n_comp == 1:
        d = diags_array(dinv)
        vals, vecs = _top_eigenpairs(d @ adj @ d, m)
        return 1.0 - vals, vecs
    if n_comp > m:
        warnings.warn(f"kNN graph has {n_comp} connected components; "
                      f"embedding may be degenerate")
    from scipy.linalg import eigh
    n = adj.shape[0]
    lap = np.eye(n) - dinv[:, None] * adj.toarray() * dinv[None, :]
    return eigh(lap, overwrite_a=True, subset_by_index=[0, m - 1])


def spectral_embedding(X: np.ndarray, k_neighbors: int = 10, dims: int = 2
                       ) -> Embedding:
    """Eigenmaps of the symmetric-normalized Laplacian of a kNN graph.

    Only the dims + 1 smallest eigenpairs are computed; the first, the
    trivial one, is dropped.
    """
    from scipy.sparse import csr_array

    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= dims <= n - 1:
        raise DataError(f"spectral_embedding: dims {dims} must be in "
                        f"[1, {n - 1}] for {n} points")
    d2 = sq_distances(X)
    if k_neighbors == 0 or np.max(d2) == 0.0:
        # no edges, or all points coincide: no geometry to embed
        return Embedding(np.zeros((n, dims)), "spectral",
                         {"k_neighbors": k_neighbors, "dims": dims}, X.shape[1])
    # each row's k nearest others: drop the row's own index, or the
    # (k+1)-th pick where duplicates pushed it out
    rows = np.arange(n)
    order = _nearest(d2, k_neighbors + 1)
    keep = order != rows[:, None]
    keep[keep.all(axis=1), k_neighbors] = False
    src, dst = np.repeat(rows, k_neighbors), order[keep]
    edges = csr_array((np.ones(len(src)), (src, dst)), shape=(n, n))
    # the union of the directed kNN edges
    eigvals, eigvecs = _laplacian_eigenpairs(edges.maximum(edges.T), dims + 1)
    coords = _fix_signs(eigvecs[:, 1:])
    return Embedding(coords, "spectral",
                     {"k_neighbors": k_neighbors, "dims": dims}, X.shape[1],
                     extras={"eigenvalues": eigvals})
