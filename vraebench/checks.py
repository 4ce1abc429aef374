"""Output checks computed apart from the program.

Nothing here calls into `vraets` to produce an expected value: the VRAE
forward pass is re-written per timestep in plain numpy, gradients come
from central differences of that re-written loss, accuracy from an
exhaustive search over cluster-to-class maps, Ward from scipy, DBSCAN
from a brute-force eps-graph and window counts from their closed form.
Each check raises `CheckFailed` with the reason; the benchmark's own
test feeds each one a corrupted output and expects that exception.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# the model's floor on the posterior standard deviation (vrae.SIGMA_FLOOR)
SIGMA_FLOOR = 1e-6


class CheckFailed(Exception):
    """An output of the program disagrees with the independent result."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- VRAE

def _sig(a):
    return 1.0 / (1.0 + np.exp(-a))


def _lstm_step(a, c, H):
    """One LSTM cell update from pre-activations a, gate order i, f, o, g."""
    i = _sig(a[:, :H])
    f = _sig(a[:, H:2 * H])
    o = _sig(a[:, 2 * H:3 * H])
    g = np.tanh(a[:, 3 * H:])
    c = f * c + i * g
    return o * np.tanh(c), c


def ref_encoder(params, x, H):
    """Final encoder hidden state of each (L, d) window in x (B, L, d)."""
    B, L, _ = x.shape
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in range(L):
        a = np.concatenate([x[:, t, :], h], axis=1) @ params["enc_W"] \
            + params["enc_b"]
        h, c = _lstm_step(a, c, H)
    return h


def ref_posterior(params, h):
    mu = h @ params["mu_W"] + params["mu_b"]
    s = h @ params["sig_W"] + params["sig_b"]
    sigma = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s))) + SIGMA_FLOOR
    return mu, sigma


def ref_decoder(params, z, L, H):
    """(B, L, d) reconstruction from latents z, with zero decoder inputs."""
    h = z @ params["zh_W"] + params["zh_b"]
    c = z @ params["zc_W"] + params["zc_b"]
    out = []
    for _ in range(L):
        h, c = _lstm_step(h @ params["dec_W"] + params["dec_b"], c, H)
        out.append(h @ params["out_W"] + params["out_b"])
    return np.stack(out, axis=1)


def ref_loss(params, x, H, beta, eps=None, drop_scale=None):
    """Total loss: per-entry MSE plus beta times the batch-mean KL."""
    h = ref_encoder(params, x, H)
    if drop_scale is not None:
        h = h * drop_scale
    mu, sigma = ref_posterior(params, h)
    z = mu if eps is None else mu + sigma * eps
    xhat = ref_decoder(params, z, x.shape[1], H)
    recon = np.mean((x - xhat) ** 2)
    kl = np.mean(0.5 * np.sum(mu ** 2 + sigma ** 2 - 2.0 * np.log(sigma)
                              - 1.0, axis=1))
    return recon + beta * kl


def check_val_loss(params, windows, H, beta, reported, tol=1e-9):
    """The checkpoint's last val_total against the re-written forward."""
    ref = ref_loss(params, windows, H, beta)
    require(abs(ref - reported) <= tol,
            f"val_total {reported!r} differs from reference {ref!r} "
            f"by {abs(ref - reported):.3e}")


def check_latents(params, windows, H, mus, tol=1e-9):
    """Latent means from `encode` against the re-written encoder."""
    mu, _ = ref_posterior(params, ref_encoder(params, windows, H))
    require(mus.shape == mu.shape, f"latents shape {mus.shape}, "
            f"expected {mu.shape}")
    err = float(np.max(np.abs(mus - mu)))
    require(err <= tol, f"latent means differ from reference by {err:.3e}")


def fd_gradient(loss_fn, params, h=1e-6):
    """Central differences of loss_fn over every entry of params."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def check_gradients(analytic, numeric, tol=1e-5):
    """Worst relative error between analytic and finite-difference grads."""
    require(set(analytic) == set(numeric), "gradient names differ")
    worst, where = 0.0, None
    for name in numeric:
        a, n = analytic[name], numeric[name]
        require(a.shape == n.shape, f"gradient {name!r} has shape {a.shape}")
        rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-4)
        if rel.max() > worst:
            worst, where = float(rel.max()), name
    require(worst < tol, f"backward disagrees with finite differences: "
            f"relative error {worst:.3e} in {where!r}")
    return worst


# ------------------------------------------------------------ datasets

def expected_counts(n_sims_per_class: dict, n_steps: int, length: int,
                    stride: int, train_fraction: float):
    """Closed-form window and split counts.

    Each simulation gives floor((T - L) / stride) + 1 windows; the split
    puts round(f * N) windows in train, each class within one window of
    its exact share f * n_c.
    """
    per_sim = (n_steps - length) // stride + 1
    per_class = {c: k * per_sim for c, k in n_sims_per_class.items()}
    total = sum(per_class.values())
    n_train = int(round(train_fraction * total))
    return per_class, total, n_train


def check_split(train_labels, test_labels, n_sims_per_class, n_steps,
                length, stride, train_fraction):
    per_class, total, n_train = expected_counts(
        n_sims_per_class, n_steps, length, stride, train_fraction)
    require(len(train_labels) + len(test_labels) == total,
            f"{len(train_labels) + len(test_labels)} windows, "
            f"closed form gives {total}")
    require(len(train_labels) == n_train,
            f"{len(train_labels)} train windows, closed form gives {n_train}")
    for c, n_c in per_class.items():
        tr = int(np.sum(train_labels == c))
        te = int(np.sum(test_labels == c))
        require(tr + te == n_c, f"class {c}: {tr + te} windows, "
                f"closed form gives {n_c}")
        require(abs(tr - train_fraction * n_c) < 1.0,
                f"class {c}: {tr} train windows, not within one of "
                f"{train_fraction * n_c:g}")


def check_scaled(train_windows, test_windows, scaler_mins, scaler_maxs):
    """Min-max scaling fitted on train maps every train feature onto [-1, 1]."""
    flat = train_windows.reshape(-1, train_windows.shape[-1])
    require(np.allclose(flat.min(axis=0), -1.0, atol=1e-12)
            and np.allclose(flat.max(axis=0), 1.0, atol=1e-12),
            "train windows do not span [-1, 1] in every feature")
    require(np.all(scaler_maxs > scaler_mins), "degenerate scaler")
    require(test_windows.shape[1:] == train_windows.shape[1:],
            "train and test windows differ in shape")


# ---------------------------------------------------------- clustering

def best_accuracy(truth, pred):
    """Accuracy of the best one-to-one cluster-to-class map, by enumeration.

    Every injective map between the smaller and the larger of the two
    label sets is tried; noise (-1) matches no class.
    """
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    classes = sorted(set(truth.tolist()))
    clusters = sorted(set(pred.tolist()) - {-1})
    if not clusters:
        return 0.0
    cm = np.array([[np.sum((truth == t) & (pred == p)) for p in clusters]
                   for t in classes], dtype=np.int64)
    if cm.shape[0] > cm.shape[1]:
        cm = cm.T
    m, n = cm.shape
    if m == 1:
        return int(cm.max()) / len(truth)
    best = 0
    # fix the first row's partner, enumerate the other rows' partners
    # as one n**(m-1) grid and drop the tuples that reuse a column
    grid = np.indices((n,) * (m - 1)).reshape(m - 1, -1)
    distinct = np.ones(grid.shape[1], dtype=bool)
    for r, s in itertools.combinations(range(m - 1), 2):
        distinct &= grid[r] != grid[s]
    for first in range(n):
        ok = distinct & np.all(grid != first, axis=0)
        total = cm[0, first] + sum(cm[r + 1, grid[r, ok]]
                                   for r in range(m - 1))
        best = max(best, int(np.max(total)))
    return best / len(truth)


def check_report(report, truth, pred, floor=None):
    acc = best_accuracy(truth, pred)
    got = report["metrics"]["accuracy"]
    require(abs(got - acc) <= 1e-12,
            f"report accuracy {got!r}, exhaustive matching gives {acc!r}")
    require(abs(report["metrics"]["recall"] - got) <= 1e-12,
            "weighted recall differs from accuracy")
    if floor is not None:
        require(acc >= floor, f"accuracy {acc:.4f} below {floor}")


def sq_dist(X, C):
    """Squared distances between the rows of X and C, by differences."""
    return np.sum((X[:, None, :] - C[None, :, :]) ** 2, axis=2)


def check_kmeans(X, labels, centroids):
    """Every point sits in the cluster of its nearest centroid."""
    d2 = sq_dist(X, centroids)
    own = d2[np.arange(len(X)), labels]
    slack = own - d2.min(axis=1)
    worst = float(slack.max())
    require(worst <= 1e-9 * max(1.0, float(own.max())),
            f"a point is {worst:.3e} farther from its own centroid "
            f"than from the nearest one")


def same_partition(a, b) -> bool:
    """True when labels a and b split the points the same way."""
    pairs = set(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
    return (len(pairs) == len(set(np.asarray(a).tolist()))
            == len(set(np.asarray(b).tolist())))


def check_ward(X, labels, k):
    ref = fcluster(linkage(X, method="ward"), k, criterion="maxclust")
    require(len(set(ref.tolist())) == k, "scipy Ward did not give k clusters")
    require(same_partition(labels, ref),
            "Ward labels differ from scipy.cluster.hierarchy")


def default_eps(X, k=4):
    """Median distance to the k-th nearest other point, by brute force."""
    d = np.sqrt(sq_dist(X, X))
    np.fill_diagonal(d, np.inf)
    return float(np.median(np.sort(d, axis=1)[:, min(k, len(X) - 1) - 1]))


def check_dbscan(X, labels, eps, min_pts):
    """Core points against a brute-force eps-graph.

    Core points are those with at least min_pts points (themselves
    included) within eps. Core points form clusters exactly as the
    connected components of the core-to-core eps-graph; a non-core
    point joins the cluster of one of its core neighbours, or is noise
    (-1) when it has none.
    """
    labels = np.asarray(labels)
    # eps is itself a pairwise distance (a median of neighbour distances),
    # so allow for rounding in how the program computed that distance
    adj = np.sqrt(sq_dist(X, X)) <= eps * (1.0 + 1e-9)
    core = adj.sum(axis=1) >= min_pts
    require(np.all(labels[core] >= 0), "a core point is labelled noise")
    idx = np.flatnonzero(core)
    if idx.size:
        _, comp = connected_components(csr_matrix(adj[np.ix_(idx, idx)]),
                                       directed=False)
        require(same_partition(labels[idx], comp),
                "core points are not clustered as the eps-graph's components")
    for i in np.flatnonzero(~core):
        nb = np.flatnonzero(adj[i] & core)
        if nb.size == 0:
            require(labels[i] == -1, f"point {i} has no core neighbour "
                    f"but label {labels[i]}")
        else:
            require(labels[i] in set(labels[nb].tolist()),
                    f"border point {i} is not in a neighbour's cluster")


def check_perplexity(P, perplexity, tol=1e-3):
    """Each row of the conditional P has entropy log2(perplexity)."""
    require(np.all(np.diag(P) == 0.0), "conditional P has a nonzero diagonal")
    require(np.allclose(P.sum(axis=1), 1.0, atol=1e-9),
            "a conditional P row does not sum to 1")
    for i, row in enumerate(P):
        p = row[row > 0]
        perp = 2.0 ** -np.sum(p * np.log2(p))
        require(abs(perp - perplexity) < tol,
                f"row {i}: perplexity {perp:.6f}, target {perplexity}")


def check_pca(X, points):
    """Scores equal the projection on the top right-singular vectors,
    up to the sign of each component."""
    Xc = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(Xc, full_matrices=False)
    ref = Xc @ vt[:points.shape[1]].T
    for j in range(points.shape[1]):
        err = min(np.max(np.abs(points[:, j] - ref[:, j])),
                  np.max(np.abs(points[:, j] + ref[:, j])))
        require(err <= 1e-9 * max(1.0, float(np.abs(ref).max())),
                f"PCA component {j} differs from the SVD by {err:.3e}")
