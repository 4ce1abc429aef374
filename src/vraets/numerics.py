"""Deterministic numerics: distances, activations, sampling, Adam, clipping,
grad checks.

All arrays are float64. Random streams come from a counter-based Philox
generator so they are reproducible across platforms. Parameters travel as
ordered dicts of name -> ndarray; every operation here treats them as
caller-owned state and never mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from vraets.errors import DataError, NumericalError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# sq_distances squares coordinates and sums them: above this magnitude a
# square can overflow to inf, and inf - inf is NaN
MAX_COORDINATE = 1e150


class SeededRng(np.random.Generator):
    """Counter-based random source; identical seeds give identical streams."""

    def __init__(self, seed: int):
        super().__init__(np.random.Philox(int(seed)))


def sq_distances(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from each row of X to each row of Y (of X when Y
    is None), as ||x||^2 + ||y||^2 - 2 x.y clipped at 0; X against itself
    is exactly symmetric, with an exact-zero diagonal."""
    sq = np.sum(X * X, axis=1)
    if Y is None:
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.fill_diagonal(d2, 0.0)
    else:
        d2 = sq[:, None] + np.sum(Y * Y, axis=1)[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)


def check_coordinates(X: np.ndarray, path) -> None:
    """Raises a DataError naming `path` unless every entry of X is finite
    and at most MAX_COORDINATE in magnitude."""
    top = float(np.max(np.abs(X), initial=0.0))
    if not top <= MAX_COORDINATE:
        raise DataError(f"{path}: coordinates must be finite and at most "
                        f"{MAX_COORDINATE:g} in magnitude, got {top:g}")


def softplus(x):
    """ln(1 + e^x), overflow-safe for large |x|."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


class AdamState:
    """First/second moment accumulators plus step counter for a param dict."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> dict[str, np.ndarray]:
    """One Adam update with bias correction; mutates state, returns new
    params. grads holds an array of each param's shape under its name."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    out = {}
    for k, p in params.items():
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = state.m[k] / (1.0 - b1 ** t)
        v_hat = state.v[k] / (1.0 - b2 ** t)
        out[k] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_global_norm(grads: dict[str, np.ndarray],
                     max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients jointly so their concatenated norm is <= max_norm
    (> 0); grads already within it come back as they are."""
    norm = global_norm(grads)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}


def finite_difference_gradient(f, params: dict[str, np.ndarray],
                               h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar function of a param dict."""
    if h <= 0:
        raise DataError("finite_difference_gradient: h must be positive")
    grads = {}
    work = {k: v.copy() for k, v in params.items()}
    for name, p in work.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(work)
            flat[i] = orig - h
            fm = f(work)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericalError(
                    f"finite_difference_gradient: non-finite f at {name}[{i}]")
            gflat[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads
