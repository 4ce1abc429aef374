"""Variational recurrent autoencoder with analytic backpropagation.

Architecture: an LSTM encoder reads each window and its final hidden
state feeds two heads, an affine mean head and a softplus standard
deviation head, parametrizing a diagonal Gaussian posterior. A latent
sample (reparametrization trick) is mapped affinely to the initial
hidden and cell states of an LSTM decoder that runs with zero inputs
and reconstructs the window through an affine output head. The loss is
mean squared reconstruction error plus a KL term against the standard
normal prior, weighted by a (possibly cyclically annealed) beta.

All gradients are computed analytically via backpropagation through
time and are validated against central finite differences in the test
suite. Everything is float64 numpy and deterministic under a seed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from vraets import artifacts
from vraets import _helper, _kernels, _twin
from vraets.dataset import WindowedDataset
from vraets.errors import DataError, NumericalError
from vraets.numerics import (AdamState, SeededRng, adam_step, clip_global_norm,
                             softplus)

SIGMA_FLOOR = 1e-6


def _require_ints(obj, *names: str) -> None:
    """An int field holds an integer: 2.5 would run, and 3.0 would fail
    deep in numpy; a bool is not one."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DataError(f"{name} must be an integer, got {value!r}")


@dataclass
class AnnealSchedule:
    """KL weight schedule: constant beta_max or cyclical 0 -> beta_max ramps."""

    mode: str = "constant"
    cycles: int = 4
    ramp_fraction: float = 0.5
    beta_max: float = 1.0

    def __post_init__(self):
        _require_ints(self, "cycles")
        if self.mode not in ("constant", "cyclical"):
            raise DataError(f"unknown anneal mode {self.mode!r}")
        if not 0.0 < self.ramp_fraction <= 1.0:
            raise DataError("ramp_fraction must be in (0, 1]")
        if self.cycles < 1:
            raise DataError("cycles must be >= 1")
        if self.beta_max < 0:
            raise DataError("beta_max must be >= 0")


def beta_at(schedule: AnnealSchedule, global_step: int, total_steps: int) -> float:
    """KL weight at a step in [0, total_steps); per cycle, ramp then hold."""
    if schedule.mode == "constant":
        return schedule.beta_max
    cycle_len = total_steps / schedule.cycles
    pos = (global_step % cycle_len) / cycle_len
    if pos >= schedule.ramp_fraction:
        return schedule.beta_max
    return schedule.beta_max * pos / schedule.ramp_fraction


@dataclass
class VraeConfig:
    input_dim: int
    hidden_units: int
    latent_dim: int
    learning_rate: float = 5e-4
    dropout_rate: float = 0.2
    clip_norm: float = 5.0
    batch_size: int = 64
    epochs: int = 200
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    seed: int = 0

    def __post_init__(self):
        _require_ints(self, "input_dim", "hidden_units", "latent_dim",
                      "batch_size", "epochs", "seed")
        if min(self.input_dim, self.hidden_units, self.latent_dim) < 1:
            raise DataError("all model dimensions must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DataError("dropout_rate must be in [0, 1)")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        # written so that NaN, which a checkpoint's JSON can hold, fails too
        if not self.clip_norm > 0:
            raise DataError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "VraeConfig":
        d = dict(d)
        d["anneal"] = AnnealSchedule(**d["anneal"])
        return cls(**d)


def param_shapes(config: VraeConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter; a weight's fan-in is its first axis."""
    d, h, z = config.input_dim, config.hidden_units, config.latent_dim
    return {
        "enc_W": (d + h, 4 * h), "enc_b": (4 * h,),
        "mu_W": (h, z), "mu_b": (z,),
        "sig_W": (h, z), "sig_b": (z,),
        "zh_W": (z, h), "zh_b": (h,),
        "zc_W": (z, h), "zc_b": (h,),
        "dec_W": (h, 4 * h), "dec_b": (4 * h,),
        "out_W": (h, d), "out_b": (d,),
    }


def init_weights(config: VraeConfig, rng: SeededRng) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) weights, drawn in param_shapes order;
    zero biases, except forget-gate biases, which start at 1.0."""
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            lim = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-lim, lim, shape)
    h = config.hidden_units
    params["enc_b"][h:2 * h] = 1.0
    params["dec_b"][h:2 * h] = 1.0
    return params


def encoder_forward(params: dict, x: np.ndarray):
    """Runs the encoder LSTM over a float64 (B, L, d) batch from zero state;
    `enc_W` has d + H rows.

    Returns the final hidden state (B, H), H from `enc_W`, and the state
    cache needed by the backward pass, which includes an (L, d, B) copy of
    the input. The input projection W_x^T x_t is computed from that copy
    for all timesteps in one matmul, straight into the kernels'
    batch-innermost storage; the recurrence runs in `_kernels.lstm_forward`.
    """
    batch, length, d = x.shape
    n_h = params["enc_W"].shape[1] // 4
    x_tm = np.ascontiguousarray(x.transpose(1, 2, 0))
    x_proj = np.matmul(params["enc_W"][:d].T, x_tm)
    x_proj += params["enc_b"][:, None]
    zeros = np.zeros((batch, n_h))
    h_all, c_all, gates, tanhc = _kernels.lstm_forward(
        x_proj.transpose(0, 2, 1), params["enc_W"][d:], zeros, zeros)
    cache = {"h_all": h_all, "c_all": c_all, "gates": gates, "tanhc": tanhc,
             "x": x_tm}
    return h_all[length].copy(), cache


def posterior_params(params: dict, h_final: np.ndarray):
    """Affine mean head; softplus + floor standard-deviation head."""
    mu = h_final @ params["mu_W"] + params["mu_b"]
    s_pre = h_final @ params["sig_W"] + params["sig_b"]
    sigma = softplus(s_pre) + SIGMA_FLOOR
    return mu, sigma, s_pre


def decoder_forward(params: dict, z: np.ndarray, length: int):
    """Decodes a (B, latent) batch z into (B, L, d); zero decoder inputs."""
    h0 = z @ params["zh_W"] + params["zh_b"]
    c0 = z @ params["zc_W"] + params["zc_b"]
    # zero inputs: the input-side pre-activation is the bias at every step
    x_proj = np.broadcast_to(params["dec_b"],
                             (length, z.shape[0]) + params["dec_b"].shape)
    h_all, c_all, gates, tanhc = _kernels.lstm_forward(
        x_proj, params["dec_W"], h0, c0)
    # (L, d, B), like the encoder's input copy
    xhat_tm = np.matmul(params["out_W"].T, h_all[1:].transpose(0, 2, 1))
    xhat_tm += params["out_b"][:, None]
    xhat = xhat_tm.transpose(2, 0, 1).copy()
    cache = {"h_all": h_all, "c_all": c_all, "gates": gates, "tanhc": tanhc,
             "z": z, "xhat": xhat_tm}
    return xhat, cache


def kl_divergence(mu: np.ndarray, sigma: np.ndarray) -> float:
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)) of (B, latent)
    batches, summed over dims and averaged over the batch."""
    per_sample = 0.5 * np.sum(mu ** 2 + sigma ** 2 - np.log(sigma ** 2) - 1.0,
                              axis=1)
    return float(np.mean(per_sample))


def loss(x: np.ndarray, xhat: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
         beta: float) -> tuple[float, float, float]:
    """(total, reconstruction, kl); recon = mean squared error per entry."""
    recon = float(np.mean((x - xhat) ** 2))
    kl = kl_divergence(mu, sigma)
    return recon + beta * kl, recon, kl


def forward(params: dict, x: np.ndarray, config: VraeConfig,
            epsilon: np.ndarray, beta: float,
            dropout_mask: np.ndarray | None = None):
    """Full forward pass of a batch; returns losses and the backprop cache."""
    h_final, enc_cache = encoder_forward(params, x)
    if dropout_mask is not None:
        keep = 1.0 - config.dropout_rate
        drop_scale = dropout_mask / keep
    else:
        drop_scale = np.ones_like(h_final)
    h_drop = h_final * drop_scale
    mu, sigma, s_pre = posterior_params(params, h_drop)
    z = mu + sigma * epsilon
    xhat, dec_cache = decoder_forward(params, z, x.shape[1])
    total, recon, kl = loss(x, xhat, mu, sigma, beta)
    cache = {"x": x, "mu": mu, "sigma": sigma, "s_pre": s_pre,
             "epsilon": epsilon, "z": z, "h_final": h_final, "h_drop": h_drop,
             "drop_scale": drop_scale, "enc": enc_cache, "dec": dec_cache,
             "beta": beta}
    return total, recon, kl, cache


def _outer_sum(a: np.ndarray, b: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Sum over t of a_t b_t^T, for (T, m, B) and (T, n, B) stacks; `out`
    is (T, m, n) scratch for the per-step products."""
    return np.matmul(a, b.transpose(0, 2, 1), out=out).sum(axis=0)


def backward(params: dict, cache: dict, config: VraeConfig
             ) -> dict[str, np.ndarray]:
    """Analytic gradients of the total loss for every weight in params.

    The weight-gradient sums release the GIL, so most of them run on
    the process's one helper thread (`vraets._helper`), while the calling
    thread runs the BPTT loops:
      - helper, during the latent pathway and the encoder's BPTT:
        `out_W`, `out_b`, `dec_W`, `dec_b`;
      - helper, after the encoder's BPTT: `enc_W[:d]` (the input rows)
        and `enc_b`;
      - calling thread: both BPTT loops, the latent pathway and the
        posterior heads, then `enc_W[d:]`.
    Each sum is the same operation on the same operands as on one
    thread, and each key or row block of the result is written by one
    thread only, so the bytes do not depend on the core count.
    """
    # scipy.special is slow to import and only this path needs it
    from scipy.special import expit

    n_h = config.hidden_units
    batch, length, d = cache["x"].shape
    beta = cache["beta"]
    grads = {k: np.zeros_like(v) for k, v in params.items()}

    # reconstruction head, in the (L, d, B) layout of the input copy
    enc, dec = cache["enc"], cache["dec"]
    dxhat = 2.0 * (dec["xhat"] - enc["x"]) / (batch * length * d)

    # decoder BPTT; h_{t-1} feeds the next cell only through the gate
    # pre-activations, so the carried gradient is W_h da
    dh_step = np.matmul(params["out_W"], dxhat)
    zeros = np.zeros((batch, n_h))
    da_all, dh0, dc0 = _kernels.lstm_backward(
        dh_step.transpose(0, 2, 1), zeros, zeros, dec["gates"], dec["tanhc"],
        dec["c_all"], params["dec_W"])
    da_dec = da_all.transpose(0, 2, 1)
    # scratch for the per-step products of the weight-gradient sums;
    # h_prod serves dec_W, then enc_W[d:]
    out_prod = np.empty((length, n_h, d))
    h_prod = np.empty((length, n_h, 4 * n_h))
    x_prod = np.empty((length, d, 4 * n_h))

    def decoder_sums():
        h_all = dec["h_all"].transpose(0, 2, 1)
        grads["out_W"] += _outer_sum(h_all[1:], dxhat, out_prod)
        grads["out_b"] += dxhat.sum(axis=(0, 2))
        grads["dec_W"] += _outer_sum(h_all[:-1], da_dec, h_prod)
        grads["dec_b"] += da_dec.sum(axis=(0, 2))

    with _helper.beside(decoder_sums):
        # latent pathway
        z = dec["z"]
        dz = dh0 @ params["zh_W"].T + dc0 @ params["zc_W"].T
        grads["zh_W"] += z.T @ dh0
        grads["zh_b"] += dh0.sum(axis=0)
        grads["zc_W"] += z.T @ dc0
        grads["zc_b"] += dc0.sum(axis=0)

        mu, sigma, s_pre = cache["mu"], cache["sigma"], cache["s_pre"]
        dmu = dz.copy()
        dsigma = dz * cache["epsilon"]
        # KL term (batch mean of the per-sample closed form)
        dmu += beta * mu / batch
        dsigma += beta * (sigma - 1.0 / sigma) / batch
        ds_pre = dsigma * expit(s_pre)

        h_drop = cache["h_drop"]
        grads["mu_W"] += h_drop.T @ dmu
        grads["mu_b"] += dmu.sum(axis=0)
        grads["sig_W"] += h_drop.T @ ds_pre
        grads["sig_b"] += ds_pre.sum(axis=0)

        dh = (dmu @ params["mu_W"].T + ds_pre @ params["sig_W"].T)
        dh = dh * cache["drop_scale"]

        # encoder BPTT; the only external gradient enters at the final state
        da_all, _, _ = _kernels.lstm_backward(
            np.broadcast_to(0.0, (length, batch, n_h)), dh,
            np.zeros((batch, n_h)),
            enc["gates"], enc["tanhc"], enc["c_all"], params["enc_W"][d:])
        da_enc = da_all.transpose(0, 2, 1)

    def encoder_input_sums():
        grads["enc_W"][:d] += _outer_sum(enc["x"], da_enc, x_prod)
        grads["enc_b"] += da_enc.sum(axis=(0, 2))

    with _helper.beside(encoder_input_sums):
        grads["enc_W"][d:] += _outer_sum(
            enc["h_all"].transpose(0, 2, 1)[:-1], da_enc, h_prod)
    return grads


@dataclass
class Checkpoint:
    """Model weights plus config and training history."""

    config: VraeConfig
    params: dict[str, np.ndarray]
    history: dict[str, list[float]]

    def save(self, path) -> None:
        arrays = {f"param/{k}": v for k, v in self.params.items()}
        meta = {"config": self.config.to_dict(), "history": self.history}
        artifacts.save_artifact(path, "checkpoint", meta, arrays)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        _, meta, arrays = artifacts.load_artifact(
            path, "checkpoint",
            fields={"config": "any value",
                    "history": "an object of number lists"})
        try:
            config = VraeConfig.from_dict(meta["config"])
        except (DataError, TypeError, ValueError, KeyError) as exc:
            raise DataError(f"{path}: bad model config in checkpoint "
                            f"({exc!r})") from None
        params = {k.split("/", 1)[1]: v for k, v in arrays.items()
                  if k.startswith("param/")}
        _check_shapes(path, config, params)
        history = {k: list(map(float, v)) for k, v in meta["history"].items()}
        return cls(config, params, history)


def _check_shapes(path, config: VraeConfig, params: dict) -> None:
    # from the shapes alone: a config that claims a huge model must not
    # allocate it
    expected = param_shapes(config)
    if set(expected) != set(params):
        raise DataError(f"{path}: checkpoint parameter names do not match "
                        f"config")
    for k, shape in expected.items():
        if params[k].shape != shape:
            raise DataError(f"{path}: checkpoint shape mismatch for {k!r}: "
                            f"{params[k].shape} vs {shape}")


_HISTORY_KEYS = ("train_total", "train_recon", "train_kl",
                 "val_total", "val_recon", "val_kl")


def train(config: VraeConfig, train_set: WindowedDataset,
          val_set: WindowedDataset | None = None) -> Checkpoint:
    """Seeded mini-batch training with Adam, clipping, and KL annealing."""
    if len(train_set) == 0:
        raise DataError("train: empty training set")
    if train_set.n_features != config.input_dim:
        raise DataError(f"train: dataset has {train_set.n_features} features, "
                        f"config expects {config.input_dim}")
    if (val_set is not None
            and val_set.feature_names != train_set.feature_names):
        raise DataError(f"train: validation features {val_set.feature_names} "
                        f"differ from training features "
                        f"{train_set.feature_names}")
    rng = SeededRng(config.seed)
    params = init_weights(config, rng)
    adam = AdamState(params)
    history: dict[str, list[float]] = {k: [] for k in _HISTORY_KEYS}

    n = len(train_set)
    bs = config.batch_size
    n_batches = (n + bs - 1) // bs
    total_steps = config.epochs * n_batches
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        ep_total = ep_recon = ep_kl = 0.0
        beta = 0.0
        for b in range(n_batches):
            idx = order[b * bs:(b + 1) * bs]
            xb = train_set.windows[idx]
            beta = beta_at(config.anneal, step, total_steps)
            eps = rng.standard_normal((len(idx), config.latent_dim))
            mask = None
            if config.dropout_rate > 0:
                keep = 1.0 - config.dropout_rate
                mask = (rng.uniform(0.0, 1.0, (len(idx), config.hidden_units))
                        < keep).astype(np.float64)
            total, recon, kl, cache = forward(params, xb, config, eps, beta,
                                              mask)
            if not np.isfinite(total):
                raise NumericalError(f"non-finite loss at epoch {epoch}, "
                                     f"batch {b}")
            grads = backward(params, cache, config)
            grads = clip_global_norm(grads, config.clip_norm)
            params = adam_step(params, grads, adam, config.learning_rate)
            w = len(idx) / n
            ep_total += total * w
            ep_recon += recon * w
            ep_kl += kl * w
            step += 1
        history["train_total"].append(ep_total)
        history["train_recon"].append(ep_recon)
        history["train_kl"].append(ep_kl)
        if val_set is not None and len(val_set) > 0:
            vt, vr, vk = evaluate(params, val_set, config, beta)
            history["val_total"].append(vt)
            history["val_recon"].append(vr)
            history["val_kl"].append(vk)
    return Checkpoint(config, params, history)


def evaluate(params: dict, dataset: WindowedDataset, config: VraeConfig,
             beta: float) -> tuple[float, float, float]:
    """Deterministic loss on a dataset: epsilon = 0, dropout disabled."""
    total = recon = kl = 0.0
    n = len(dataset)
    bs = config.batch_size
    for start in range(0, n, bs):
        xb = dataset.windows[start:start + bs]
        eps = np.zeros((xb.shape[0], config.latent_dim))
        t, r, k = forward(params, xb, config, eps, beta, None)[:3]
        w = xb.shape[0] / n
        total += t * w
        recon += r * w
        kl += k * w
    return total, recon, kl


def encode_dataset(checkpoint: Checkpoint, dataset: WindowedDataset
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means for every window (dropout off), with aligned labels.
    Every other batch runs in a forked child (`_twin.alternate`)."""
    config = checkpoint.config
    if dataset.n_features != config.input_dim:
        raise DataError(f"encode: dataset has {dataset.n_features} features, "
                        f"checkpoint expects {config.input_dim}")
    bs = config.batch_size

    def encode(start):
        h_final, _ = encoder_forward(checkpoint.params,
                                     dataset.windows[start:start + bs])
        return posterior_params(checkpoint.params, h_final)[0]

    starts = range(0, len(dataset), bs)
    mus = np.zeros((len(dataset), config.latent_dim))
    for start, mu in zip(starts, _twin.alternate(encode, starts)):
        mus[start:start + bs] = mu
    return mus, dataset.labels.copy()

