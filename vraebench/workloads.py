"""The three workloads: set-up, one round of timed CLI stages, and checks.

Each workload drives `vraets.cli.main` stage by stage with the same
argument lists a user would type. A round is a fixed list of stages, so
every round of a run does the same operations; `run.py` times the
rounds and repeats the set-up.

Sizes (see README.md for why they are what they are):

- train-two-class: 25 simulations of 4000 steps (18 kept for two
  classes, 360 windows, 252 train / 108 test); hidden 32, latent 8,
  3 epochs with validation.
- detect-fleet: a fleet of 25 simulations of 5000 steps (625 windows);
  the checkpoint is trained for one epoch on a 125-window split, so
  the fleet is five times the training split.
- analyze-multi-class: 5-dim latents in 4 classes (14:4:4:3) from a
  seeded Gaussian mixture, at N=375 and N=1250.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
from checks import require

from vraets import artifacts, cli, clustering, dataset, projection, vrae
from vraets.numerics import SeededRng

# simulations per class in `vraets generate` (14 normal, then 4/4/3 iced)
SIMS_PER_CLASS = {0: 14, 1: 4, 2: 4, 3: 3}
WINDOW = 200
MIN_PTS = 4                     # the config default of cluster.min_pts


def run_stage(argv, tracer=None) -> int:
    """One CLI stage; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        with tracer.span(f"cli.{argv[0]}"):
            return cli.main(argv)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report(path):
    with open(os.path.join(path, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _latents(path):
    _, _, arrays = artifacts.load_artifact(path, expect_kind="latents")
    return arrays["mus"], arrays["labels"]


def check_clusters(emb_path, assign_path, report_dir, method, k,
                   floor=None):
    """Checks one clustering of one embedding, and its score report."""
    emb, labels = projection.Embedding.load(emb_path)
    X = emb.points
    a = clustering.ClusterAssignment.load(assign_path)
    if method == "kmeans":
        checks.check_kmeans(X, a.labels, a.centroids)
    elif method == "hierarchical":
        checks.check_ward(X, a.labels, k)
    else:
        # the CLI's default eps: median distance to the 4th neighbour
        eps = checks.default_eps(X, 4)
        require(abs(a.params["eps"] - eps) <= 1e-9 * eps,
                f"DBSCAN eps {a.params['eps']!r}, brute force gives {eps!r}")
        checks.check_dbscan(X, a.labels, a.params["eps"], MIN_PTS)
    checks.check_report(_report(report_dir), labels, a.labels, floor)


def check_pca(latents_path, emb_path):
    X, _ = _latents(latents_path)
    emb, _ = projection.Embedding.load(emb_path)
    checks.check_pca(X, emb.points)


class Workload:
    """Base: subclasses name their stages; `run.py` drives the timing."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def common(self, d):
        return ["--config", os.path.join(d, "exp.cfg"),
                "--seed", str(self.seed)]

    def setup(self, d, tracer=None) -> None:
        raise NotImplementedError

    def stages(self, s, r) -> list[list[str]]:
        """Argument lists of one round; s is the set-up dir, r the round dir."""
        raise NotImplementedError

    def check(self, s, r) -> list[str]:
        raise NotImplementedError


class TrainTwoClass(Workload):
    name = "train-two-class"
    n_steps = 4000
    epochs = 3

    def common(self, d):
        return ["--preset", "two-class", *super().common(d)]

    def setup(self, d, tracer=None):
        os.makedirs(d)
        _write(os.path.join(d, "exp.cfg"),
               "vrae.hidden_units = 32\nvrae.latent_dim = 8\n"
               f"synth.n_steps = {self.n_steps}\n")
        c = self.common(d)
        for argv in (["generate", *c, "--out", f"{d}/data"],
                     ["preprocess", *c, "--data", f"{d}/data",
                      "--out", f"{d}/prep"]):
            require(run_stage(argv, tracer) == 0, f"set-up {argv[0]} failed")

    def stages(self, s, r):
        c = self.common(s)
        out = [["train", *c, "--train-data", f"{s}/prep/train.windows",
                "--val-data", f"{s}/prep/test.windows",
                "--epochs", str(self.epochs), "--out", f"{r}/model.ckpt"],
               ["encode", *c, "--checkpoint", f"{r}/model.ckpt",
                "--data", f"{s}/prep/test.windows", "--out", f"{r}/latents"],
               ["project", *c, "--latents", f"{r}/latents", "--method", "pca",
                "--out", f"{r}/pca"]]
        for method in ("kmeans", "hierarchical"):
            out += [["cluster", *c, "--embedding", f"{r}/pca",
                     "--method", method, "--out", f"{r}/{method}"],
                    ["score", *c, "--assignment", f"{r}/{method}",
                     "--embedding", f"{r}/pca", "--out", f"{r}/{method}.report"]]
        return out

    def check(self, s, r):
        train = dataset.load_windows(f"{s}/prep/train.windows")
        test = dataset.load_windows(f"{s}/prep/test.windows")
        checks.check_split(train.labels, test.labels,
                           {0: SIMS_PER_CLASS[0], 1: SIMS_PER_CLASS[1]},
                           self.n_steps, WINDOW, WINDOW, 0.7)
        checks.check_scaled(train.windows, test.windows,
                            train.scaler.mins, train.scaler.maxs)
        ckpt = vrae.Checkpoint.load(f"{r}/model.ckpt")
        cfg = ckpt.config
        require(cfg.anneal.mode == "constant", "expected a constant KL weight")
        require(len(ckpt.history["val_total"]) == self.epochs,
                "validation history does not cover every epoch")
        checks.check_val_loss(ckpt.params, test.windows, cfg.hidden_units,
                              cfg.anneal.beta_max, ckpt.history["val_total"][-1])
        mus, _ = _latents(f"{r}/latents")
        checks.check_latents(ckpt.params, test.windows, cfg.hidden_units, mus)
        worst = check_backward(self.seed)
        check_pca(f"{r}/latents", f"{r}/pca")
        for method in ("kmeans", "hierarchical"):
            check_clusters(f"{r}/pca", f"{r}/{method}", f"{r}/{method}.report",
                           method, 2, floor=0.90)
        return ["window and split counts", "min-max scaling",
                "val_total vs reference forward", "latents vs reference",
                f"backward vs finite differences (worst {worst:.2e})", "pca",
                "kmeans nearest centroid", "ward vs scipy",
                "accuracy by enumeration >= 0.90"]


def check_backward(seed):
    """vrae.backward against central differences of the reference loss,
    on a tiny configuration with dropout and a sampled latent."""
    rng = SeededRng(10_000 + seed)
    cfg = vrae.VraeConfig(input_dim=2, hidden_units=3, latent_dim=2,
                          dropout_rate=0.25, seed=seed)
    params = vrae.init_weights(cfg, rng)
    x = rng.standard_normal((3, 5, 2))
    eps = rng.standard_normal((3, 2))
    mask = (rng.uniform(0, 1, (3, 3)) < 0.75).astype(np.float64)
    beta = 0.5
    total, _, _, cache = vrae.forward(params, x, cfg, eps, beta, mask)
    drop = mask / 0.75
    ref = checks.ref_loss(params, x, 3, beta, eps, drop)
    require(abs(total - ref) <= 1e-12, f"forward loss {total!r}, "
            f"reference {ref!r}")
    analytic = vrae.backward(params, cache, cfg)
    numeric = checks.fd_gradient(
        lambda p: checks.ref_loss(p, x, 3, beta, eps, drop),
        {k: v.copy() for k, v in params.items()})
    return checks.check_gradients(analytic, numeric)


class DetectFleet(Workload):
    name = "detect-fleet"
    n_steps = 5000
    train_fraction = 0.2
    parts = ("train", "test")

    def common(self, d):
        return ["--preset", "multi-class", *super().common(d)]

    def setup(self, d, tracer=None):
        os.makedirs(d)
        cfg = ("vrae.hidden_units = 32\nvrae.latent_dim = 8\n"
               f"synth.n_steps = {self.n_steps}\n")
        _write(os.path.join(d, "exp.cfg"), cfg)
        _write(os.path.join(d, "small.cfg"),
               cfg + f"prep.train_fraction = {self.train_fraction}\n")
        c = self.common(d)
        small = ["--preset", "multi-class", "--config", f"{d}/small.cfg",
                 "--seed", str(self.seed)]
        for argv in (["generate", *c, "--out", f"{d}/fleet"],
                     ["preprocess", *small, "--data", f"{d}/fleet",
                      "--out", f"{d}/small"],
                     ["train", *small, "--train-data", f"{d}/small/train.windows",
                      "--epochs", "1", "--out", f"{d}/model.ckpt"]):
            require(run_stage(argv, tracer) == 0, f"set-up {argv[0]} failed")

    def stages(self, s, r):
        c = self.common(s)
        out = [["preprocess", *c, "--data", f"{s}/fleet", "--out", f"{r}/prep"]]
        for p in self.parts:
            out += [["encode", *c, "--checkpoint", f"{s}/model.ckpt",
                     "--data", f"{r}/prep/{p}.windows", "--out", f"{r}/{p}.lat"],
                    ["project", *c, "--latents", f"{r}/{p}.lat",
                     "--method", "pca", "--out", f"{r}/{p}.pca"],
                    ["cluster", *c, "--embedding", f"{r}/{p}.pca",
                     "--method", "kmeans", "--out", f"{r}/{p}.kmeans"],
                    ["score", *c, "--assignment", f"{r}/{p}.kmeans",
                     "--embedding", f"{r}/{p}.pca", "--out", f"{r}/{p}.report"]]
        return out

    def check(self, s, r):
        small_train = dataset.load_windows(f"{s}/small/train.windows")
        _, total, _ = checks.expected_counts(SIMS_PER_CLASS, self.n_steps,
                                             WINDOW, WINDOW, 0.7)
        require(total >= 4 * len(small_train),
                f"fleet of {total} windows is not several times the "
                f"{len(small_train)}-window training split")
        train = dataset.load_windows(f"{r}/prep/train.windows")
        test = dataset.load_windows(f"{r}/prep/test.windows")
        checks.check_split(train.labels, test.labels, SIMS_PER_CLASS,
                           self.n_steps, WINDOW, WINDOW, 0.7)
        checks.check_scaled(train.windows, test.windows,
                            train.scaler.mins, train.scaler.maxs)
        ckpt = vrae.Checkpoint.load(f"{s}/model.ckpt")
        H = ckpt.config.hidden_units
        for p, part in zip(self.parts, (train, test)):
            mus, labels = _latents(f"{r}/{p}.lat")
            require(np.array_equal(labels, part.labels),
                    f"{p} latents carry other labels than their windows")
            checks.check_latents(ckpt.params, part.windows, H, mus)
            check_pca(f"{r}/{p}.lat", f"{r}/{p}.pca")
            check_clusters(f"{r}/{p}.pca", f"{r}/{p}.kmeans",
                           f"{r}/{p}.report", "kmeans", 4)
        return ["window and split counts", "min-max scaling",
                "latents vs reference encoder (every fleet window)", "pca",
                "kmeans nearest centroid", "accuracy by enumeration"]


def mixture(seed: int, n: int):
    """5-dim latents in 4 classes at the fleet's 14:4:4:3 proportions.

    Class means are 5 times four rows of a seeded random orthogonal
    matrix (every pair 7.07 apart), with unit Gaussian scatter.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    weights = np.array([SIMS_PER_CLASS[c] for c in range(4)], dtype=float)
    sizes = np.floor(weights / weights.sum() * n).astype(int)
    sizes[0] += n - sizes.sum()
    labels = np.repeat(np.arange(4), sizes)
    X = 5.0 * q[labels] + rng.standard_normal((n, 5))
    return X, labels


class AnalyzeMultiClass(Workload):
    name = "analyze-multi-class"
    sizes = {"test": 375, "fleet": 1250}
    projections = {"test": ("pca", "kpca", "spectral", "tsne"),
                   "fleet": ("pca", "kpca", "spectral")}
    clustered = {"test": "tsne", "fleet": "pca"}
    methods = ("kmeans", "hierarchical", "dbscan")

    def common(self, d):
        return ["--preset", "multi-class", *super().common(d)]

    def setup(self, d, tracer=None):
        os.makedirs(d)
        _write(os.path.join(d, "exp.cfg"), "# multi-class preset as is\n")
        for part, n in self.sizes.items():
            X, labels = mixture(self.seed * 7919 + n, n)
            artifacts.save_artifact(f"{d}/{part}.lat", "latents",
                                    {"latent_dim": 5},
                                    {"mus": X, "labels": labels})

    def stages(self, s, r):
        c = self.common(s)
        out = []
        for part in self.sizes:
            for m in self.projections[part]:
                out.append(["project", *c, "--latents", f"{s}/{part}.lat",
                            "--method", m, "--out", f"{r}/{part}.{m}"])
            emb = f"{r}/{part}.{self.clustered[part]}"
            for m in self.methods:
                out += [["cluster", *c, "--embedding", emb, "--method", m,
                         "--out", f"{r}/{part}.{m}"],
                        ["score", *c, "--assignment", f"{r}/{part}.{m}",
                         "--embedding", emb, "--out", f"{r}/{part}.{m}.report"]]
        return out

    def check(self, s, r):
        done = []
        for part, n in self.sizes.items():
            X, labels = _latents(f"{s}/{part}.lat")
            require(X.shape == (n, 5), f"{part} latents have shape {X.shape}")
            check_pca(f"{s}/{part}.lat", f"{r}/{part}.pca")
            for m in self.projections[part]:
                emb, lab = projection.Embedding.load(f"{r}/{part}.{m}")
                require(emb.points.shape == (n, 2)
                        and np.array_equal(lab, labels),
                        f"{part}.{m}: wrong shape or labels")
            emb = f"{r}/{part}.{self.clustered[part]}"
            for m in self.methods:
                check_clusters(emb, f"{r}/{part}.{m}", f"{r}/{part}.{m}.report",
                               m, 4)
            done.append(f"{part} (N={n}): pca, kmeans, ward vs scipy, "
                        "dbscan vs eps-graph, accuracy by enumeration")
        X, _ = _latents(f"{s}/test.lat")
        P = projection._binary_search_bandwidths(checks.sq_dist(X, X), 30.0)
        checks.check_perplexity(P, 30.0)
        done.append("t-SNE conditional P perplexity, every row")
        return done


WORKLOADS = {w.name: w for w in (TrainTwoClass, DetectFleet, AnalyzeMultiClass)}
