"""Each benchmark check passes on the program's output and rejects a
corrupted copy of it.

    python3 -m pytest -q vraebench/test_checks.py
"""

import itertools
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import check_backward, mixture  # noqa: E402

from vraets import clustering, dataset, projection, scoring, vrae  # noqa: E402
from vraets.numerics import SeededRng  # noqa: E402

SEEDS = (1, 2)


def _model(seed, d=6, H=8, Z=3):
    cfg = vrae.VraeConfig(input_dim=d, hidden_units=H, latent_dim=Z,
                          batch_size=4, epochs=2, dropout_rate=0.2, seed=seed,
                          anneal=vrae.AnnealSchedule(beta_max=0.01))
    rng = SeededRng(seed)
    x = rng.uniform(-1, 1, (10, 20, d))
    ds = dataset.WindowedDataset(x, np.arange(10) % 2, 20, 20,
                                 [f"f{i}" for i in range(d)])
    return cfg, vrae.train(cfg, ds, ds), ds


@pytest.mark.parametrize("seed", SEEDS)
def test_latents_reject_a_perturbed_latent(seed):
    cfg, ckpt, ds = _model(seed)
    mus, _ = vrae.encode_dataset(ckpt, ds)
    checks.check_latents(ckpt.params, ds.windows, cfg.hidden_units, mus)
    bad = mus.copy()
    bad[3, 1] += 1e-7
    with pytest.raises(CheckFailed):
        checks.check_latents(ckpt.params, ds.windows, cfg.hidden_units, bad)


@pytest.mark.parametrize("seed", SEEDS)
def test_val_loss_rejects_a_perturbed_value(seed):
    cfg, ckpt, ds = _model(seed)
    reported = ckpt.history["val_total"][-1]
    checks.check_val_loss(ckpt.params, ds.windows, cfg.hidden_units,
                          cfg.anneal.beta_max, reported)
    with pytest.raises(CheckFailed):
        checks.check_val_loss(ckpt.params, ds.windows, cfg.hidden_units,
                              cfg.anneal.beta_max, reported * (1 + 1e-7))


@pytest.mark.parametrize("seed", SEEDS)
def test_gradients_reject_a_perturbed_entry(seed):
    assert check_backward(seed) < 1e-5
    rng = SeededRng(seed)
    cfg = vrae.VraeConfig(input_dim=2, hidden_units=3, latent_dim=2,
                          dropout_rate=0.0)
    params = vrae.init_weights(cfg, rng)
    x = rng.standard_normal((2, 4, 2))
    eps = rng.standard_normal((2, 2))
    _, _, _, cache = vrae.forward(params, x, cfg, eps, 0.5)
    grads = vrae.backward(params, cache, cfg)
    numeric = checks.fd_gradient(
        lambda p: checks.ref_loss(p, x, 3, 0.5, eps),
        {k: v.copy() for k, v in params.items()})
    checks.check_gradients(grads, numeric)
    grads["dec_W"][1, 2] *= 1.01
    with pytest.raises(CheckFailed):
        checks.check_gradients(grads, numeric)


def _records(n_normal, n_iced, n_steps):
    recs = []
    for i in range(n_normal + n_iced):
        ice = dataset.IceConfig(0.5 if i >= n_normal else 0.0)
        recs.append(dataset.synthesize(dataset.SynthConfig(seed=i), ice,
                                       n_steps))
    return recs


@pytest.mark.parametrize("seed", SEEDS)
def test_split_counts_reject_a_lost_window(seed):
    wins = dataset.build_windows(_records(5, 2, 1000), 200, 200)
    train, test = dataset.split(wins, 0.7, seed)
    args = ({0: 5, 1: 2}, 1000, 200, 200, 0.7)
    checks.check_split(train.labels, test.labels, *args)
    with pytest.raises(CheckFailed):
        checks.check_split(train.labels, test.labels[1:], *args)
    with pytest.raises(CheckFailed):        # a window moved to test
        checks.check_split(train.labels[1:],
                           np.append(test.labels, train.labels[0]), *args)


def test_scaling_rejects_unscaled_windows():
    wins = dataset.build_windows(_records(3, 1, 600), 200, 200)
    scaler = dataset.fit_minmax([wins.windows])
    scaled = dataset.scale_windows(wins, scaler)
    checks.check_scaled(scaled.windows, scaled.windows, scaler.mins,
                        scaler.maxs)
    with pytest.raises(CheckFailed):
        checks.check_scaled(wins.windows, wins.windows, scaler.mins,
                            scaler.maxs)


def _naive_accuracy(truth, pred):
    classes = sorted(set(truth.tolist()))
    clusters = sorted(set(pred.tolist()) - {-1})
    best = 0
    small, large = sorted((classes, clusters), key=len)
    for perm in itertools.permutations(large, len(small)):
        pairs = zip(small, perm) if small is classes else zip(perm, small)
        best = max(best, sum(int(np.sum((truth == t) & (pred == p)))
                             for t, p in pairs))
    return best / len(truth)


def test_best_accuracy_equals_naive_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(5, 50))
        truth = rng.integers(0, rng.integers(1, 5), n)
        pred = rng.integers(-1, rng.integers(1, 7), n)
        assert checks.best_accuracy(truth, pred) == pytest.approx(
            _naive_accuracy(truth, pred), abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_report_rejects_swapped_labels(seed):
    X, truth = mixture(seed, 200)
    a = clustering.kmeans_pp(projection.pca(X, 2).points, 4, seed=seed)
    report = {"metrics": {"accuracy": None, "recall": None}}
    rep = scoring.score_assignment(a, truth)
    report["metrics"]["accuracy"] = rep.accuracy
    report["metrics"]["recall"] = rep.recall
    checks.check_report(report, truth, a.labels)
    # swap the labels of two correctly matched points of classes 0 and 1
    right = scoring.match_labels(a.labels, truth)[1] == truth
    i = int(np.flatnonzero(right & (truth == 0))[0])
    j = int(np.flatnonzero(right & (truth == 1))[0])
    swapped = a.labels.copy()
    swapped[i], swapped[j] = swapped[j], swapped[i]
    with pytest.raises(CheckFailed):
        checks.check_report(report, truth, swapped)
    with pytest.raises(CheckFailed):
        checks.check_report(report, truth, a.labels, floor=1.01)


@pytest.mark.parametrize("seed", SEEDS)
def test_cluster_checks_reject_a_shuffled_assignment(seed):
    X, _ = mixture(seed, 300)
    P = projection.pca(X, 2).points
    shuffled = SeededRng(seed).permutation(len(P))

    km = clustering.kmeans_pp(P, 4, seed=seed)
    checks.check_kmeans(P, km.labels, km.centroids)
    with pytest.raises(CheckFailed):
        checks.check_kmeans(P, km.labels[shuffled], km.centroids)

    ward = clustering.hierarchical(P, 4)
    checks.check_ward(P, ward.labels, 4)
    with pytest.raises(CheckFailed):
        checks.check_ward(P, ward.labels[shuffled], 4)

    eps = clustering.default_eps(P)
    assert eps == pytest.approx(checks.default_eps(P, 4), rel=1e-9)
    db = clustering.dbscan(P, eps, 4)
    checks.check_dbscan(P, db.labels, eps, 4)
    with pytest.raises(CheckFailed):
        checks.check_dbscan(P, db.labels[shuffled], eps, 4)
    noisy = db.labels.copy()
    noisy[np.flatnonzero(noisy >= 0)[0]] = -1
    with pytest.raises(CheckFailed):
        checks.check_dbscan(P, noisy, eps, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_perplexity_rejects_a_perturbed_row(seed):
    X, _ = mixture(seed, 120)
    P = projection._binary_search_bandwidths(checks.sq_dist(X, X), 20.0)
    checks.check_perplexity(P, 20.0)
    bad = P.copy()
    k = int(np.argmax(bad[7]))
    bad[7] *= 0.9
    bad[7, k] += 0.1
    with pytest.raises(CheckFailed):
        checks.check_perplexity(bad, 20.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_pca_rejects_a_perturbed_point(seed):
    X, _ = mixture(seed, 100)
    emb = projection.pca(X, 2).points
    checks.check_pca(X, emb)
    bad = emb.copy()
    bad[5, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_pca(X, bad)


def test_tracer_counts_a_training_run_and_restores_names():
    original = vrae.forward
    cfg = vrae.VraeConfig(input_dim=6, hidden_units=8, latent_dim=3,
                          batch_size=4, epochs=2, dropout_rate=0.2)
    x = SeededRng(0).uniform(-1, 1, (10, 20, 6))
    ds = dataset.WindowedDataset(x, np.arange(10) % 2, 20, 20,
                                 [f"f{i}" for i in range(6)])
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("cli.train"):
            vrae.train(cfg, ds, ds)
    assert vrae.forward is original
    m = layer_metrics(tracer.spans, 0, len(tracer.spans))
    steps = 2 * 3                           # 2 epochs of 3 batches
    assert m["vrae.train_steps"] == steps
    assert m["kernels.lstm_backward_calls"] == 2 * steps
    # training steps plus two validation passes of 3 batches, 2 LSTMs each
    assert m["kernels.lstm_forward_calls"] == 2 * steps + 2 * 3 * 2
    assert m["kernels.lstm_timesteps"] == 20 * (2 * steps + 12 + 2 * steps)
    split = sum(m[f"vrae.step.{k}_s"] for k in
                ("enc_forward", "dec_forward", "dec_bptt", "enc_bptt",
                 "clip_adam"))
    assert 0 < split <= m["vrae.train_s"] <= m["cli.train_s"]
