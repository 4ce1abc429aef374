import importlib
import importlib.util
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

from vraets import _kernels, artifacts, projection, vrae
from vraets.dataset import WindowedDataset
from vraets.errors import DataError
from vraets.numerics import SeededRng, finite_difference_gradient
from vraets.vrae import (AnnealSchedule, Checkpoint, VraeConfig, backward,
                         beta_at, decoder_forward, encode_dataset,
                         encoder_forward, forward, init_weights,
                         kl_divergence, loss,
                         posterior_params, train)

TINY = VraeConfig(input_dim=2, hidden_units=4, latent_dim=3,
                  dropout_rate=0.0, epochs=2, batch_size=4, seed=1)


def tiny_params(seed=1):
    return init_weights(TINY, SeededRng(seed))


def toy_dataset(n=8, length=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    windows = np.tanh(rng.normal(size=(n, length, d)))
    labels = np.array([i % 2 for i in range(n)])
    return WindowedDataset(windows, labels, length, length,
                           [f"f{i}" for i in range(d)])


class TestEncoderForward:
    def test_zero_weights_give_zero_state(self):
        params = {k: np.zeros_like(v) for k, v in tiny_params().items()}
        x = np.random.default_rng(0).normal(size=(3, 5, 2))
        h, _ = encoder_forward(params, x)
        np.testing.assert_array_equal(h, np.zeros((3, 4)))

    def test_length_one_equals_single_cell_step(self):
        params = tiny_params()
        x = np.random.default_rng(1).normal(size=(1, 1, 2))
        h_full, _ = encoder_forward(params, x)
        # manual single LSTM step from zero state
        inp = np.concatenate([x[0], np.zeros((1, 4))], axis=1)
        a = inp @ params["enc_W"] + params["enc_b"]
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, o, g = sig(a[:, :4]), sig(a[:, 4:8]), sig(a[:, 8:12]), \
            np.tanh(a[:, 12:])
        h_manual = o * np.tanh(i * g)
        np.testing.assert_allclose(h_full, h_manual, atol=1e-12)

    def test_deterministic(self):
        params = tiny_params()
        x = np.random.default_rng(2).normal(size=(2, 5, 2))
        h1, _ = encoder_forward(params, x)
        h2, _ = encoder_forward(params, x)
        np.testing.assert_array_equal(h1, h2)


class TestPosteriorParams:
    def test_zero_weights(self):
        params = {k: np.zeros_like(v) for k, v in tiny_params().items()}
        mu, sigma, _ = posterior_params(params, np.zeros((1, 4)))
        np.testing.assert_array_equal(mu, np.zeros((1, 3)))
        np.testing.assert_allclose(sigma, np.log(2.0) + 1e-6, atol=1e-12)

    def test_sigma_always_positive(self):
        rng = SeededRng(5)
        for _ in range(100):
            params = init_weights(TINY, rng)
            h = 10.0 * rng.standard_normal((20, 4))
            _, sigma, _ = posterior_params(params, h)
            assert np.all(sigma > 0)

    def test_sigma_floor_no_underflow(self):
        params = tiny_params()
        params["sig_W"] = np.zeros_like(params["sig_W"])
        params["sig_b"] = np.full_like(params["sig_b"], -40.0)
        _, sigma, _ = posterior_params(params, np.ones((1, 4)))
        np.testing.assert_allclose(sigma, 1e-6, rtol=1e-6)
        assert np.all(sigma > 0)


class TestReparameterize:
    def test_exact_identity_invariant(self):
        # forward draws z = mu + sigma * epsilon inline, bit for bit
        rng = SeededRng(4)
        x = rng.uniform(-1.0, 1.0, (3, 5, 2))
        eps = rng.standard_normal((3, 3))
        _, _, _, cache = forward(tiny_params(), x, TINY, eps, 1.0)
        np.testing.assert_array_equal(
            cache["z"], cache["mu"] + cache["sigma"] * eps)
        assert cache["epsilon"] is eps


class TestDecoderForward:
    def test_zero_weights_give_zero_output(self):
        params = {k: np.zeros_like(v) for k, v in tiny_params().items()}
        xhat, _ = decoder_forward(params, np.ones((1, 3)), 5)
        np.testing.assert_array_equal(xhat, np.zeros((1, 5, 2)))

    def test_deterministic_given_z(self):
        params = tiny_params()
        z = np.array([[0.3, -0.7, 1.1]])
        a, _ = decoder_forward(params, z, 6)
        b, _ = decoder_forward(params, z, 6)
        np.testing.assert_array_equal(a, b)

    def test_zero_length(self):
        xhat, _ = decoder_forward(tiny_params(), np.zeros((1, 3)), 0)
        assert xhat.shape == (1, 0, 2)


class TestKlDivergence:
    # kl_divergence takes (B, latent) batches; these are batches of one
    def test_prior_equals_posterior(self):
        assert kl_divergence(np.zeros((1, 3)), np.ones((1, 3))) == \
            pytest.approx(0.0, abs=1e-15)

    def test_unit_mean_scalar(self):
        assert kl_divergence(np.array([[1.0]]), np.array([[1.0]])) == \
            pytest.approx(0.5)

    def test_sigma_two(self):
        expected = 0.5 * (4.0 - np.log(4.0) - 1.0)
        assert kl_divergence(np.array([[0.0]]), np.array([[2.0]])) == \
            pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        # independent oracle: E_q[ln q - ln p] by sampling
        rng = np.random.default_rng(0)
        mu, sigma = np.array([0.3, -1.1]), np.array([0.7, 1.8])
        z = mu + sigma * rng.normal(size=(1_000_000, 2))
        ln_q = -0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma) \
            - 0.5 * np.log(2 * np.pi)
        ln_p = -0.5 * z ** 2 - 0.5 * np.log(2 * np.pi)
        estimate = float(np.mean(np.sum(ln_q - ln_p, axis=1)))
        assert kl_divergence(mu[None], sigma[None]) == \
            pytest.approx(estimate, rel=0.01)

    def test_nonnegative_random_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            mu = rng.normal(size=(1, 4))
            sigma = np.abs(rng.normal(size=(1, 4))) + 1e-3
            assert kl_divergence(mu, sigma) >= 0.0

    def test_zero_iff_standard_normal(self):
        assert kl_divergence(np.zeros((1, 5)), np.ones((1, 5))) < 1e-12
        assert kl_divergence(np.full((1, 5), 0.1), np.ones((1, 5))) > 1e-12


class TestLoss:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 3))
        total, recon, kl = loss(x, x, np.zeros((2, 2)), np.ones((2, 2)), 1.0)
        assert total == pytest.approx(0.0, abs=1e-15)
        assert recon == 0.0

    def test_beta_zero_is_pure_recon(self):
        x = np.zeros((1, 3, 2))
        xhat = np.ones((1, 3, 2))
        total, recon, _ = loss(x, xhat, np.ones((1, 2)), np.ones((1, 2)), 0.0)
        assert total == recon == 1.0

    def test_half_residual(self):
        x = np.zeros((2, 5, 3))
        xhat = np.full((2, 5, 3), 0.5)
        _, recon, _ = loss(x, xhat, np.zeros((2, 1)), np.ones((2, 1)), 0.0)
        assert recon == pytest.approx(0.25)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=3,
                         dropout_rate=0.0)
        rng = SeededRng(11)
        params = init_weights(cfg, rng)
        x = rng.standard_normal((3, 5, 2))
        eps = rng.standard_normal((3, 3))
        beta = 0.8
        _, _, _, cache = forward(params, x, cfg, eps, beta)
        analytic = backward(params, cache, cfg)
        numeric = finite_difference_gradient(
            lambda p: forward(p, x, cfg, eps, beta)[0], params, h=1e-5)
        for name in params:
            # floor keeps finite-difference roundoff on ~0 entries from
            # masquerading as relative error
            denom = np.maximum(np.abs(analytic[name]) + np.abs(numeric[name]),
                               1e-4)
            rel = np.max(np.abs(analytic[name] - numeric[name]) / denom)
            assert rel < 1e-5, f"{name}: rel err {rel}"

    def test_gradients_with_dropout_mask(self):
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2,
                         dropout_rate=0.5)
        rng = SeededRng(13)
        params = init_weights(cfg, rng)
        x = rng.standard_normal((2, 4, 2))
        eps = rng.standard_normal((2, 2))
        mask = (rng.uniform(0.0, 1.0, (2, 4)) < 0.5).astype(float)
        _, _, _, cache = forward(params, x, cfg, eps, 0.5, mask)
        analytic = backward(params, cache, cfg)
        numeric = finite_difference_gradient(
            lambda p: forward(p, x, cfg, eps, 0.5, mask)[0], params, h=1e-5)
        for name in params:
            denom = np.maximum(np.abs(analytic[name]) + np.abs(numeric[name]),
                               1e-4)
            assert np.max(np.abs(analytic[name] - numeric[name]) / denom) < 1e-5

    def test_kl_gradient_wrt_mu_vanishes_at_zero(self):
        mu = np.zeros((1, 3))
        # d/dmu of 0.5 sum(mu^2 + ...) = mu
        np.testing.assert_array_equal(mu, np.zeros((1, 3)))

    @pytest.mark.parametrize("batch", [64, 60])
    def test_helper_thread_changes_no_bit(self, batch):
        # the benchmark's model on its full batch and on the tail batch
        # of 252 windows (3 * 64 + 60)
        cfg = VraeConfig(input_dim=6, hidden_units=32, latent_dim=8)
        rng = SeededRng(5)
        params = init_weights(cfg, rng)
        x = rng.standard_normal((batch, 200, 6))
        eps = rng.standard_normal((batch, 8))
        mask = (rng.uniform(0.0, 1.0, (batch, 32)) < 0.8).astype(float)
        _, _, _, cache = forward(params, x, cfg, eps, 0.3, mask)
        got = backward(params, cache, cfg)
        want = _serial_backward(params, cache, cfg)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_forked_child_runs_backward(self):
        # the child inherits the parent's executor but not its thread
        rng = SeededRng(7)
        params = init_weights(TINY, rng)
        eps = rng.standard_normal((3, 3))
        _, _, _, cache = forward(params, rng.standard_normal((3, 5, 2)),
                                 TINY, eps, 0.5)
        want = backward(params, cache, TINY)      # starts the helper

        def child():
            got = backward(params, cache, TINY)
            os._exit(0 if all(np.array_equal(got[k], want[k])
                              for k in want) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
        assert proc.exitcode == 0


def _serial_backward(params, cache, config):
    """`backward` on one thread: every sum in program order."""
    n_h = config.hidden_units
    batch, length, d = cache["x"].shape
    beta = cache["beta"]
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    enc, dec = cache["enc"], cache["dec"]
    dxhat = 2.0 * (dec["xhat"] - enc["x"]) / (batch * length * d)
    dh_step = np.matmul(params["out_W"], dxhat)
    zeros = np.zeros((batch, n_h))
    da_all, dh0, dc0 = _kernels.lstm_backward(
        dh_step.transpose(0, 2, 1), zeros, zeros, dec["gates"], dec["tanhc"],
        dec["c_all"], params["dec_W"])
    da = da_all.transpose(0, 2, 1)
    h_all = dec["h_all"].transpose(0, 2, 1)
    grads["out_W"] += vrae._outer_sum(h_all[1:], dxhat)
    grads["out_b"] += dxhat.sum(axis=(0, 2))
    grads["dec_W"] += vrae._outer_sum(h_all[:-1], da)
    grads["dec_b"] += da.sum(axis=(0, 2))
    z = dec["z"]
    dz = dh0 @ params["zh_W"].T + dc0 @ params["zc_W"].T
    grads["zh_W"] += z.T @ dh0
    grads["zh_b"] += dh0.sum(axis=0)
    grads["zc_W"] += z.T @ dc0
    grads["zc_b"] += dc0.sum(axis=0)
    mu, sigma, s_pre = cache["mu"], cache["sigma"], cache["s_pre"]
    dmu = dz.copy()
    dsigma = dz * cache["epsilon"]
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
    da_all, _, _ = _kernels.lstm_backward(
        np.broadcast_to(0.0, (length, batch, n_h)), dh,
        np.zeros((batch, n_h)),
        enc["gates"], enc["tanhc"], enc["c_all"], params["enc_W"][d:])
    da = da_all.transpose(0, 2, 1)
    grads["enc_W"][:d] += vrae._outer_sum(enc["x"], da)
    grads["enc_W"][d:] += vrae._outer_sum(
        enc["h_all"].transpose(0, 2, 1)[:-1], da)
    grads["enc_b"] += da.sum(axis=(0, 2))
    return grads


class TestAnnealSchedule:
    def test_cyclical_starts_at_zero(self):
        sched = AnnealSchedule(mode="cyclical", cycles=4, ramp_fraction=0.5)
        assert beta_at(sched, 0, 1000) == 0.0

    def test_constant_everywhere(self):
        sched = AnnealSchedule(mode="constant", beta_max=0.7)
        assert all(beta_at(sched, s, 100) == 0.7 for s in range(100))

    def test_halfway_up_first_ramp(self):
        # cycle length 500, ramp over the first 250 steps; step 125 sits
        # halfway up that ramp
        sched = AnnealSchedule(mode="cyclical", cycles=2, ramp_fraction=0.5,
                               beta_max=2.0)
        assert beta_at(sched, 125, 1000) == pytest.approx(1.0)

    def test_ramp_end_reaches_beta_max(self):
        sched = AnnealSchedule(mode="cyclical", cycles=4, ramp_fraction=0.5,
                               beta_max=2.0)
        assert beta_at(sched, 125, 1000) == pytest.approx(2.0)

    def test_holds_beta_max_after_ramp(self):
        sched = AnnealSchedule(mode="cyclical", cycles=2, ramp_fraction=0.25)
        assert beta_at(sched, 400, 1000) == 1.0

    def test_resets_each_cycle(self):
        sched = AnnealSchedule(mode="cyclical", cycles=4, ramp_fraction=0.5)
        assert beta_at(sched, 250, 1000) == pytest.approx(0.0)

    def test_bounds_property(self):
        sched = AnnealSchedule(mode="cyclical", cycles=3, ramp_fraction=0.3,
                               beta_max=1.5)
        betas = [beta_at(sched, s, 300) for s in range(300)]
        assert all(0.0 <= b <= 1.5 for b in betas)


class TestTrain:
    def test_loss_decreases_on_toy_problem(self):
        ds = toy_dataset(n=2)
        cfg = VraeConfig(input_dim=2, hidden_units=6, latent_dim=2,
                         learning_rate=5e-3, dropout_rate=0.0, epochs=200,
                         batch_size=2, seed=3,
                         anneal=AnnealSchedule(beta_max=0.0))
        ckpt = train(cfg, ds)
        assert ckpt.history["train_recon"][-1] < ckpt.history["train_recon"][0]

    @pytest.mark.parametrize("field,value", [("epochs", 0), ("epochs", -3),
                                             ("batch_size", 0)])
    def test_nonpositive_epochs_or_batch_size_rejected(self, field, value):
        with pytest.raises(DataError, match=field):
            VraeConfig(input_dim=2, hidden_units=4, latent_dim=2,
                       **{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")],
                             ids=["zero", "negative", "nan"])
    def test_non_positive_clip_norm_rejected(self, value):
        with pytest.raises(DataError, match="clip_norm"):
            VraeConfig(input_dim=2, hidden_units=4, latent_dim=2,
                       clip_norm=value)

    def test_bit_identical_under_seed(self):
        ds = toy_dataset()
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2, epochs=3,
                         batch_size=4, seed=9)
        a, b = train(cfg, ds), train(cfg, ds)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        assert a.history == b.history

    def test_empty_training_set_rejected(self):
        ds = WindowedDataset(np.zeros((0, 5, 2)), np.zeros(0), 5, 5, ["a", "b"])
        with pytest.raises(DataError):
            train(TINY, ds)

    def test_validation_history_recorded(self):
        ds = toy_dataset()
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2, epochs=2,
                         seed=1)
        ckpt = train(cfg, ds, ds)
        assert len(ckpt.history["val_total"]) == 2

    # the same features in another order, and one feature more
    @pytest.mark.parametrize("names, channels", [(["f1", "f0"], [1, 0]),
                                                 (["f0", "f1", "f2"],
                                                  [0, 1, 1])])
    def test_validation_features_must_match_training(self, names, channels):
        ds = toy_dataset()
        val = WindowedDataset(ds.windows[..., channels], ds.labels, 5, 5,
                              names)
        with pytest.raises(DataError, match=r"\['f0', 'f1'\]") as exc:
            train(TINY, ds, val)
        assert str(names) in str(exc.value)

    def test_concurrent_calls_match_serial(self, tmp_path):
        # more training threads than cores, all sharing the one helper
        ds = toy_dataset(n=12, length=30)
        cfgs = [VraeConfig(input_dim=2, hidden_units=8, latent_dim=2,
                           epochs=4, batch_size=4, seed=s) for s in range(4)]

        def saved(ckpt, path):
            ckpt.save(path)
            return path.read_bytes()

        want = [saved(train(c, ds), tmp_path / f"serial{i}")
                for i, c in enumerate(cfgs)]
        got = [None] * len(cfgs)

        def run(i):
            got[i] = saved(train(cfgs[i], ds), tmp_path / f"thread{i}")

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_traced_functions_run_on_the_main_thread(self, monkeypatch):
        # the benchmark's tracer keeps one span stack for the process;
        # training and t-SNE both hand work to the helper thread
        ran = []

        def recorder(name, fn):
            def call(*args, **kwargs):
                ran.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return call

        for mod_name, attr, _, _ in _trace_patches():
            module = importlib.import_module(f"vraets.{mod_name}")
            monkeypatch.setattr(module, attr,
                                recorder(f"{mod_name}.{attr}",
                                         getattr(module, attr)))
        ds = toy_dataset()
        vrae.train(TINY, ds, ds)
        projection.tsne(SeededRng(3).standard_normal((40, 3)), 10.0, 60)
        names = {name for name, _ in ran}
        assert {"vrae.backward", "_kernels.lstm_backward", "vrae.evaluate",
                "projection.tsne", "projection.tsne_affinities"} <= names
        assert all(t is threading.main_thread() for _, t in ran)


def _trace_patches():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "vraebench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("vraebench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = toy_dataset()
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2, epochs=2,
                         seed=2)
        ckpt = train(cfg, ds)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        ckpt.save(p1)
        loaded = Checkpoint.load(p1)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        for k in ckpt.params:
            np.testing.assert_array_equal(loaded.params[k], ckpt.params[k])
        _, meta, arrays = artifacts.load_artifact(p1)
        assert list(arrays) == [f"param/{k}" for k in vrae.param_shapes(cfg)]
        assert set(meta) == {"config", "history"}

    def test_checkpoint_with_optimizer_state_encodes_the_same(self, tmp_path):
        # older checkpoints also hold Adam's moments, its step and the
        # epoch; they must load and encode as before
        ds = toy_dataset()
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2, epochs=2,
                         seed=2)
        path = tmp_path / "a.ckpt"
        train(cfg, ds).save(path)
        kind, meta, arrays = artifacts.load_artifact(path)
        params = {k.split("/", 1)[1]: v for k, v in arrays.items()}
        old = tmp_path / "old.ckpt"
        artifacts.save_artifact(
            old, kind, {**meta, "epoch": 2, "adam_step": 2},
            {**arrays, **{f"adam_m/{k}": v + 1.0 for k, v in params.items()},
             **{f"adam_v/{k}": v * v for k, v in params.items()}})
        mus, _ = encode_dataset(Checkpoint.load(path), ds)
        old_mus, _ = encode_dataset(Checkpoint.load(old), ds)
        assert mus.tobytes() == old_mus.tobytes()

    def test_shape_validation_on_load(self, tmp_path):
        ds = toy_dataset()
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2, epochs=1,
                         seed=2)
        ckpt = train(cfg, ds)
        ckpt.params["mu_W"] = np.zeros((1, 1))
        path = tmp_path / "bad.ckpt"
        ckpt.save(path)
        with pytest.raises(DataError):
            Checkpoint.load(path)

    @pytest.mark.parametrize("clip_norm", [0.0, float("nan")],
                             ids=["zero", "nan"])
    def test_non_positive_clip_norm_in_meta_on_load(self, tmp_path,
                                                     clip_norm):
        ds = toy_dataset()
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2, epochs=1,
                         seed=2)
        path = tmp_path / "a.ckpt"
        train(cfg, ds).save(path)
        kind, meta, arrays = artifacts.load_artifact(path)
        meta["config"]["clip_norm"] = clip_norm
        artifacts.save_artifact(path, kind, meta, arrays)
        with pytest.raises(DataError, match="bad model config.*clip_norm"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("config", [{}, {"input_dim": 2}, [1, 2],
                                        {"anneal": {}, "bogus": 1}])
    def test_bad_config_in_meta_on_load(self, tmp_path, config):
        ds = toy_dataset()
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=2, epochs=1,
                         seed=2)
        path = tmp_path / "a.ckpt"
        train(cfg, ds).save(path)
        kind, meta, arrays = artifacts.load_artifact(path)
        artifacts.save_artifact(path, kind, {**meta, "config": config}, arrays)
        with pytest.raises(DataError, match="bad model config"):
            Checkpoint.load(path)


class TestEncodeDataset:
    def _checkpoint(self, latent_dim=3):
        cfg = VraeConfig(input_dim=2, hidden_units=4, latent_dim=latent_dim,
                         epochs=1, seed=4)
        return train(cfg, toy_dataset())

    def test_shape_contract(self):
        ckpt = self._checkpoint()
        ds = toy_dataset(n=7)
        mus, labels = encode_dataset(ckpt, ds)
        assert mus.shape == (7, 3)
        np.testing.assert_array_equal(labels, ds.labels)

    def test_duplicate_windows_encode_identically(self):
        ckpt = self._checkpoint()
        ds = toy_dataset(n=4)
        ds.windows[3] = ds.windows[0]
        mus, _ = encode_dataset(ckpt, ds)
        np.testing.assert_array_equal(mus[3], mus[0])

    def test_latent_dims_follow_config(self):
        for latent in (5, 20):
            mus, _ = encode_dataset(self._checkpoint(latent), toy_dataset(n=3))
            assert mus.shape[1] == latent

    def test_pure_function_of_inputs(self):
        ckpt = self._checkpoint()
        ds = toy_dataset(n=5)
        a, _ = encode_dataset(ckpt, ds)
        b, _ = encode_dataset(ckpt, ds)
        np.testing.assert_array_equal(a, b)


# Reference LSTM kernels for TestKernelPaths. `_scalar_*` are per-element
# loops written straight from the cell equations; `_vectorised_*` are
# plain vectorised kernels on the same batch-innermost (T, 4H, B) and
# (T, H, B) storage, with the sigmoid as 0.5 + 0.5 * tanh(a / 2), whose
# bits the allocation-free `_kernels` versions must reproduce exactly.
# All of them take and return the logical (T, B, 4H) and (T, B, H) shapes.

def _scalar_forward(x_proj, W_h, h0, c0):
    T, B, H4 = x_proj.shape
    H = H4 // 4
    h_all = np.empty((T + 1, B, H))
    c_all = np.empty((T + 1, B, H))
    gates = np.empty((T, B, H4))
    tanhc = np.empty((T, B, H))
    h_all[0] = h0
    c_all[0] = c0
    for t in range(T):
        a = np.dot(h_all[t], W_h)
        for b in range(B):
            for j in range(H):
                i = 1.0 / (1.0 + np.exp(-(a[b, j] + x_proj[t, b, j])))
                f = 1.0 / (1.0 + np.exp(-(a[b, H + j] + x_proj[t, b, H + j])))
                o = 1.0 / (1.0 + np.exp(-(a[b, 2 * H + j]
                                          + x_proj[t, b, 2 * H + j])))
                g = np.tanh(a[b, 3 * H + j] + x_proj[t, b, 3 * H + j])
                c = f * c_all[t, b, j] + i * g
                tc = np.tanh(c)
                gates[t, b, j] = i
                gates[t, b, H + j] = f
                gates[t, b, 2 * H + j] = o
                gates[t, b, 3 * H + j] = g
                tanhc[t, b, j] = tc
                c_all[t + 1, b, j] = c
                h_all[t + 1, b, j] = o * tc
    return h_all, c_all, gates, tanhc


def _scalar_backward(dh_step, dh_last, dc_last, gates, tanhc, c_all, W_h):
    T, B, H4 = gates.shape
    H = H4 // 4
    da_all = np.empty((T, B, H4))
    dh = dh_last.copy()
    dc = dc_last.copy()
    for t in range(T - 1, -1, -1):
        for b in range(B):
            for j in range(H):
                dhv = dh[b, j] + dh_step[t, b, j]
                i = gates[t, b, j]
                f = gates[t, b, H + j]
                o = gates[t, b, 2 * H + j]
                g = gates[t, b, 3 * H + j]
                tc = tanhc[t, b, j]
                dcc = dc[b, j] + dhv * o * (1.0 - tc * tc)
                da_all[t, b, j] = dcc * g * i * (1.0 - i)
                da_all[t, b, H + j] = dcc * c_all[t, b, j] * f * (1.0 - f)
                da_all[t, b, 2 * H + j] = dhv * tc * o * (1.0 - o)
                da_all[t, b, 3 * H + j] = dcc * i * (1.0 - g * g)
                dc[b, j] = dcc * f
        dh = np.dot(da_all[t], W_h.T)
    return da_all, dh, dc


def _masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _tm(a):
    """Logical (.., B, n) <-> batch-innermost (.., n, B)."""
    return a.transpose(0, 2, 1)


def _vectorised_forward(x_proj, W_h, h0, c0):
    T, B, H4 = x_proj.shape
    H = H4 // 4
    h_all = np.empty((T + 1, H, B))
    c_all = np.empty((T + 1, H, B))
    gates = np.empty((T, H4, B))
    tanhc = np.empty((T, H, B))
    h_all[0] = h0.T
    c_all[0] = c0.T
    for t in range(T):
        a = _tm(x_proj)[t] + W_h.T @ h_all[t]
        gates[t, :3 * H] = 0.5 + 0.5 * np.tanh(0.5 * a[:3 * H])
        gates[t, 3 * H:] = np.tanh(a[3 * H:])
        i = gates[t, :H]
        f = gates[t, H:2 * H]
        o = gates[t, 2 * H:3 * H]
        g = gates[t, 3 * H:]
        c_all[t + 1] = f * c_all[t] + i * g
        tanhc[t] = np.tanh(c_all[t + 1])
        h_all[t + 1] = o * tanhc[t]
    return _tm(h_all), _tm(c_all), _tm(gates), _tm(tanhc)


def _vectorised_backward(dh_step, dh_last, dc_last, gates, tanhc, c_all,
                         W_h):
    T, B, H4 = gates.shape
    H = H4 // 4
    dh_step, gates, tanhc, c_all = map(_tm, (dh_step, gates, tanhc, c_all))
    da_all = np.empty((T, H4, B))
    dh = dh_last.T.copy()
    dc = dc_last.T.copy()
    for t in range(T - 1, -1, -1):
        dhv = dh + dh_step[t]
        i = gates[t, :H]
        f = gates[t, H:2 * H]
        o = gates[t, 2 * H:3 * H]
        g = gates[t, 3 * H:]
        tc = tanhc[t]
        dcc = dc + dhv * o * (1.0 - tc * tc)
        da_all[t, :H] = dcc * g * i * (1.0 - i)
        da_all[t, H:2 * H] = dcc * c_all[t] * f * (1.0 - f)
        da_all[t, 2 * H:3 * H] = dhv * tc * o * (1.0 - o)
        da_all[t, 3 * H:] = dcc * i * (1.0 - g * g)
        dc = dcc * f
        dh = W_h @ da_all[t]
    return _tm(da_all), dh.T, dc.T


def _lstm_inputs(seed, T, B, H, scale=1.0):
    rng = np.random.default_rng(seed)
    x_proj = scale * rng.normal(size=(T, B, 4 * H))
    W_h = scale * rng.normal(size=(H, 4 * H)) / np.sqrt(H)
    h0, c0 = rng.normal(size=(B, H)), rng.normal(size=(B, H))
    return x_proj, W_h, h0, c0


def _backward_inputs(seed, fwd, W_h):
    rng = np.random.default_rng(seed)
    h_all, c_all, gates, tanhc = fwd
    T, B, H = tanhc.shape
    dh_step = rng.normal(size=(T, B, H))
    dh, dc = rng.normal(size=(B, H)), rng.normal(size=(B, H))
    return dh_step, dh, dc, gates, tanhc, c_all, W_h


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


class TestKernelPaths:
    """The numpy LSTM kernels against per-element loops (to 1e-14) and
    against the earlier vectorised kernels (bit for bit)."""

    @staticmethod
    def _agree_with_scalar(T, B, H):
        from vraets import _kernels
        args = _lstm_inputs(12, T, B, H)
        fwd = _kernels.lstm_forward(*args)
        for a, b in zip(fwd, _scalar_forward(*args)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
        bargs = _backward_inputs(13, fwd, args[1])
        for a, b in zip(_kernels.lstm_backward(*bargs),
                        _scalar_backward(*bargs)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_forward_and_backward_agree(self):
        self._agree_with_scalar(T=7, B=3, H=4)

    # batch sizes where the carried-gradient product W_h @ da rounds
    # differently from (da^T @ W_h^T)^T on OpenBLAS (B mod 8 in 1..4)
    @pytest.mark.parametrize("T,B,H", [(6, 17, 5), (4, 44, 5)])
    def test_agree_where_the_product_rounds_differently(self, T, B, H):
        self._agree_with_scalar(T, B, H)

    @pytest.mark.parametrize("T,B,H,scale", [(7, 3, 4, 1.0), (40, 17, 5, 4.0),
                                             (25, 64, 32, 30.0),
                                             (3, 1, 1, 1.0)])
    def test_bit_identical_to_vectorised(self, T, B, H, scale):
        from vraets import _kernels
        args = _lstm_inputs(T * B + H, T, B, H, scale)
        fwd = _kernels.lstm_forward(*args)
        _assert_all_equal(fwd, _vectorised_forward(*args))
        bargs = _backward_inputs(1, fwd, args[1])
        _assert_all_equal(_kernels.lstm_backward(*bargs),
                          _vectorised_backward(*bargs))

    def test_broadcast_inputs_bit_identical(self):
        # the decoder passes its bias as a broadcast x_proj, the encoder's
        # BPTT a broadcast zero dh_step
        from vraets import _kernels
        x_proj, W_h, h0, c0 = _lstm_inputs(5, T=9, B=4, H=3, scale=2.0)
        bias = np.broadcast_to(x_proj[0, 0], x_proj.shape)
        fwd = _kernels.lstm_forward(bias, W_h, h0, c0)
        _assert_all_equal(fwd, _vectorised_forward(bias.copy(), W_h, h0, c0))
        _, dh, dc, gates, tanhc, c_all, W_h = _backward_inputs(6, fwd, W_h)
        zero = np.broadcast_to(0.0, tanhc.shape)
        _assert_all_equal(
            _kernels.lstm_backward(zero, dh, dc, gates, tanhc, c_all, W_h),
            _vectorised_backward(np.zeros(tanhc.shape), dh, dc, gates,
                                 tanhc, c_all, W_h))

    def test_logical_shapes_and_batch_innermost_storage(self):
        from vraets import _kernels
        T, B, H = 6, 5, 3
        x_proj, W_h, h0, c0 = _lstm_inputs(8, T, B, H)
        inner = np.ascontiguousarray(x_proj.transpose(0, 2, 1))
        fwd = _kernels.lstm_forward(x_proj, W_h, h0, c0)
        _assert_all_equal(fwd, _kernels.lstm_forward(
            inner.transpose(0, 2, 1), W_h, h0, c0))
        assert [a.shape for a in fwd] == [(T + 1, B, H), (T + 1, B, H),
                                          (T, B, 4 * H), (T, B, H)]
        bias = np.broadcast_to(x_proj[0, 0], x_proj.shape)
        _assert_all_equal(_kernels.lstm_forward(bias, W_h, h0, c0),
                          _kernels.lstm_forward(bias.copy(), W_h, h0, c0))
        bargs = _backward_inputs(9, fwd, W_h)
        bwd = _kernels.lstm_backward(*bargs)
        assert [a.shape for a in bwd] == [(T, B, 4 * H), (B, H), (B, H)]
        # every gate block of a step is one contiguous (H, B) slab
        for a in fwd + bwd[:1]:
            assert a.transpose(0, 2, 1).flags.c_contiguous

    def test_special_preactivations_bit_identical(self):
        # zero recurrent weights and state make every pre-activation of
        # the first step equal to x_proj (-0.0 turns into +0.0 there)
        from vraets import _kernels
        exact = np.array([0.0, -0.0, 800.0, np.inf, -800.0, -np.inf, -745.2,
                          np.nan])
        gate_at_exact = [0.5, 0.5, 1.0, 1.0, 0.0, 0.0, 0.0, np.nan]
        rng = np.random.default_rng(3)
        other = np.concatenate([[1e-300, -1e-300, 5e-324, -5e-324, 36.7,
                                 -36.7], rng.normal(scale=20.0, size=400)])
        special = np.concatenate([exact, other])
        H = len(special)
        x_proj = np.tile(special, 4)[None, None, :]
        W_h = np.zeros((H, 4 * H))
        zeros = np.zeros((1, H))
        with np.errstate(all="ignore"):
            fwd = _kernels.lstm_forward(x_proj, W_h, zeros, zeros)
            want = _vectorised_forward(x_proj, W_h, zeros, zeros)
            logistic = _masked_sigmoid(other)
        _assert_all_equal(fwd, want)
        for gate in fwd[2][0, 0, :3 * H].reshape(3, H):
            np.testing.assert_array_equal(gate[:len(exact)], gate_at_exact)
            np.testing.assert_allclose(gate[len(exact):], logistic, rtol=0,
                                       atol=2.3e-16)
            # the tanh form underflows to an exact 0 in the far tail
            assert np.all(gate[len(exact):][other < -38] == 0.0)
