"""End-to-end CLI tests on a miniature dataset: every subcommand, exit
codes, artifact chaining, reproducibility manifests, and SVG output."""

import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from vraets import artifacts, cli, clustering, dataset, projection, vrae
from vraets.cli import main


@pytest.fixture(scope="module")
def mini_config(tmp_path_factory):
    """Config scaled so a full pipeline runs in seconds."""
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(
        "synth.n_steps = 1200\n"
        "prep.window_length = 200         # one rotor revolution\n"
        "prep.stride = 200\n"
        "vrae.hidden_units = 8\n"
        "vrae.latent_dim = 3\n"
        "vrae.epochs = 2\n"
        "vrae.batch_size = 16\n"
        "vrae.beta_max = 0.001\n")
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, mini_config):
    """Runs the full pipeline once; stages assert on its outputs."""
    root = tmp_path_factory.mktemp("pipe")
    d = {k: str(root / k) for k in
         ("data", "prep", "model.ckpt", "latents", "embedding",
          "assignment", "scores", "plot.svg")}
    common = ["--config", mini_config, "--seed", "11"]
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
    assert main(["cluster", *common, "--embedding", d["embedding"],
                 "--method", "kmeans", "--out", d["assignment"]]) == 0
    assert main(["score", *common, "--assignment", d["assignment"],
                 "--embedding", d["embedding"], "--out", d["scores"]]) == 0
    assert main(["plot", *common, "--embedding", d["embedding"],
                 "--out", d["plot.svg"]]) == 0
    return d


class TestPipelineStages:
    def test_generate_writes_all_sims_and_metadata(self, pipeline_dir):
        files = sorted(os.listdir(pipeline_dir["data"]))
        csvs = [f for f in files if f.endswith(".csv") and f != "metadata.csv"]
        assert len(csvs) == 25
        meta = dataset.read_metadata(
            os.path.join(pipeline_dir["data"], "metadata.csv"))
        labels = [ice.label() for ice in meta.values()]
        assert labels.count(0) == 14
        assert sorted(set(labels)) == [0, 1, 2, 3]

    def test_preprocess_artifacts(self, pipeline_dir):
        train = dataset.load_windows(
            os.path.join(pipeline_dir["prep"], "train.windows"))
        test = dataset.load_windows(
            os.path.join(pipeline_dir["prep"], "test.windows"))
        # two-class default keeps 18 sims x 6 windows, split 70/30
        assert len(train) + len(test) == 108
        assert train.windows.shape[1:] == (200, 6)
        assert set(np.unique(train.labels)) <= {0, 1}
        # scaled with the train-set scaler: train inside [-1, 1]
        assert train.windows.min() >= -1.0 - 1e-12
        assert train.windows.max() <= 1.0 + 1e-12

    def test_score_report_files(self, pipeline_dir):
        report = json.loads(Path(pipeline_dir["scores"],
                                 "report.json").read_text())
        metrics = report["metrics"]
        assert set(metrics) == {"accuracy", "auc", "precision", "recall", "f1"}
        for v in metrics.values():
            assert 0.0 <= v <= 1.0
        assert abs(metrics["recall"] - metrics["accuracy"]) < 1e-12
        table = Path(pipeline_dir["scores"], "report.txt").read_text()
        assert "Accuracy" in table

    def test_manifests_written_with_hashes(self, pipeline_dir):
        man = json.loads(Path(pipeline_dir["latents"]
                              + ".manifest.json").read_text())
        assert man["seed"] == 11
        assert set(man["input_hashes"]) == {"checkpoint", "data"}
        for h in man["input_hashes"].values():
            assert len(h) == 64

    def test_svg_structure(self, pipeline_dir):
        tree = ET.parse(pipeline_dir["plot.svg"])
        root = tree.getroot()
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        circles = root.findall(".//s:circle", ns)
        emb_labels = artifacts.load_artifact(pipeline_dir["embedding"])[2]
        # one marker per embedded point (legend swatches are separate)
        assert len(circles) >= len(emb_labels["labels"])
        assert root.findall(".//s:g[@class='legend-entry']", ns)

    def test_svg_escapes_method_text(self, tmp_path):
        emb = str(tmp_path / "emb")
        projection.Embedding(np.arange(8.0).reshape(4, 2), "a<b & c").save(
            emb, np.array([0, 1, 0, 1]))
        svg = str(tmp_path / "plot.svg")
        assert main(["plot", "--embedding", emb, "--out", svg]) == 0
        title = minidom.parse(svg).getElementsByTagName("text")[0]
        assert title.firstChild.data == "a<b & c"

    def test_project_other_methods(self, pipeline_dir, mini_config, tmp_path):
        common = ["--config", mini_config, "--seed", "11"]
        for method in ("tsne", "kpca", "spectral"):
            out = str(tmp_path / f"emb_{method}")
            code = main(["project", *common, "--latents",
                         pipeline_dir["latents"], "--method", method,
                         "--out", out])
            assert code == 0, method
            emb, labels = __import__("vraets.projection", fromlist=["x"]) \
                .Embedding.load(out)
            assert emb.points.shape[1] == 2
            assert labels is not None

    def test_cluster_other_methods(self, pipeline_dir, mini_config, tmp_path):
        common = ["--config", mini_config, "--seed", "11"]
        for method in ("hierarchical", "dbscan"):
            out = str(tmp_path / f"assign_{method}")
            assert main(["cluster", *common,
                         "--embedding", pipeline_dir["embedding"],
                         "--method", method, "--out", out]) == 0


def test_load_records_equal_a_serial_loop(pipeline_dir, mini_config):
    # the odd-indexed sims are read in a forked child
    cfg = cli._resolve(cli.build_parser().parse_args(
        ["preprocess", "--config", mini_config, "--data", "x", "--out", "y"]))
    data = pipeline_dir["data"]
    metadata = dataset.read_metadata(os.path.join(data, "metadata.csv"))
    want = [dataset.select_features(
                dataset.load_csv(os.path.join(data, f"{sim_id}.csv"),
                                 metadata), cfg["prep.features"])
            for sim_id in sorted(metadata)]
    got = cli._load_records(data, cfg)
    assert len(got) == len(want) == 25
    for g, w in zip(got, want):
        assert (g.sim_id, g.config, g.feature_names) == \
            (w.sim_id, w.config, w.feature_names)
        assert g.values.tobytes() == w.values.tobytes()


def _manifest_config(path):
    with open(path + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["config"]


class TestManifestConfig:
    """A manifest's config holds the values its stage ran with, so a rerun
    from it repeats the run, whichever flag set them."""

    def test_method_overrides_are_recorded(self, pipeline_dir, mini_config,
                                           tmp_path):
        common = ["--config", mini_config, "--seed", "11"]
        emb, assign = str(tmp_path / "emb"), str(tmp_path / "assign")
        assert main(["project", *common, "--latents", pipeline_dir["latents"],
                     "--method", "kpca", "--out", emb]) == 0
        assert main(["cluster", *common, "--embedding", emb,
                     "--method", "dbscan", "--out", assign]) == 0
        assert projection.Embedding.load(emb)[0].method == "kernel_pca_rbf"
        assert _manifest_config(emb)["project.method"] == "kpca"
        assert clustering.ClusterAssignment.load(assign).method == "dbscan"
        assert _manifest_config(assign)["cluster.method"] == "dbscan"

    def test_epochs_override_is_recorded(self, pipeline_dir, mini_config,
                                         tmp_path):
        # the config file says 2 epochs; --epochs wins and is recorded
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", mini_config, "--seed", "11",
                     "--epochs", "1", "--train-data",
                     os.path.join(pipeline_dir["prep"], "train.windows"),
                     "--out", ckpt]) == 0
        assert vrae.Checkpoint.load(ckpt).config.epochs == 1
        assert _manifest_config(ckpt)["vrae.epochs"] == 1


def test_every_config_key_is_read(mini_config, tmp_path, monkeypatch):
    # a key that no stage reads is a setting that silently does nothing
    read = set()
    resolve = cli.cfgmod.resolve

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(cli.cfgmod, "resolve",
                        lambda *a, **kw: Recording(resolve(*a, **kw)))
    d = {k: str(tmp_path / k) for k in ("data", "prep", "ckpt", "latents")}

    def run(*argv):
        assert main([*argv, "--config", mini_config, "--seed", "11"]) == 0

    run("generate", "--out", d["data"])
    run("preprocess", "--data", d["data"], "--out", d["prep"])
    run("train", "--train-data", os.path.join(d["prep"], "train.windows"),
        "--out", d["ckpt"])
    run("encode", "--checkpoint", d["ckpt"], "--out", d["latents"],
        "--data", os.path.join(d["prep"], "test.windows"))
    for method in ("pca", "tsne", "kpca", "spectral"):
        run("project", "--latents", d["latents"], "--method", method,
            "--out", str(tmp_path / f"emb_{method}"))
    for method in ("kmeans", "hierarchical", "dbscan"):
        run("cluster", "--embedding", str(tmp_path / "emb_pca"),
            "--method", method, "--out", str(tmp_path / f"assign_{method}"))
    assert sorted(set(cli.cfgmod.DEFAULTS) - read) == []


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline_dir, mini_config,
                                     tmp_path):
        """Same seed, same inputs: identical artifact bytes at each stage."""
        common = ["--config", mini_config, "--seed", "11"]
        prep = str(tmp_path / "prep2")
        ckpt = str(tmp_path / "model2.ckpt")
        latents = str(tmp_path / "latents2")
        assert main(["preprocess", *common, "--data", pipeline_dir["data"],
                     "--out", prep]) == 0
        for name in ("train.windows", "test.windows"):
            assert Path(pipeline_dir["prep"], name).read_bytes() \
                == Path(prep, name).read_bytes(), name
        assert main(["train", *common,
                     "--train-data", os.path.join(prep, "train.windows"),
                     "--out", ckpt]) == 0
        assert Path(pipeline_dir["model.ckpt"]).read_bytes() \
            == Path(ckpt).read_bytes()
        assert main(["encode", *common, "--checkpoint", ckpt,
                     "--data", os.path.join(prep, "test.windows"),
                     "--out", latents]) == 0
        assert Path(pipeline_dir["latents"]).read_bytes() \
            == Path(latents).read_bytes()


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["train"]) == 1               # missing required flags
        assert main(["no-such-command", "--out", "x"]) == 1

    def test_missing_artifact_is_2(self, tmp_path, capsys):
        code = main(["encode", "--checkpoint", str(tmp_path / "nope"),
                     "--data", str(tmp_path / "nope2"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_wrong_artifact_kind_is_2(self, pipeline_dir, tmp_path):
        code = main(["cluster", "--embedding", pipeline_dir["model.ckpt"],
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_config_key_is_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no.such.key = 1\n")
        code = main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "data")])
        assert code == 2

    def test_non_numeric_config_value_is_2(self, pipeline_dir, tmp_path,
                                            capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("vrae.epochs = abc\n")
        code = main(["train", "--config", str(cfg), "--train-data",
                     os.path.join(pipeline_dir["prep"], "train.windows"),
                     "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert "vrae.epochs" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_windows_metadata_contradicting_arrays_is_2(self, pipeline_dir,
                                                        mini_config, tmp_path,
                                                        capsys):
        kind, meta, arrays = artifacts.load_artifact(
            os.path.join(pipeline_dir["prep"], "train.windows"))
        meta["feature_names"] = meta["feature_names"][:-1]
        windows = str(tmp_path / "train.windows")
        artifacts.save_artifact(windows, kind, meta, arrays)
        code = main(["train", "--config", mini_config, "--train-data",
                     windows, "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert "feature names for" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("line", ["vrae.epochs = 2.7",
                                      "vrae.hidden_units = true",
                                      "prep.window_length = 200.9",
                                      "vrae.beta_max = false"])
    def test_truncated_or_bool_config_value_is_2(self, pipeline_dir,
                                                 tmp_path, capsys, line):
        # int()/float() would silently turn these into 2 epochs, a
        # 1-unit LSTM, 200-step windows and a zero KL weight
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(["train", "--config", str(cfg), "--train-data",
                     os.path.join(pipeline_dir["prep"], "train.windows"),
                     "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("line, argv", [
        ("project.gamma = abc",
         ["project", "--method", "kpca", "--latents", "{latents}"]),
        ("project.gamma = true",
         ["project", "--method", "kpca", "--latents", "{latents}"]),
        ("cluster.eps = [1]",
         ["cluster", "--method", "dbscan", "--embedding", "{embedding}"]),
        ("prep.classes = three", ["preprocess", "--data", "{data}"]),
        ("prep.features = 7", ["preprocess", "--data", "{data}"]),
        ("project.gamma = NaN",
         ["project", "--method", "kpca", "--latents", "{latents}"]),
        ("cluster.eps = NaN",
         ["cluster", "--method", "dbscan", "--embedding", "{embedding}"]),
        ("vrae.learning_rate = Infinity",
         ["train", "--train-data", "{prep}/train.windows"]),
        ("synth.harmonics = 0", ["generate"]),
        ("synth.harmonics = 1" + "0" * 400, ["generate"]),
        ("synth.noise_std = -1", ["generate"]),
        ("synth.n_steps = 0", ["generate"]),
        ("synth.sample_rate_hz = 1.0", ["generate"]),
        ("prep.features = []", ["preprocess", "--data", "{data}"]),
        ("prep.window_length = 0", ["preprocess", "--data", "{data}"]),
        ("prep.stride = 0", ["preprocess", "--data", "{data}"]),
        ("prep.train_fraction = 1.0", ["preprocess", "--data", "{data}"]),
        ("project.method = umap", ["project", "--latents", "{latents}"]),
        ("project.iterations = 0",
         ["project", "--method", "tsne", "--latents", "{latents}"]),
        ("project.gamma = -1",
         ["project", "--method", "kpca", "--latents", "{latents}"]),
        ("cluster.method = optics", ["cluster", "--embedding", "{embedding}"]),
        ("cluster.eps = 0",
         ["cluster", "--method", "dbscan", "--embedding", "{embedding}"]),
        ("cluster.min_pts = 0",
         ["cluster", "--method", "dbscan", "--embedding", "{embedding}"]),
    ], ids=["gamma-str", "gamma-bool", "eps-list", "classes-unknown",
            "features-int", "gamma-nan", "eps-nan", "learning-rate-inf",
            "harmonics-zero", "harmonics-400-digits", "noise-std-negative",
            "n-steps-zero", "sample-rate-below-nyquist", "features-empty",
            "window-length-zero", "stride-zero", "train-fraction-one",
            "project-method-unknown", "iterations-zero", "gamma-negative",
            "cluster-method-unknown", "eps-zero", "min-pts-zero"])
    def test_bad_optional_or_choice_config_value_is_2(self, pipeline_dir,
                                                      tmp_path, capsys, line,
                                                      argv):
        # these used to end in a traceback, run with gamma 1.0, find 0
        # DBSCAN clusters, silently run the multi-class split, or leave
        # an empty --out directory; each is rejected before a stage
        # reads its input
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main([a.format(**pipeline_dir) for a in argv]
                    + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_default_eps_on_fewer_than_two_points_is_2(self, tmp_path, capsys,
                                                      n_points):
        # 0 points ended in a traceback, and 1 point wrote "eps":Infinity
        emb = str(tmp_path / "emb")
        projection.Embedding(np.zeros((n_points, 2)), "pca").save(
            emb, np.zeros(n_points, dtype=np.int64))
        code = main(["cluster", "--method", "dbscan", "--embedding", emb,
                     "--out", str(tmp_path / "assign")])
        assert code == 2
        assert "cluster.eps" in capsys.readouterr().err
        assert not (tmp_path / "assign").exists()

    def test_explicit_eps_clusters_one_point(self, tmp_path):
        emb, assign = str(tmp_path / "emb"), str(tmp_path / "assign")
        projection.Embedding(np.zeros((1, 2)), "pca").save(
            emb, np.zeros(1, dtype=np.int64))
        cfg = tmp_path / "eps.cfg"
        cfg.write_text("cluster.eps = 0.5\n")
        assert main(["cluster", "--method", "dbscan", "--config", str(cfg),
                     "--embedding", emb, "--out", assign]) == 0
        loaded = clustering.ClusterAssignment.load(assign)
        assert loaded.labels.tolist() == [-1]
        assert loaded.params["eps"] == 0.5

    def test_negative_epochs_is_2(self, mini_config, pipeline_dir, tmp_path,
                                  capsys):
        code = main(["train", "--config", mini_config, "--epochs", "-3",
                     "--train-data",
                     os.path.join(pipeline_dir["prep"], "train.windows"),
                     "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert "epochs" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_clip_norm_is_2(self, mini_config, pipeline_dir,
                                         tmp_path, capsys, value):
        cfg = tmp_path / "clip.cfg"
        cfg.write_text(Path(mini_config).read_text()
                       + f"vrae.clip_norm = {value}\n")
        code = main(["train", "--config", str(cfg), "--train-data",
                     os.path.join(pipeline_dir["prep"], "train.windows"),
                     "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert "clip_norm must be positive" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_val_data_in_another_feature_order_is_2(self, mini_config,
                                                    pipeline_dir, tmp_path,
                                                    capsys):
        kind, meta, arrays = artifacts.load_artifact(
            os.path.join(pipeline_dir["prep"], "test.windows"))
        names = meta["feature_names"]
        meta["feature_names"] = names[::-1]
        arrays["windows"] = arrays["windows"][..., ::-1]
        val = str(tmp_path / "val.windows")
        artifacts.save_artifact(val, kind, meta, arrays)
        code = main(["train", "--config", mini_config, "--train-data",
                     os.path.join(pipeline_dir["prep"], "train.windows"),
                     "--val-data", val, "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(names) in err and str(names[::-1]) in err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("name", ["sim_003.csv", "metadata.csv"])
    def test_non_utf8_input_file_is_2(self, pipeline_dir, mini_config,
                                      tmp_path, capsys, name):
        data = tmp_path / "data"
        shutil.copytree(pipeline_dir["data"], data)
        target = data / name
        target.write_bytes(target.read_bytes() + b"\xff\n")
        code = main(["preprocess", "--config", mini_config, "--data",
                     str(data), "--out", str(tmp_path / "prep")])
        assert code == 2
        assert f"{name}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["sim_001"], ["sim_002"],
                                     ["sim_001", "sim_002"]],
                             ids=["child", "parent", "both"])
    def test_bad_csv_on_either_process_is_2(self, pipeline_dir, mini_config,
                                            tmp_path, capsys, bad):
        # preprocess reads the odd-indexed sims in a forked child; the
        # lowest bad sim_id is reported, as by a serial loop
        data = tmp_path / "data"
        shutil.copytree(pipeline_dir["data"], data)
        for sim_id in bad:
            path = data / f"{sim_id}.csv"
            lines = path.read_text().split("\n")
            lines[2] = "abc" + lines[2][lines[2].index(","):]
            path.write_text("\n".join(lines))
        code = main(["preprocess", "--config", mini_config, "--data",
                     str(data), "--out", str(tmp_path / "prep")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad[0]}.csv:3: bad numeric cell in column" in err
        assert err.count("bad numeric cell") == 1
        assert not (tmp_path / "prep").exists()

    @pytest.mark.parametrize("line, argv, n", [
        ("cluster.k = 5",
         ["cluster", "--method", "kmeans", "--embedding", "{embedding}"], 3),
        ("cluster.k = 5",
         ["cluster", "--method", "hierarchical", "--embedding",
          "{embedding}"], 3),
        ("cluster.k = 0",
         ["cluster", "--method", "kmeans", "--embedding", "{embedding}"], 3),
        ("# default perplexity 30",
         ["project", "--method", "tsne", "--latents", "{latents}"], 10),
        ("project.k_neighbors = 10",
         ["project", "--method", "spectral", "--latents", "{latents}"], 10),
        ("project.perplexity = 1.0",
         ["project", "--method", "tsne", "--latents", "{latents}"], 10),
        ("project.k_neighbors = -1",
         ["project", "--method", "spectral", "--latents", "{latents}"], 10),
    ], ids=["kmeans-k", "hierarchical-k", "k-zero", "tsne-perplexity",
            "spectral-k-neighbors", "perplexity-one", "k-neighbors-negative"])
    def test_key_out_of_range_for_input_size_names_key_and_path(
            self, tmp_path, capsys, line, argv, n):
        rng = np.random.default_rng(0)
        paths = {"latents": str(tmp_path / "latents"),
                 "embedding": str(tmp_path / "embedding")}
        artifacts.save_artifact(paths["latents"], "latents",
                                {"latent_dim": 3},
                                {"mus": rng.standard_normal((n, 3)),
                                 "labels": np.zeros(n, dtype=np.int64)})
        projection.Embedding(rng.standard_normal((n, 2)), "pca").save(
            paths["embedding"], np.zeros(n, dtype=np.int64))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = main([a.format(**paths) for a in argv]
                    + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        key = ("cluster.k" if argv[0] == "cluster" else
               "project.perplexity" if "tsne" in argv
               else "project.k_neighbors")
        assert f"config key '{key}'" in err
        assert paths[argv[-1].strip("{}")] in err
        assert f"for the {n} points" in err
        assert not out.exists()

    @staticmethod
    def _preprocess_with_mass(pipeline_dir, mini_config, tmp_path, mass):
        """Preprocesses a copy of the data whose sim_014 has the given
        masses; returns the exit code and that sim's metadata line."""
        data = tmp_path / "data"
        shutil.copytree(pipeline_dir["data"], data)
        meta = data / "metadata.csv"
        lines = meta.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith("sim_014,"))
        lines[lineno - 1] = f"sim_014,{mass}"
        meta.write_text("\n".join(lines) + "\n")
        code = main(["preprocess", "--config", mini_config, "--data",
                     str(data), "--out", str(tmp_path / "prep")])
        return code, lineno

    @pytest.mark.parametrize("mass", ["nan-0-0", "inf-0-0"])
    def test_non_finite_ice_mass_is_2(self, pipeline_dir, mini_config,
                                      tmp_path, capsys, mass):
        # nan > 0 is false: a NaN mass would count an iced sim as healthy
        code, lineno = self._preprocess_with_mass(pipeline_dir, mini_config,
                                                  tmp_path, mass)
        assert code == 2
        err = capsys.readouterr().err
        assert f"metadata.csv:{lineno}:" in err and "finite" in err
        assert not (tmp_path / "prep").exists()

    def test_ice_in_two_zones_is_2(self, pipeline_dir, mini_config, tmp_path,
                                   capsys):
        # such a sim has no one label; the sidecar line is named
        code, lineno = self._preprocess_with_mass(pipeline_dir, mini_config,
                                                  tmp_path, "0.4-0.6-0")
        assert code == 2
        err = capsys.readouterr().err
        assert f"metadata.csv:{lineno}:" in err
        assert "more than one zone (0.4-0.6-0)" in err
        assert not (tmp_path / "prep").exists()

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"synth.n_steps = 1200 # \xff\n")
        code = main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "data")])
        assert code == 2
        assert "bad.cfg: not UTF-8" in capsys.readouterr().err

    def test_trailing_bytes_in_latents_is_2(self, pipeline_dir, tmp_path,
                                            capsys):
        latents = tmp_path / "latents"
        shutil.copy(pipeline_dir["latents"], latents)
        with open(latents, "ab") as fh:
            fh.write(b"garbage")
        code = main(["project", "--latents", str(latents), "--method", "pca",
                     "--out", str(tmp_path / "embedding")])
        assert code == 2
        assert "trailing bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_nonpositive_tsne_iterations_is_2(self, pipeline_dir, tmp_path,
                                              capsys, iterations):
        # it used to save the scaled PCA initialisation as the embedding
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"project.iterations = {iterations}\n")
        code = main(["project", "--config", str(cfg), "--latents",
                     pipeline_dir["latents"], "--method", "tsne",
                     "--out", str(tmp_path / "embedding")])
        assert code == 2
        assert "iterations" in capsys.readouterr().err
        assert not (tmp_path / "embedding").exists()

    @pytest.mark.parametrize("source, drop_meta, drop_array, argv, missing", [
        ("train.windows", True, None,
         ["train", "--train-data", "{bad}"], "meta key 'window_length'"),
        ("latents", False, "mus",
         ["project", "--method", "pca", "--latents", "{bad}"], "array 'mus'"),
        ("embedding", True, None,
         ["cluster", "--embedding", "{bad}"], "meta key 'method'"),
        ("model.ckpt", True, None,
         ["encode", "--checkpoint", "{bad}", "--data", "{test}"],
         "meta key 'config'"),
        ("assignment", True, None,
         ["score", "--assignment", "{bad}", "--embedding", "{embedding}"],
         "meta key 'method'"),
    ], ids=["windows", "latents", "embedding", "checkpoint", "assignment"])
    def test_artifact_missing_key_is_2(self, pipeline_dir, tmp_path, capsys,
                                       source, drop_meta, drop_array, argv,
                                       missing):
        # valid to load_artifact, but without what the reader needs
        src = pipeline_dir[source] if source in pipeline_dir else \
            os.path.join(pipeline_dir["prep"], source)
        kind, meta, arrays = artifacts.load_artifact(src)
        arrays.pop(drop_array, None)
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, {} if drop_meta else meta, arrays)
        paths = {"bad": bad, "embedding": pipeline_dir["embedding"],
                 "test": os.path.join(pipeline_dir["prep"], "test.windows")}
        code = main([a.format(**paths) for a in argv]
                    + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("window_length", "abc"), ("window_length", 5.5),
        ("window_length", 0), ("stride", True), ("feature_names", 7),
        ("feature_names", ["a", 1]),
    ], ids=["length-str", "length-float", "length-zero", "stride-bool",
            "names-int", "names-mixed"])
    def test_windows_bad_meta_type_is_2(self, pipeline_dir, mini_config,
                                        tmp_path, capsys, key, value):
        kind, meta, arrays = artifacts.load_artifact(
            os.path.join(pipeline_dir["prep"], "train.windows"))
        meta[key] = value
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, meta, arrays)
        code = main(["train", "--config", mini_config, "--train-data", bad,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad"]

    @pytest.mark.parametrize("key, value", [
        ("history", [1.0]), ("history", {"train_total": "ab"}),
    ], ids=["history-list", "history-str-values"])
    def test_checkpoint_bad_meta_type_is_2(self, pipeline_dir, tmp_path,
                                           capsys, key, value):
        kind, meta, arrays = artifacts.load_artifact(pipeline_dir["model.ckpt"])
        meta[key] = value
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, meta, arrays)
        code = main(["encode", "--checkpoint", bad, "--data",
                     os.path.join(pipeline_dir["prep"], "test.windows"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} must" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad"]

    @pytest.mark.parametrize("change, message", [
        (lambda c: c[:, 0], "centroids must be 2-D"),
        (lambda c: np.hstack([c, c]), "centroids have shape"),
        (lambda c: c[:1], "centroids have 1 rows for cluster id 1"),
        (lambda c: c[:, :1], "centroids have shape"),
    ], ids=["centroids-1d", "centroids-wide", "centroids-short",
            "centroids-narrow"])
    def test_assignment_bad_centroids_is_2(self, pipeline_dir, tmp_path,
                                           capsys, change, message):
        kind, meta, arrays = artifacts.load_artifact(pipeline_dir["assignment"])
        arrays["centroids"] = change(arrays["centroids"])
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, meta, arrays)
        code = main(["score", "--assignment", bad, "--embedding",
                     pipeline_dir["embedding"], "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad"]

    def test_assignment_label_count_differs_is_2(self, pipeline_dir, tmp_path,
                                                 capsys):
        # one cluster label per point of the embedding it is scored against
        kind, meta, arrays = artifacts.load_artifact(pipeline_dir["assignment"])
        arrays["labels"] = np.concatenate([arrays["labels"]] * 2)
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, meta, arrays)
        code = main(["score", "--assignment", bad, "--embedding",
                     pipeline_dir["embedding"], "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and pipeline_dir["embedding"] in err
        assert os.listdir(tmp_path) == ["bad"]

    @pytest.mark.parametrize("method, shape, line, message", [
        ("pca", (20, 1), "", "pca: k=2 out of range for 20x1 data"),
        ("tsne", (3, 3), "project.perplexity = 2.0",
         "tsne: need at least 4 points"),
        ("spectral", (2, 3), "project.k_neighbors = 1",
         "spectral_embedding: dims 2 must be in [1, 1] for 2 points"),
        ("kpca", (1, 3), "", "kernel_pca_rbf: k=2 out of range for 1 points"),
    ], ids=["pca", "tsne", "spectral", "kpca"])
    def test_latents_too_small_for_method_names_path(self, tmp_path, capsys,
                                                      method, shape, line,
                                                      message):
        latents = str(tmp_path / "latents")
        rows, dim = shape
        artifacts.save_artifact(latents, "latents", {"latent_dim": dim},
                                {"mus": np.arange(rows * dim, dtype=np.float64)
                                 .reshape(shape),
                                 "labels": np.zeros(rows, dtype=np.int64)})
        cfg = tmp_path / "small.cfg"
        cfg.write_text(line + "\n")
        code = main(["project", "--latents", latents, "--method", method,
                     "--config", str(cfg),
                     "--out", str(tmp_path / "embedding")])
        assert code == 2
        assert f"error: {latents}: {message}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["latents", "small.cfg"]

    @pytest.mark.parametrize("mus, labels, message", [
        (np.ones((20, 3)), np.zeros(3, dtype=np.int64), "labels have shape"),
        (np.ones(20), np.zeros(20, dtype=np.int64), "mus must be 2-D"),
    ], ids=["labels-count", "mus-1d"])
    def test_latents_bad_shape_is_2(self, tmp_path, capsys, mus, labels,
                                    message):
        latents = str(tmp_path / "latents")
        artifacts.save_artifact(latents, "latents", {"latent_dim": 3},
                                {"mus": mus, "labels": labels})
        code = main(["project", "--latents", latents, "--method", "pca",
                     "--out", str(tmp_path / "embedding")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["latents"]

    @pytest.mark.parametrize("change, message", [
        ({"points": lambda a: a[:, 0]}, "points must be 2-D"),
        ({"labels": lambda a: a[:-1]}, "labels have shape"),
        ({"source_dim": "x"}, "source_dim must be an integer"),
        ({"source_dim": 2.5}, "source_dim must be an integer"),
    ], ids=["points-1d", "labels-count", "source-dim-str",
            "source-dim-float"])
    def test_embedding_bad_shape_or_source_dim_is_2(self, pipeline_dir,
                                                    tmp_path, capsys, change,
                                                    message):
        kind, meta, arrays = artifacts.load_artifact(pipeline_dir["embedding"])
        for key, value in change.items():
            if key in arrays:
                arrays[key] = value(arrays[key])
            else:
                meta[key] = value
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, meta, arrays)
        code = main(["cluster", "--embedding", bad, "--method", "kmeans",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad"]

    def test_embedding_non_string_method_is_2(self, pipeline_dir, tmp_path,
                                              capsys):
        kind, meta, arrays = artifacts.load_artifact(pipeline_dir["embedding"])
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, {**meta, "method": [1, 2]}, arrays)
        code = main(["plot", "--embedding", bad,
                     "--out", str(tmp_path / "plot.svg")])
        assert code == 2
        assert "method must be a string" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad"]

    @pytest.mark.parametrize("argv, named", [
        (["generate", "--config", "{dir}", "--out", "{tmp}/data"], "{dir}"),
        (["cluster", "--embedding", "{dir}", "--out", "{tmp}/out"], "{dir}"),
        (["generate", "--out", "{file}"], "{file}"),
        (["encode", "--checkpoint", "{ckpt}", "--data",
          "{prep}/test.windows", "--out", "{tmp}/nodir/x"], "{tmp}/nodir/x"),
        (["encode", "--checkpoint", "{ckpt}", "--data",
          "{prep}/test.windows", "--out", "{dir}"], "{dir}"),
    ], ids=["config-dir", "embedding-dir", "out-existing-file",
            "out-missing-parent", "out-dir"])
    def test_os_error_is_2(self, pipeline_dir, tmp_path, capsys, argv,
                           named):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("kept\n")
        paths = {**pipeline_dir, "ckpt": pipeline_dir["model.ckpt"],
                 "tmp": str(tmp_path),
                 "dir": str(tmp_path / "dir"), "file": str(tmp_path / "file")}
        before = sorted(tmp_path.rglob("*"))
        code = main([a.format(**paths) for a in argv])
        assert code == 2
        assert named.format(**paths) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        ["generate"], ["preprocess", "--data", "{data}"],
    ], ids=["generate", "preprocess"])
    def test_negative_seed_is_2(self, pipeline_dir, tmp_path, capsys, argv):
        code = main([a.format(**pipeline_dir) for a in argv]
                    + ["--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'seed'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("keys, value", [
        (("hidden_units",), 3.0), (("epochs",), 2.5),
        (("anneal", "cycles"), "4"),
    ], ids=["hidden-units-float", "epochs-fraction", "anneal-cycles-str"])
    def test_checkpoint_config_wrong_type_is_2(self, pipeline_dir, tmp_path,
                                               capsys, keys, value):
        kind, meta, arrays = artifacts.load_artifact(pipeline_dir["model.ckpt"])
        inner = meta["config"]
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value
        bad = str(tmp_path / "bad")
        artifacts.save_artifact(bad, kind, meta, arrays)
        code = main(["encode", "--checkpoint", bad, "--data",
                     os.path.join(pipeline_dir["prep"], "test.windows"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert bad in err and keys[-1] in err
        assert os.listdir(tmp_path) == ["bad"]

    def test_unknown_preset_rejected_by_argparse(self):
        assert main(["generate", "--preset", "bogus", "--out", "x"]) == 1

    def test_help_is_0(self):
        assert main(["--help"]) == 0


class TestConfigEcho:
    def test_two_class_preset_settings(self):
        cfg = cli.cfgmod.resolve("two-class")
        assert cfg["vrae.hidden_units"] == 90
        assert cfg["vrae.latent_dim"] == 20
        assert cfg["vrae.learning_rate"] == pytest.approx(5e-4)
        assert cfg["vrae.dropout_rate"] == pytest.approx(0.2)
        assert cfg["vrae.batch_size"] == 64
        assert cfg["vrae.anneal_mode"] == "constant"
        assert cfg["cluster.k"] == 2

    def test_multi_class_preset_settings(self):
        cfg = cli.cfgmod.resolve("multi-class")
        assert cfg["vrae.hidden_units"] == 128
        assert cfg["vrae.latent_dim"] == 5
        assert cfg["vrae.anneal_mode"] == "cyclical"
        assert cfg["project.method"] == "tsne"
        assert cfg["cluster.k"] == 4


def _env_with_src(**overrides) -> dict:
    """The environment of a child Python that imports vraets from src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats, scipy.cluster and scipy.sparse.csgraph cost a large
    # share of every process's start-up, and only ROC AUC, Ward and the
    # spectral embedding need them, so they are imported there
    code = ("import sys, vraets.cli; "
            "sys.exit(any(m in sys.modules for m in "
            "('scipy.stats', 'scipy.cluster', 'scipy.sparse.csgraph')))")
    assert subprocess.run([sys.executable, "-c", code],
                          env=_env_with_src()).returncode == 0


def test_cli_import_starts_no_thread_until_the_first_task():
    code = ("import threading, vraets.cli\n"
            "from vraets import _helper\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "with _helper.beside(int):\n"
            "    pass\n"
            "assert threading.active_count() == 2, threading.enumerate()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _tsne_run(tmp_path):
    """Saves 5-dim latents in 4 classes (14:4:4:3) around rows of a
    random orthogonal matrix, N=375, and returns argv(out): the command
    that projects them with t-SNE into out."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    sizes = [210, 60, 60, 45]
    labels = np.repeat(np.arange(4), sizes)
    mus = 5.0 * q[labels] + rng.standard_normal((len(labels), 5))
    latents = str(tmp_path / "latents")
    artifacts.save_artifact(latents, "latents", {"latent_dim": 5},
                            {"mus": mus, "labels": labels})

    def argv(out):
        return [sys.executable, "-m", "vraets.cli", "project",
                "--preset", "multi-class", "--method", "tsne",
                "--latents", latents, "--out", str(out)]
    return argv


def test_tsne_bytes_do_not_depend_on_blas_threads(tmp_path):
    # two BLAS threads round some products differently from one, and
    # t-SNE grows that into another embedding
    argv = _tsne_run(tmp_path)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"emb_{threads}"
        env = _env_with_src(OPENBLAS_NUM_THREADS=threads,
                            OMP_NUM_THREADS=threads)
        assert subprocess.run(argv(out), env=env, stdout=subprocess.DEVNULL
                              ).returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_tsne_bytes_do_not_depend_on_core_count(tmp_path):
    # t-SNE splits its rows between two threads the same way on one core
    # as on many
    argv = _tsne_run(tmp_path)
    one_cpu = {min(os.sched_getaffinity(0))}
    outs = []
    for pin in (True, False):
        out = tmp_path / f"emb_{pin}"
        preexec = (lambda: os.sched_setaffinity(0, one_cpu)) if pin else None
        assert subprocess.run(argv(out), env=_env_with_src(),
                              preexec_fn=preexec, stdout=subprocess.DEVNULL
                              ).returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_checkpoint_bytes_do_not_depend_on_core_count(pipeline_dir,
                                                       tmp_path):
    # the backward pass splits its sums between two threads the same way
    # on one core as on many
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("vrae.hidden_units = 8\n"
                   "vrae.latent_dim = 3\n"
                   "vrae.epochs = 3\n"
                   "vrae.batch_size = 16\n")
    one_cpu = {min(os.sched_getaffinity(0))}
    outs = []
    for pin in (True, False):
        out = tmp_path / f"model_{pin}.ckpt"
        argv = [sys.executable, "-m", "vraets.cli", "train",
                "--config", str(cfg), "--seed", "4", "--train-data",
                os.path.join(pipeline_dir["prep"], "train.windows"),
                "--out", str(out)]
        preexec = (lambda: os.sched_setaffinity(0, one_cpu)) if pin else None
        assert subprocess.run(argv, env=_env_with_src(), preexec_fn=preexec,
                              stdout=subprocess.DEVNULL).returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
