"""End-to-end CLI tests on a miniature dataset: every subcommand, exit
codes, artifact chaining, reproducibility manifests, and SVG output."""

import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from vraets import artifacts, cli, dataset
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
        report = json.load(open(os.path.join(pipeline_dir["scores"],
                                             "report.json")))
        metrics = report["metrics"]
        assert set(metrics) == {"accuracy", "auc", "precision", "recall", "f1"}
        for v in metrics.values():
            assert 0.0 <= v <= 1.0
        assert abs(metrics["recall"] - metrics["accuracy"]) < 1e-12
        table = open(os.path.join(pipeline_dir["scores"], "report.txt")).read()
        assert "Accuracy" in table

    def test_manifests_written_with_hashes(self, pipeline_dir):
        man = json.load(open(pipeline_dir["latents"] + ".manifest.json"))
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
            a = open(os.path.join(pipeline_dir["prep"], name), "rb").read()
            b = open(os.path.join(prep, name), "rb").read()
            assert a == b, name
        assert main(["train", *common,
                     "--train-data", os.path.join(prep, "train.windows"),
                     "--out", ckpt]) == 0
        assert open(pipeline_dir["model.ckpt"], "rb").read() \
            == open(ckpt, "rb").read()
        assert main(["encode", *common, "--checkpoint", ckpt,
                     "--data", os.path.join(prep, "test.windows"),
                     "--out", latents]) == 0
        assert open(pipeline_dir["latents"], "rb").read() \
            == open(latents, "rb").read()


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
    ], ids=["gamma-str", "gamma-bool", "eps-list", "classes-unknown",
            "features-int"])
    def test_bad_optional_or_choice_config_value_is_2(self, pipeline_dir,
                                                      tmp_path, capsys, line,
                                                      argv):
        # these used to end in a traceback, run with gamma 1.0, or
        # silently run the multi-class split
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main([a.format(**pipeline_dir) for a in argv]
                    + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]

    def test_negative_epochs_is_2(self, mini_config, pipeline_dir, tmp_path,
                                  capsys):
        code = main(["train", "--config", mini_config, "--epochs", "-3",
                     "--train-data",
                     os.path.join(pipeline_dir["prep"], "train.windows"),
                     "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert "epochs" in capsys.readouterr().err
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

    def test_kpca_on_one_row_latents_is_2(self, tmp_path, capsys):
        latents = str(tmp_path / "latents")
        artifacts.save_artifact(latents, "latents", {"latent_dim": 3},
                                {"mus": np.ones((1, 3)),
                                 "labels": np.zeros(1, dtype=np.int64)})
        code = main(["project", "--latents", latents, "--method", "kpca",
                     "--out", str(tmp_path / "embedding")])
        assert code == 2
        assert "k=2 out of range" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["latents"]

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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats, scipy.cluster and scipy.sparse.csgraph cost a large
    # share of every process's start-up, and only ROC AUC, Ward and the
    # spectral embedding need them, so they are imported there
    code = ("import sys, vraets.cli; "
            "sys.exit(any(m in sys.modules for m in "
            "('scipy.stats', 'scipy.cluster', 'scipy.sparse.csgraph')))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode \
        == 0
