"""Every artifact reader on metadata of any JSON value: it loads, or it
raises DataError (exit 2 through the CLI), and nothing else."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vraets import artifacts, clustering, dataset, projection, vrae
from vraets.cli import main
from vraets.errors import DataError

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """One small artifact of each kind, keyed by kind."""
    root = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(0)
    windows = dataset.WindowedDataset(
        np.tanh(rng.normal(size=(8, 5, 2))), np.arange(8) % 2, 5, 5,
        ["f0", "f1"])
    windows = dataset.scale_windows(windows,
                                    dataset.fit_minmax([windows.windows]))
    paths = {kind: str(root / kind) for kind in
             ("windows", "checkpoint", "latents", "embedding", "assignment")}
    dataset.save_windows(windows, paths["windows"])
    config = vrae.VraeConfig(input_dim=2, hidden_units=3, latent_dim=2,
                             epochs=1, batch_size=4)
    checkpoint = vrae.train(config, windows)
    checkpoint.save(paths["checkpoint"])
    mus, labels = vrae.encode_dataset(checkpoint, windows)
    artifacts.save_artifact(paths["latents"], "latents", {"latent_dim": 2},
                            {"mus": mus, "labels": labels})
    emb = projection.pca(mus, 2)
    emb.save(paths["embedding"], labels)
    clustering.kmeans_pp(emb.points, 2).save(paths["assignment"])
    return paths


def _key_paths():
    """(kind, path of keys) of every metadata value the writers put down,
    the checkpoint's nested model config included."""
    config = vrae.VraeConfig(input_dim=1, hidden_units=1, latent_dim=1)
    keys = {"windows": ["window_length", "stride", "feature_names"],
            "checkpoint": ["config", "history"],
            "latents": ["latent_dim"],
            "embedding": ["method", "params", "source_dim"],
            "assignment": ["method", "params", "inertia"]}
    cases = [(kind, (key,)) for kind, names in keys.items() for key in names]
    cases += [("checkpoint", ("config", key)) for key in config.to_dict()]
    cases += [("checkpoint", ("config", "anneal", key))
              for key in config.to_dict()["anneal"]]
    return cases


_READERS = {
    "windows": dataset.load_windows,
    "checkpoint": vrae.Checkpoint.load,
    "embedding": projection.Embedding.load,
    "assignment": clustering.ClusterAssignment.load,
}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_key_paths()), value=_JSON)
@example(case=("checkpoint", ("config", "hidden_units")), value=3.0)
def test_any_metadata_value_loads_or_is_data_error(sources, tmp_path_factory,
                                                    case, value):
    kind, keys = case
    _, meta, arrays = artifacts.load_artifact(sources[kind])
    inner = meta
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    bad = str(tmp_path_factory.getbasetemp() / "bad")
    artifacts.save_artifact(bad, kind, meta, arrays)
    if kind == "latents":
        out = str(tmp_path_factory.getbasetemp() / "emb")
        assert main(["project", "--latents", bad, "--method", "pca",
                     "--out", out]) in (0, 2)
        return
    try:
        _READERS[kind](bad)
    except DataError:
        pass
