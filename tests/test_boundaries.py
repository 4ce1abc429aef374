"""Input is checked once, where it enters: the readers, the config and
dataclass constructors, and the CLI stages. The per-batch VRAE step and
the optimizer run only on what those checks let through, and the data
and analysis functions below take the values `config.resolve` allows,
so a structure check keeps every `raise` out of them. A library call
with mismatched arrays fails there with numpy's own error, and one with
a value outside its key's range is not checked."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "vraets")

PER_BATCH = {
    "vrae.py": ("beta_at", "encoder_forward", "posterior_params",
                "decoder_forward", "kl_divergence", "loss", "forward",
                "backward"),
    "numerics.py": ("adam_step", "clip_global_norm"),
}
# each parameter's range is a config key's, checked by config.resolve
CONFIG_CHECKED = {
    "clustering.py": ("kmeans_pp", "hierarchical", "dbscan"),
    "projection.py": ("tsne_affinities",),
    "dataset.py": ("synthesize",),
}


def _top_level_functions(filename):
    with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _raises(table):
    offenders = []
    for filename, names in table.items():
        functions = _top_level_functions(filename)
        for name in names:
            offenders += [f"{filename}:{node.lineno} in {name}"
                          for node in ast.walk(functions[name])
                          if isinstance(node, ast.Raise)]
    return offenders


def test_per_batch_step_raises_nothing():
    offenders = _raises(PER_BATCH)
    assert not offenders, f"raise in the per-batch step: {offenders}"


def test_functions_taking_config_values_raise_nothing():
    offenders = _raises(CONFIG_CHECKED)
    assert not offenders, f"raise past config.resolve: {offenders}"
