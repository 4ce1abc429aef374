"""Input is checked once, where it enters: the readers, the config and
dataclass constructors, and the CLI stages. The per-batch VRAE step and
the optimizer run only on what those checks let through, so a structure
check keeps every `raise` out of them; a library call with mismatched
arrays fails there with numpy's own error."""

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


def _top_level_functions(filename):
    with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_per_batch_step_raises_nothing():
    offenders = []
    for filename, names in PER_BATCH.items():
        functions = _top_level_functions(filename)
        for name in names:
            offenders += [f"{filename}:{node.lineno} in {name}"
                          for node in ast.walk(functions[name])
                          if isinstance(node, ast.Raise)]
    assert not offenders, f"raise in the per-batch step: {offenders}"
