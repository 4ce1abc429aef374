"""The demos still name what vraets has. They train for minutes, so they
are parsed here, not run: every name a demo imports from vraets, and
every attribute it reads off a vraets module, must exist. A demo's own
helpers are loaded without running its main."""

import ast
import glob
import importlib
import importlib.util
import os
import types

import numpy as np
import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


def _resolve(module: str, name: str):
    """What `from module import name` binds, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def test_there_are_demos():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_names_exist(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "vraets":
            for alias in node.names:
                bound = _resolve(node.module, alias.name)
                if bound is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(bound, types.ModuleType):
                    modules[alias.asname or alias.name] = bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules \
                and not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    assert modules
    assert missing == []


def _load_demo(name: str):
    path = os.path.join(os.path.dirname(DEMOS[0]), f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"demo_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClassSeparation:
    def test_identical_classes_score_zero(self):
        demo = _load_demo("latent_analysis")
        latents = np.tile(np.arange(4.0), (10, 1))
        labels = np.array([0] * 5 + [1] * 5)
        means, separation = demo.class_separation(latents, labels)
        np.testing.assert_array_equal(separation, np.zeros(4))
        np.testing.assert_array_equal(means[0], np.arange(4.0))

    def test_separating_dimension_ranked_first(self):
        demo = _load_demo("latent_analysis")
        rng = np.random.default_rng(0)
        latents = rng.normal(size=(40, 6))
        labels = np.array([0] * 20 + [1] * 20)
        latents[:20, 3] = 1.0 + 0.01 * rng.normal(size=20)
        latents[20:, 3] = -1.0 + 0.01 * rng.normal(size=20)
        _, separation = demo.class_separation(latents, labels)
        assert np.argsort(-separation)[0] == 3
