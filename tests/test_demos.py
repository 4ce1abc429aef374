"""The demos still name what vraets has. They train for minutes, so they
are parsed here, not run: every name a demo imports from vraets, and
every attribute it reads off a vraets module, must exist."""

import ast
import glob
import importlib
import os
import types

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
