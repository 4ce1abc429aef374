"""Pipeline configuration: defaults, named presets, and the config file.

Config files are plain text, one `key = value` per line, `#` comments.
Keys are dotted paths into the flat default table below; values are
parsed as JSON when possible (numbers, lists, booleans) and kept as
strings otherwise.
"""

from __future__ import annotations

import json
import os

from vraets.dataset import FEATURE_NAMES
from vraets.errors import DataError
from vraets.vrae import AnnealSchedule, VraeConfig

DEFAULTS: dict = {
    "seed": 0,
    "data.dir": "data",
    "synth.rotation_hz": 0.2,
    "synth.sample_rate_hz": 40.0,
    "synth.harmonics": 3,
    "synth.noise_std": 0.05,
    "synth.n_steps": 10_000,
    "prep.features": list(FEATURE_NAMES),
    "prep.window_length": 200,
    "prep.stride": 200,
    "prep.train_fraction": 0.7,
    "prep.classes": "two",          # "two" = normal vs zone 1; "multi" = all
    "vrae.hidden_units": 90,
    "vrae.latent_dim": 20,
    "vrae.learning_rate": 5e-4,
    "vrae.dropout_rate": 0.2,
    "vrae.clip_norm": 5.0,
    "vrae.batch_size": 64,
    "vrae.epochs": 200,             # desk-scale default; flag up to 2000
    "vrae.anneal_mode": "constant",
    "vrae.anneal_cycles": 4,
    "vrae.anneal_ramp": 0.5,
    # KL weight is scaled to the per-entry mean reconstruction loss:
    # beta 1.0 with mean-MSE collapses the posterior on these data, so
    # the default trades off roughly 1/(window_length * features).
    "vrae.beta_max": 0.001,
    "project.method": "pca",
    "project.perplexity": 30.0,
    "project.iterations": 1000,
    "project.gamma": None,
    "project.k_neighbors": 10,
    "cluster.method": "kmeans",
    "cluster.k": 2,
    "cluster.eps": None,
    "cluster.min_pts": 4,
}

PRESETS: dict[str, dict] = {
    "two-class": {
        "prep.classes": "two",
        "vrae.hidden_units": 90,
        "vrae.latent_dim": 20,
        "vrae.anneal_mode": "constant",
        "cluster.k": 2,
    },
    "multi-class": {
        "prep.classes": "multi",
        "vrae.hidden_units": 128,
        "vrae.latent_dim": 5,
        "vrae.anneal_mode": "cyclical",
        "vrae.anneal_cycles": 4,
        "vrae.anneal_ramp": 0.5,
        "project.method": "tsne",
        "cluster.k": 4,
    },
}


def parse_config_file(path) -> dict:
    if not os.path.exists(path):
        raise DataError(f"missing config file: {path}")
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in DEFAULTS:
                    raise DataError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    overrides[key] = json.loads(value)
                except ValueError:
                    # not JSON, or an integer past Python's digit limit
                    overrides[key] = value
                except RecursionError:
                    raise DataError(f"{path}:{lineno}: value of {key!r} "
                                    f"is nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return overrides


def resolve(preset: str | None = None, config_file=None,
            overrides: dict | None = None) -> dict:
    """Defaults <- preset <- config file <- explicit overrides.

    Every key whose default is a number must convert to that type, so
    the int()/float() conversions of the stages cannot fail, and must
    not be a bool; an int key must not hold a fraction, which int()
    would truncate. A key whose default is None holds None or a number
    float() accepts, prep.classes is "two" or "multi", and prep.features
    is a list of names. Values are checked, never rewritten.
    """
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise DataError(f"unknown preset {preset!r}; "
                            f"available: {sorted(PRESETS)}")
        cfg.update(PRESETS[preset])
    if config_file is not None:
        cfg.update(parse_config_file(config_file))
    if overrides:
        unknown = set(overrides) - set(DEFAULTS)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(overrides)
    for key, default in DEFAULTS.items():
        value = cfg[key]
        if default is None and value is None:
            continue
        kind = float if default is None else type(default)
        if kind in (int, float):
            try:
                kind(value)
                if isinstance(value, bool) or (
                        kind is int and isinstance(value, float)
                        and not value.is_integer()):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                expected = ("null or a number" if default is None
                            else kind.__name__)
                raise DataError(f"config key {key!r}: expected "
                                f"{expected}, got {value!r}") from None
    if cfg["prep.classes"] not in ("two", "multi"):
        raise DataError(f"config key 'prep.classes': expected \"two\" or "
                        f"\"multi\", got {cfg['prep.classes']!r}")
    features = cfg["prep.features"]
    if type(features) is not list or not all(type(f) is str
                                             for f in features):
        raise DataError(f"config key 'prep.features': expected a list of "
                        f"names, got {features!r}")
    return cfg


def vrae_config(cfg: dict, input_dim: int) -> VraeConfig:
    anneal = AnnealSchedule(mode=cfg["vrae.anneal_mode"],
                            cycles=int(cfg["vrae.anneal_cycles"]),
                            ramp_fraction=float(cfg["vrae.anneal_ramp"]),
                            beta_max=float(cfg["vrae.beta_max"]))
    return VraeConfig(input_dim=input_dim,
                      hidden_units=int(cfg["vrae.hidden_units"]),
                      latent_dim=int(cfg["vrae.latent_dim"]),
                      learning_rate=float(cfg["vrae.learning_rate"]),
                      dropout_rate=float(cfg["vrae.dropout_rate"]),
                      clip_norm=float(cfg["vrae.clip_norm"]),
                      batch_size=int(cfg["vrae.batch_size"]),
                      epochs=int(cfg["vrae.epochs"]),
                      anneal=anneal,
                      seed=int(cfg["seed"]))
