"""Pipeline configuration: defaults, named presets, and the config file.

Config files are plain text, one `key = value` per line, `#` comments.
Keys are dotted paths into the flat default table below; values are
parsed as JSON when possible (numbers, lists, booleans) and kept as
strings otherwise.
"""

from __future__ import annotations

import io
import json
import math

from vraets.artifacts import read_text
from vraets.dataset import FEATURE_NAMES, ZONE_SIDEBAND_HZ
from vraets.errors import DataError
from vraets.vrae import AnnealSchedule, VraeConfig

DEFAULTS: dict = {
    "seed": 0,
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

CLASSES = ("two", "multi")
PROJECT_METHODS = ("pca", "tsne", "kpca", "spectral")
CLUSTER_METHODS = ("kmeans", "hierarchical", "dbscan")


def _one_of(choices: tuple) -> tuple:
    return " or ".join(map(json.dumps, choices)), lambda v: v in choices


# key -> (what its value must be, a test of the converted value). The
# ranges that depend on an input's size (cluster.k, project.perplexity,
# project.k_neighbors) are checked by the stage that reads the input,
# and vrae.* by VraeConfig.
_RANGES = {
    # numpy's SeedSequence takes no negative seed
    "seed": ("an int >= 0", lambda v: v >= 0),
    "synth.rotation_hz": ("a number > 0", lambda v: v > 0),
    "synth.harmonics": ("an int >= 1", lambda v: v >= 1),
    "synth.noise_std": ("a number >= 0", lambda v: v >= 0),
    "synth.n_steps": ("an int >= 1", lambda v: v >= 1),
    "prep.features": ("a non-empty list of names", lambda v: (
        type(v) is list and len(v) > 0 and all(type(f) is str for f in v))),
    "prep.window_length": ("an int >= 1", lambda v: v >= 1),
    "prep.stride": ("an int >= 1", lambda v: v >= 1),
    "prep.train_fraction": ("a number in (0, 1)", lambda v: 0 < v < 1),
    "prep.classes": _one_of(CLASSES),
    "project.method": _one_of(PROJECT_METHODS),
    "project.iterations": ("an int >= 1", lambda v: v >= 1),
    "project.gamma": ("null or a number > 0", lambda v: v is None or v > 0),
    "cluster.method": _one_of(CLUSTER_METHODS),
    "cluster.eps": ("null or a number > 0", lambda v: v is None or v > 0),
    "cluster.min_pts": ("an int >= 1", lambda v: v >= 1),
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
    text = read_text(path, "config file")
    overrides = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
    return overrides


def resolve(preset: str | None = None, config_file=None,
            overrides: dict | None = None) -> dict:
    """Defaults <- preset <- config file <- explicit overrides.

    Every key whose default is a number must convert to that type and
    must not be a bool; an int key must not hold a fraction, which int()
    would truncate, and a float key must be finite. A key whose default
    is None holds None or a finite number float() accepts. Then each key
    of _RANGES must pass its test, and the sample rate must exceed twice
    the highest simulated frequency. This is the one check of these
    values: the stages and the library take what it lets through.
    Numbers are returned converted: an int or float key holds its
    default's type, a None-default key None or a float, so stages read
    them with no cast and manifests record what the stage used.
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
                number = kind(value)
                if isinstance(value, bool) or (
                        kind is int and isinstance(value, float)
                        and not value.is_integer()) or (
                        kind is float and not math.isfinite(number)):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                expected = ("null or a finite number" if default is None
                            else "finite float" if kind is float
                            else kind.__name__)
                raise DataError(f"config key {key!r}: expected "
                                f"{expected}, got {value!r}") from None
            cfg[key] = number
    for key, (expected, test) in _RANGES.items():
        if not test(cfg[key]):
            raise DataError(f"config key {key!r}: expected {expected}, "
                            f"got {cfg[key]!r}")
    # Nyquist: the sample rate exceeds twice the top harmonic and every
    # side-band. harmonics < nyquist / rotation compares an int with a
    # float exactly, where rotation * harmonics could overflow
    nyquist = cfg["synth.sample_rate_hz"] / 2
    rotation = cfg["synth.rotation_hz"]
    if not (nyquist > max(ZONE_SIDEBAND_HZ)
            and cfg["synth.harmonics"] < nyquist / rotation):
        raise DataError(f"config key 'synth.sample_rate_hz': expected more "
                        f"than twice the highest frequency, max(synth."
                        f"rotation_hz * synth.harmonics, "
                        f"{max(ZONE_SIDEBAND_HZ)} Hz), got "
                        f"{cfg['synth.sample_rate_hz']!r}")
    return cfg


def vrae_config(cfg: dict, input_dim: int) -> VraeConfig:
    anneal = AnnealSchedule(mode=cfg["vrae.anneal_mode"],
                            cycles=cfg["vrae.anneal_cycles"],
                            ramp_fraction=cfg["vrae.anneal_ramp"],
                            beta_max=cfg["vrae.beta_max"])
    return VraeConfig(input_dim=input_dim,
                      hidden_units=cfg["vrae.hidden_units"],
                      latent_dim=cfg["vrae.latent_dim"],
                      learning_rate=cfg["vrae.learning_rate"],
                      dropout_rate=cfg["vrae.dropout_rate"],
                      clip_norm=cfg["vrae.clip_norm"],
                      batch_size=cfg["vrae.batch_size"],
                      epochs=cfg["vrae.epochs"],
                      anneal=anneal,
                      seed=cfg["seed"])
