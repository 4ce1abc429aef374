"""Golden sha256 hashes of every file a small CLI pipeline writes.

The pipeline runs each preset through generate, preprocess, train,
encode, then project with every method, cluster every embedding with
every method, score every assignment and plot every embedding. The
hashes, and the numpy/scipy/BLAS build they were made on, live in
`hashes.json` next to this script; `tests/test_golden.py` reruns the
pipeline and compares.

A change that alters output bytes on purpose regenerates the file:

    python3 tests/golden/regen.py

It prints the relative paths whose hash changed, and those added or
removed, against the file it replaces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
HASHES = os.path.join(HERE, "hashes.json")

PRESETS = ("two-class", "multi-class")
PROJECTIONS = ("pca", "kpca", "spectral", "tsne")
CLUSTERERS = ("kmeans", "hierarchical", "dbscan")
SEED = "11"
CONFIG = ("synth.n_steps = 1200\n"
          "vrae.hidden_units = 8\n"
          "vrae.latent_dim = 3\n"
          "vrae.epochs = 3\n"
          "vrae.batch_size = 16\n"
          "project.iterations = 100\n")


def build() -> dict:
    """The numpy, scipy and BLAS versions that output bytes depend on."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.25 only prints its config
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def run_pipeline(root: str) -> None:
    """Writes every preset's pipeline outputs under root/<preset>/."""
    from vraets.cli import main

    cfg = os.path.join(root, "golden.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    for preset in PRESETS:
        out = os.path.join(root, preset)
        os.makedirs(out)
        common = ["--config", cfg, "--preset", preset, "--seed", SEED]

        def run(*argv):
            code = main([*argv, *common])
            if code != 0:
                raise RuntimeError(f"{preset}: {' '.join(argv)} exited {code}")

        p = {name: os.path.join(out, name)
             for name in ("data", "prep", "model.ckpt", "latents")}
        run("generate", "--out", p["data"])
        run("preprocess", "--data", p["data"], "--out", p["prep"])
        run("train", "--train-data", os.path.join(p["prep"], "train.windows"),
            "--out", p["model.ckpt"])
        run("encode", "--checkpoint", p["model.ckpt"],
            "--data", os.path.join(p["prep"], "test.windows"),
            "--out", p["latents"])
        for proj in PROJECTIONS:
            emb = os.path.join(out, f"emb_{proj}")
            run("project", "--latents", p["latents"], "--method", proj,
                "--out", emb)
            run("plot", "--embedding", emb, "--out", emb + ".svg")
            for method in CLUSTERERS:
                assign = os.path.join(out, f"assign_{proj}_{method}")
                run("cluster", "--embedding", emb, "--method", method,
                    "--out", assign)
                run("score", "--assignment", assign, "--embedding", emb,
                    "--out", os.path.join(out, f"score_{proj}_{method}"))


def hash_tree(root: str) -> dict[str, str]:
    """sha256 of every file under root/<preset>/, keyed by relative path."""
    hashes = {}
    for preset in PRESETS:
        for dirpath, _, files in os.walk(os.path.join(root, preset)):
            for name in files:
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, "rb") as fh:
                    hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def pipeline_hashes() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(io.StringIO()):
        run_pipeline(root)
        return hash_tree(root)


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per relative path whose hash changed, appeared or went."""
    lines = []
    for rel in sorted(set(old) | set(new)):
        if rel not in new:
            lines.append(f"removed {rel}")
        elif rel not in old:
            lines.append(f"added   {rel}")
        elif old[rel] != new[rel]:
            lines.append(f"changed {rel}")
    return lines


def main() -> None:
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    old = {}
    if os.path.exists(HASHES):
        with open(HASHES, encoding="utf-8") as fh:
            old = json.load(fh)["files"]
    record = {"build": build(), "files": pipeline_hashes()}
    with open(HASHES, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record['files'])} hashes to {HASHES}")
    diff = changes(old, record["files"])
    print(f"{len(diff)} differ from the file it replaces")
    for line in diff:
        print(line)


if __name__ == "__main__":
    main()
