"""Command-line pipeline orchestrator.

Each subcommand performs one stage and persists a versioned artifact
plus a reproducibility manifest (config snapshot, input hashes, seed),
so the pipeline can be resumed from any stage:

    generate -> preprocess -> train -> encode -> project -> cluster
    -> score, with plot available on any embedding artifact.

Exit codes: 0 success, 1 usage error, 2 data error or a path that
cannot be read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread, set before numpy is first imported, whatever the caller
# set: a product's rounding depends on the thread count, and t-SNE turns
# that into a different embedding. A process that loaded numpy first is
# not pinned.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from vraets import artifacts, clustering, config as cfgmod, dataset, projection
from vraets import _twin, numerics, scoring, svgplot, vrae
from vraets.errors import DataError, NumericalError, PipelineError


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (key = value lines)")
    common.add_argument("--preset", choices=sorted(cfgmod.PRESETS),
                        help="named hyperparameter preset")
    common.add_argument("--seed", type=int, help="global seed override")
    common.add_argument("--out", required=True,
                        help="output file or directory")
    parser = argparse.ArgumentParser(
        prog="vraets",
        description="VRAE anomaly-detection pipeline for turbine time series")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    stage("generate", "write synthetic simulation CSVs")

    p = stage("preprocess", "select features, window, split, scale")
    p.add_argument("--data", required=True, help="directory of CSVs + metadata")

    p = stage("train", "train the VRAE")
    p.add_argument("--train-data", required=True, help="train windows artifact")
    p.add_argument("--val-data", help="validation windows artifact")
    p.add_argument("--epochs", type=int, dest="vrae.epochs", metavar="N",
                   help="override epoch count")

    p = stage("encode", "encode windows to latent means")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="windows artifact")

    p = stage("project", "project latents to 2D")
    p.add_argument("--latents", required=True)
    p.add_argument("--method", choices=cfgmod.PROJECT_METHODS,
                   dest="project.method")

    p = stage("cluster", "cluster an embedding")
    p.add_argument("--embedding", required=True)
    p.add_argument("--method", choices=cfgmod.CLUSTER_METHODS,
                   dest="cluster.method")

    p = stage("score", "match clusters to truth and score")
    p.add_argument("--assignment", required=True)
    p.add_argument("--embedding", required=True)

    p = stage("plot", "scatter-plot an embedding to SVG")
    p.add_argument("--embedding", required=True)
    return parser


def _resolve(args) -> dict:
    # --seed, --epochs and --method store under their config keys
    overrides = {key: value for key, value in vars(args).items()
                 if key in cfgmod.DEFAULTS and value is not None}
    return cfgmod.resolve(args.preset, args.config, overrides)


# zone -> masses of the 11 abnormal simulations (4/4/3 across the zones)
ABNORMAL_PLAN = [(1, m) for m in (0.4, 0.6, 0.8, 1.0)] + \
                [(2, m) for m in (0.4, 0.6, 0.8, 1.0)] + \
                [(3, m) for m in (0.4, 0.6, 0.8)]
N_NORMAL = 14


def cmd_generate(args, cfg: dict) -> None:
    os.makedirs(args.out, exist_ok=True)
    ice_configs = [dataset.IceConfig()] * N_NORMAL
    for zone, mass in ABNORMAL_PLAN:
        masses = [0.0, 0.0, 0.0]
        masses[zone - 1] = mass
        ice_configs.append(dataset.IceConfig(*masses))
    sims = [(f"sim_{i:03d}", ice,
             dataset.SynthConfig(rotation_hz=cfg["synth.rotation_hz"],
                                 sample_rate_hz=cfg["synth.sample_rate_hz"],
                                 harmonics=cfg["synth.harmonics"],
                                 noise_std=cfg["synth.noise_std"],
                                 seed=cfg["seed"] * 1000 + i))
            for i, ice in enumerate(ice_configs)]
    n_steps = cfg["synth.n_steps"]

    def write_sim(sim):
        sim_id, ice, synth = sim
        record = dataset.synthesize(synth, ice, n_steps)
        record.sim_id = sim_id
        dataset.save_csv(record, os.path.join(args.out, f"{sim_id}.csv"))

    _twin.alternate(write_sim, sims)
    meta_path = os.path.join(args.out, "metadata.csv")
    with artifacts.replacing(meta_path) as fh:
        fh.write("".join(f"{sim_id},{ice}\n" for sim_id, ice, _ in sims))
    artifacts.write_manifest(meta_path, cfg, {})
    print(f"wrote {len(ice_configs)} simulations to {args.out}")


def _load_records(data_dir, cfg):
    metadata = dataset.read_metadata(os.path.join(data_dir, "metadata.csv"))
    features = cfg["prep.features"]

    def load(sim_id):
        rec = dataset.load_csv(os.path.join(data_dir, f"{sim_id}.csv"),
                               metadata)
        return dataset.select_features(rec, features)

    return _twin.alternate(load, sorted(metadata))


def cmd_preprocess(args, cfg: dict) -> None:
    records = _load_records(args.data, cfg)
    if cfg["prep.classes"] == "two":
        records = [r for r in records if r.label() in (0, 1)]
    windows = dataset.build_windows(records, cfg["prep.window_length"],
                                    cfg["prep.stride"])
    train_set, test_set = dataset.split(windows, cfg["prep.train_fraction"],
                                        cfg["seed"])
    scaler = dataset.fit_minmax([train_set.windows])
    train_set = dataset.scale_windows(train_set, scaler)
    test_set = dataset.scale_windows(test_set, scaler)
    os.makedirs(args.out, exist_ok=True)
    for name, part in (("train.windows", train_set), ("test.windows", test_set)):
        path = os.path.join(args.out, name)
        dataset.save_windows(part, path)
        artifacts.write_manifest(
            path, cfg, {"metadata": os.path.join(args.data, "metadata.csv")})
    print(f"preprocessed {len(windows)} windows -> "
          f"{len(train_set)} train / {len(test_set)} test")


def cmd_train(args, cfg: dict) -> None:
    train_set = dataset.load_windows(args.train_data)
    val_set = dataset.load_windows(args.val_data) if args.val_data else None
    model_cfg = cfgmod.vrae_config(cfg, train_set.n_features)
    checkpoint = vrae.train(model_cfg, train_set, val_set)
    checkpoint.save(args.out)
    inputs = {"train_data": args.train_data}
    if args.val_data:
        inputs["val_data"] = args.val_data
    artifacts.write_manifest(args.out, cfg, inputs)
    print(f"trained {model_cfg.epochs} epochs; final train loss "
          f"{checkpoint.history['train_total'][-1]:.6f}")


def cmd_encode(args, cfg: dict) -> None:
    checkpoint = vrae.Checkpoint.load(args.checkpoint)
    data = dataset.load_windows(args.data)
    mus, labels = vrae.encode_dataset(checkpoint, data)
    artifacts.save_artifact(args.out, "latents",
                            {"latent_dim": checkpoint.config.latent_dim},
                            {"mus": mus, "labels": labels})
    artifacts.write_manifest(args.out, cfg,
                             {"checkpoint": args.checkpoint,
                              "data": args.data})
    print(f"encoded {len(labels)} windows to {mus.shape[1]}-dim latents")


def _out_of_range(key, value, interval, path, n) -> str:
    """The error for a config key whose range depends on an input's size."""
    return (f"config key {key!r}: {value!r} is out of {interval} for the "
            f"{n} points of {path}")


def cmd_project(args, cfg: dict) -> None:
    method = cfg["project.method"]
    _, _, arrays = artifacts.load_artifact(args.latents, "latents",
                                           arrays={"mus": 2, "labels": 1})
    X, labels = arrays["mus"], arrays["labels"]
    if labels.shape != (X.shape[0],):
        raise DataError(f"{args.latents}: labels have shape {labels.shape} "
                        f"for {X.shape[0]} rows of mus")
    numerics.check_coordinates(X, args.latents)
    perplexity = cfg["project.perplexity"]
    k_neighbors = cfg["project.k_neighbors"]
    if method == "tsne" and not 1.0 < perplexity < len(X):
        raise DataError(_out_of_range("project.perplexity", perplexity,
                                      f"(1, {len(X)})", args.latents, len(X)))
    if method == "spectral" and not 0 <= k_neighbors < len(X):
        raise DataError(_out_of_range("project.k_neighbors", k_neighbors,
                                      f"[0, {len(X)})", args.latents, len(X)))
    try:
        if method == "pca":
            emb = projection.pca(X, 2)
        elif method == "tsne":
            emb = projection.tsne(X, perplexity=perplexity,
                                  iterations=cfg["project.iterations"])
        elif method == "kpca":
            emb = projection.kernel_pca_rbf(X, 2, cfg["project.gamma"])
        else:
            emb = projection.spectral_embedding(X, k_neighbors=k_neighbors,
                                                dims=2)
    except DataError as exc:
        # too few rows or columns for the method
        raise DataError(f"{args.latents}: {exc}") from None
    emb.save(args.out, labels)
    artifacts.write_manifest(args.out, cfg, {"latents": args.latents})
    print(f"projected {len(labels)} points with {method}")


def cmd_cluster(args, cfg: dict) -> None:
    method = cfg["cluster.method"]
    emb, labels = projection.Embedding.load(args.embedding)
    X = emb.points
    k = cfg["cluster.k"]
    if method in ("kmeans", "hierarchical") and not 1 <= k <= len(X):
        raise DataError(_out_of_range("cluster.k", k, f"[1, {len(X)}]",
                                      args.embedding, len(X)))
    if method == "kmeans":
        assignment = clustering.kmeans_pp(X, k, seed=cfg["seed"])
    elif method == "hierarchical":
        assignment = clustering.hierarchical(X, k)
    else:
        eps = cfg["cluster.eps"]
        if eps is None:
            eps = clustering.default_eps(X)
        assignment = clustering.dbscan(X, eps, min_pts=cfg["cluster.min_pts"])
    assignment.save(args.out)
    artifacts.write_manifest(args.out, cfg, {"embedding": args.embedding})
    print(f"{method}: {assignment.n_clusters} clusters")


def cmd_score(args, cfg: dict) -> None:
    assignment = clustering.ClusterAssignment.load(args.assignment)
    emb, labels = projection.Embedding.load(args.embedding)
    if labels is None:
        raise DataError(f"{args.embedding}: embedding artifact carries no "
                        "ground-truth labels")
    if len(assignment.labels) != len(labels):
        raise DataError(f"{args.assignment}: {len(assignment.labels)} cluster "
                        f"labels for the {len(labels)} points of "
                        f"{args.embedding}")
    cents = assignment.centroids
    if cents is not None and cents.shape[1] != emb.points.shape[1]:
        raise DataError(f"{args.assignment}: centroids have shape "
                        f"{cents.shape} for the {emb.points.shape[1]}-D "
                        f"points of {args.embedding}")
    report = scoring.score_assignment(assignment, labels, emb.points)
    text = report.to_json()
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "report.json")
    with artifacts.replacing(json_path) as fh:
        fh.write(text)
    with artifacts.replacing(os.path.join(args.out, "report.txt")) as fh:
        fh.write(report.render_table())
    artifacts.write_manifest(json_path, cfg,
                             {"assignment": args.assignment,
                              "embedding": args.embedding})
    print(report.render_table())


def cmd_plot(args, cfg: dict) -> None:
    emb, labels = projection.Embedding.load(args.embedding)
    if labels is None:
        labels = np.zeros(len(emb.points), dtype=np.int64)
    svgplot.scatter_svg(emb.points, labels, emb.method, args.out)
    print(f"wrote {args.out}")


_COMMANDS = {
    "generate": cmd_generate,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "encode": cmd_encode,
    "project": cmd_project,
    "cluster": cmd_cluster,
    "score": cmd_score,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _COMMANDS[args.command](args, _resolve(args))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
