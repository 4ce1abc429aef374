"""Side-by-side gallery of the four 2-D projections.

Encodes a two-class test set with a quickly trained model, then runs
PCA, RBF kernel PCA, t-SNE, and spectral embedding on the same latent
vectors and writes one SVG scatter plot per method, plus a silhouette
comparison so you can see which projection separates the classes best.

Run:  python3 demos/projection_gallery.py [output_dir]
"""

import os
import sys

from vraets import dataset, projection, scoring, svgplot, vrae
from vraets.vrae import AnnealSchedule, VraeConfig

OUT = sys.argv[1] if len(sys.argv) > 1 else "demo_out/gallery"
SEED = 3


def main():
    os.makedirs(OUT, exist_ok=True)

    records = []
    for i in range(6):
        cfg = dataset.SynthConfig(seed=SEED * 100 + i)
        records.append(dataset.synthesize(cfg, dataset.IceConfig(), 3000))
    for i, mass in enumerate((0.5, 0.75, 1.0)):
        cfg = dataset.SynthConfig(seed=SEED * 100 + 50 + i)
        records.append(dataset.synthesize(cfg, dataset.IceConfig(mass, 0, 0),
                                          3000))
    windows = dataset.build_windows(records, length=200, stride=200)
    train_set, test_set = dataset.split(windows, train_fraction=0.7, seed=SEED)
    scaler = dataset.fit_minmax([train_set.windows])
    train_set = dataset.scale_windows(train_set, scaler)
    test_set = dataset.scale_windows(test_set, scaler)

    config = VraeConfig(input_dim=6, hidden_units=16, latent_dim=4,
                        epochs=40, seed=SEED,
                        anneal=AnnealSchedule(beta_max=0.001))
    checkpoint = vrae.train(config, train_set)
    mus, labels = vrae.encode_dataset(checkpoint, test_set)
    print(f"encoded {len(mus)} test windows into {mus.shape[1]}-dim latents")

    embeddings = {
        "pca": projection.pca(mus, 2),
        "kernel_pca": projection.kernel_pca_rbf(mus, 2),
        "tsne": projection.tsne(mus, perplexity=10.0, iterations=500),
        "spectral": projection.spectral_embedding(mus, k_neighbors=10),
    }

    print(f"\n{'method':<12s} {'silhouette':>10s}  plot")
    for name, emb in embeddings.items():
        sil = scoring.silhouette(emb.points, labels)
        path = os.path.join(OUT, f"{name}.svg")
        svgplot.scatter_svg(emb.points, labels, name, path)
        print(f"{name:<12s} {sil:>10.3f}  {path}")


if __name__ == "__main__":
    main()
