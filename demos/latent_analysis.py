"""Which latent dimensions carry the ice signal?

Trains a small model on a four-class fleet (healthy plus ice in each of
three blade zones), encodes the held-out windows, and ranks latent
dimensions by between-class separation (largest pairwise mean gap over
pooled standard deviation). Prints per-class means for the top
dimensions so you can see where each ice zone lands.

Run:  python3 demos/latent_analysis.py
"""

import itertools

import numpy as np

from vraets import dataset, vrae
from vraets.vrae import AnnealSchedule, VraeConfig

SEED = 11
CLASS_NAMES = {0: "healthy", 1: "zone 1 ice", 2: "zone 2 ice", 3: "zone 3 ice"}


def make_fleet():
    records = []
    sim = 0
    for _ in range(6):
        cfg = dataset.SynthConfig(seed=SEED * 100 + sim)
        records.append(dataset.synthesize(cfg, dataset.IceConfig(), 3000))
        sim += 1
    for zone in (1, 2, 3):
        for mass in (0.6, 1.0):
            cfg = dataset.SynthConfig(seed=SEED * 100 + sim)
            masses = [0.0, 0.0, 0.0]
            masses[zone - 1] = mass
            records.append(dataset.synthesize(cfg, dataset.IceConfig(*masses),
                                              3000))
            sim += 1
    return records


def class_separation(mus, labels):
    """Per-class mean latents, and each dimension's separation: the largest
    pairwise |class mean difference| / pooled standard deviation; where
    both classes are constant, inf if their means differ, else 0."""
    rows = {int(c): mus[labels == c] for c in np.unique(labels)}
    means = {c: r.mean(axis=0) for c, r in rows.items()}
    sq_dev = {c: ((r - means[c]) ** 2).sum(axis=0) for c, r in rows.items()}
    separation = np.zeros(mus.shape[1])
    for a, b in itertools.combinations(rows, 2):
        dof = max(len(rows[a]) + len(rows[b]) - 2, 1)
        pooled = np.sqrt((sq_dev[a] + sq_dev[b]) / dof)
        diff = np.abs(means[a] - means[b])
        score = np.where(pooled > 0, diff / np.where(pooled > 0, pooled, 1.0),
                         np.where(diff > 0, np.inf, 0.0))
        separation = np.maximum(separation, score)
    return means, separation


def main():
    records = make_fleet()
    windows = dataset.build_windows(records, length=200, stride=200)
    train_set, test_set = dataset.split(windows, train_fraction=0.7, seed=SEED)
    scaler = dataset.fit_minmax([train_set.windows])
    train_set = dataset.scale_windows(train_set, scaler)
    test_set = dataset.scale_windows(test_set, scaler)
    print(f"fleet: {len(records)} simulations, "
          f"{len(train_set)} train / {len(test_set)} test windows, "
          f"class counts {test_set.class_counts()}")

    config = VraeConfig(input_dim=6, hidden_units=16, latent_dim=6,
                        epochs=50, seed=SEED,
                        anneal=AnnealSchedule(mode="cyclical", cycles=4,
                                              ramp_fraction=0.5,
                                              beta_max=0.001))
    checkpoint = vrae.train(config, train_set)
    mus, labels = vrae.encode_dataset(checkpoint, test_set)

    class_means, sep = class_separation(mus, labels)
    ranked = np.argsort(-sep)
    print(f"\nlatent dimensions ranked by class separation: {ranked.tolist()}")

    header = "dim   separation  " + "  ".join(f"{CLASS_NAMES[c]:>10s}"
                                              for c in sorted(CLASS_NAMES))
    print("\n" + header)
    for d in ranked:
        means = "  ".join(f"{class_means[c][d]:>10.3f}"
                          for c in sorted(CLASS_NAMES))
        print(f"z{d:<4d} {sep[d]:>9.2f}  {means}")

    best = ranked[0]
    order = np.argsort([-class_means[c][best]
                        for c in sorted(CLASS_NAMES)])
    print(f"\nmost informative dimension z{best}: classes ordered by mean = "
          + " > ".join(CLASS_NAMES[sorted(CLASS_NAMES)[i]] for i in order))


if __name__ == "__main__":
    main()
