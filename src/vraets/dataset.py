"""Turbine time-series ingestion, synthesis, and preprocessing.

Covers CSV loading with an ice-mass metadata sidecar, a synthetic
three-blade vibration generator that stands in for an aeroelastic
simulator, MinMax scaling to [-1, 1], fixed-length windowing, and
stratified splitting.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from vraets import artifacts
from vraets.errors import DataError
from vraets.numerics import SeededRng

LABEL_NORMAL = 0

FEATURE_NAMES = [
    "Spn1ALxb1", "Spn1ALyb1",
    "Spn1ALxb2", "Spn1ALyb2",
    "Spn1ALxb3", "Spn1ALyb3",
]


@dataclass(frozen=True)
class IceConfig:
    """Per-zone ice masses in kilograms, written "x-y-z" in metadata."""

    zone1_mass: float = 0.0
    zone2_mass: float = 0.0
    zone3_mass: float = 0.0

    def __post_init__(self):
        # nan > 0 is false, so a NaN mass would read as no ice
        for m in self.masses():
            if not (math.isfinite(m) and m >= 0):
                raise DataError(f"ice masses must be finite and non-negative, "
                                f"got {self}")
        if sum(m > 0 for m in self.masses()) > 1:
            raise DataError(f"ice in more than one zone ({self})")

    def masses(self) -> tuple[float, float, float]:
        return (self.zone1_mass, self.zone2_mass, self.zone3_mass)

    def label(self) -> int:
        """0 for no ice anywhere, else the 1-based index of the iced zone."""
        return next((i for i, m in enumerate(self.masses(), start=1) if m > 0),
                    LABEL_NORMAL)

    @classmethod
    def parse(cls, text: str) -> "IceConfig":
        # a '-' after e/E is an exponent's sign: str() writes 1e-05-0-0
        parts = re.split(r"(?<![eE])-", text.strip())
        if len(parts) != 3:
            raise DataError(f"bad ice mass string {text!r}, expected x-y-z")
        try:
            masses = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"bad ice mass string {text!r}: {exc}") from exc
        return cls(*masses)

    def __str__(self) -> str:
        return "-".join(f"{m:g}" for m in self.masses())


@dataclass
class TimeSeriesRecord:
    """One simulation: a T x D value grid with its ice configuration."""

    sim_id: str
    config: IceConfig
    values: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"{self.sim_id}: values must be 2-D, "
                            f"got shape {self.values.shape}")
        if self.values.shape[1] != len(self.feature_names):
            raise DataError(f"{self.sim_id}: {self.values.shape[1]} columns but "
                            f"{len(self.feature_names)} feature names")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"{self.sim_id}: non-finite sensor values")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    def label(self) -> int:
        return self.config.label()


@dataclass
class MinMaxScaler:
    """Per-feature (min, max) mapping data to [-1, 1]; constants map to 0."""

    mins: np.ndarray
    maxs: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Scales a float64 array whose last axis holds the features."""
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        scaled = 2.0 * (values - self.mins) / safe - 1.0
        return np.where(span > 0, scaled, 0.0)


@dataclass
class WindowedDataset:
    """Fixed-length windows (N x L x d), one class label per window."""

    windows: np.ndarray
    labels: np.ndarray
    window_length: int
    stride: int
    feature_names: list[str]
    scaler: MinMaxScaler | None = None

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.windows.ndim != 3:
            raise DataError("windows must have shape (samples, timesteps, features)")
        if self.labels.shape[0] != self.windows.shape[0]:
            raise DataError("labels length differs from window count")
        _, length, d = self.windows.shape
        if self.window_length != length:
            raise DataError(f"window_length is {self.window_length} for "
                            f"windows of {length} steps")
        if len(self.feature_names) != d:
            raise DataError(f"{len(self.feature_names)} feature names for "
                            f"{d} channels")
        if self.scaler is not None and not (
                self.scaler.mins.shape == self.scaler.maxs.shape == (d,)):
            raise DataError(f"scaler holds {self.scaler.mins.shape[0]} mins "
                            f"and {self.scaler.maxs.shape[0]} maxs for "
                            f"{d} features")

    def __len__(self) -> int:
        return self.windows.shape[0]

    @property
    def n_features(self) -> int:
        return self.windows.shape[2]

    def subset(self, idx: np.ndarray) -> "WindowedDataset":
        return replace(self, windows=self.windows[idx], labels=self.labels[idx])

    def class_counts(self) -> dict[int, int]:
        vals, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


# ice in zone j scales blade-1 amplitudes by 1 + ZONE_AMP_GAIN[j] * mass
# and adds a side-band at ZONE_SIDEBAND_HZ[j] of amplitude
# ZONE_SIDEBAND_GAIN[j] * mass; blades 2 and 3 feel both through the hub,
# scaled by CROSS_BLADE_COUPLING
ZONE_AMP_GAIN = (0.60, 0.45, 0.30)
ZONE_SIDEBAND_HZ = (0.8, 1.4, 2.2)
ZONE_SIDEBAND_GAIN = (0.9, 0.7, 0.5)
CROSS_BLADE_COUPLING = 0.15


@dataclass
class SynthConfig:
    """Synthetic rotor vibration generator settings.

    Three blades, 120 degrees apart, each contributing flapwise and
    edgewise accelerations built from harmonics of the rotation
    frequency. Ice in zone j scales blade-1 amplitudes and injects a
    side-band whose energy grows with the ice mass.

    The default sample rate (40 Hz) makes a 200-sample window span one
    full revolution of the 0.2 Hz rotor, and the side-band frequencies
    are multiples of the rotation frequency, so fixed-stride windows
    are spectrally identical up to phase.
    """

    rotation_hz: float = 0.2
    sample_rate_hz: float = 40.0
    harmonics: int = 3
    noise_std: float = 0.05
    seed: int = 0


def synthesize(config: SynthConfig, ice: IceConfig, n_steps: int) -> TimeSeriesRecord:
    """Generates one 6-feature blade-acceleration record, seed-deterministic."""
    t = np.arange(n_steps, dtype=np.float64) / config.sample_rate_hz
    rng = SeededRng(config.seed)

    masses = ice.masses()
    zone = next((i for i, m in enumerate(masses) if m > 0), None)
    mass = masses[zone] if zone is not None else 0.0

    values = np.empty((n_steps, 6), dtype=np.float64)
    for blade in range(3):
        phase = 2.0 * np.pi * blade / 3.0
        flap = np.zeros(n_steps)
        edge = np.zeros(n_steps)
        for k in range(1, config.harmonics + 1):
            # phase scales with k so blade offsets are true time shifts
            w = 2.0 * np.pi * k * config.rotation_hz
            flap += np.sin(w * t + k * phase) / k
            edge += np.cos(w * t + k * phase) / k
        if zone is not None:
            # ice sits on blade 1; other blades feel it through the hub
            strength = 1.0 if blade == 0 else CROSS_BLADE_COUPLING
            gain = 1.0 + ZONE_AMP_GAIN[zone] * mass * strength
            ws = 2.0 * np.pi * ZONE_SIDEBAND_HZ[zone]
            band = ZONE_SIDEBAND_GAIN[zone] * mass * strength
            flap = gain * flap + band * np.sin(ws * t + phase)
            edge = gain * edge + band * np.cos(ws * t + phase)
        values[:, 2 * blade] = flap
        values[:, 2 * blade + 1] = edge
    if config.noise_std > 0:
        values += config.noise_std * rng.standard_normal(values.shape)
    sim_id = f"synth_{ice}_{config.seed}"
    return TimeSeriesRecord(sim_id, ice, values, list(FEATURE_NAMES))


def read_metadata(path) -> dict[str, IceConfig]:
    """Sidecar format: one `sim_id,x-y-z` line per simulation."""
    text = artifacts.read_text(path, "metadata sidecar")
    table, first_line = {}, {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'sim_id,x-y-z'")
        sim_id = parts[0].strip()
        if sim_id in table:
            raise DataError(f"{path}:{lineno}: duplicate sim_id "
                            f"{sim_id!r}, first on line "
                            f"{first_line[sim_id]}")
        try:
            table[sim_id] = IceConfig.parse(parts[1])
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        first_line[sim_id] = lineno
    return table


def load_csv(path, metadata: dict[str, IceConfig]) -> TimeSeriesRecord:
    """Loads one simulation CSV; sim_id is the file stem, looked up in a
    read_metadata table. The data rows are parsed by np.loadtxt where it
    is sure to agree with a csv.reader + float() parse of each cell, and
    by that parse otherwise, so every file gives the values and the
    DataError that parse gives.
    """
    text = artifacts.read_text(path, "CSV file")
    sim_id = os.path.splitext(os.path.basename(str(path)))[0]
    if sim_id not in metadata:
        raise DataError(f"{path}: sim_id {sim_id!r} missing from metadata sidecar")

    lines = io.StringIO(text, newline="")
    try:
        names = next(csv.reader(lines), None)
        if names is None:
            raise DataError(f"{path}: empty file")
        names = [n.strip() for n in names]
        body = lines.readlines()
        values = _loadtxt_rows(text, body, len(names))
        if values is None:
            values = _csv_rows(path, body, names)
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    if len(values) == 0:
        raise DataError(f"{path}: no data rows")
    return TimeSeriesRecord(sim_id, metadata[sim_id], values, names)


# float() does not strip these ASCII separators around a number; loadtxt does
_LOADTXT_ONLY_WHITESPACE = "\x1c\x1d\x1e\x1f"


def _loadtxt_rows(text: str, lines: list[str], n_columns: int
                  ) -> np.ndarray | None:
    """The data rows as np.loadtxt parses them, or None where _csv_rows could
    parse them otherwise.

    Each list item is one line to loadtxt, and one record to csv.reader
    unless a quote joins lines, which loadtxt rejects as no number.
    loadtxt skips blank lines, so a row count other than len(lines) goes
    to _csv_rows. A cell loadtxt reads, float() reads to the same double,
    except around the separators above.
    """
    if not lines or any(c in text for c in _LOADTXT_ONLY_WHITESPACE):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # "Empty input file" for blank lines
            values = np.loadtxt(lines, delimiter=",", comments=None,
                                dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(lines), n_columns) else None


def _csv_rows(path, lines: list[str], names: list[str]) -> np.ndarray:
    """Parses every cell with float(), naming the first bad row and column."""
    rows = []
    for rowno, row in enumerate(csv.reader(lines), start=2):
        if len(row) != len(names):
            raise DataError(f"{path}:{rowno}: ragged row, {len(row)} cells "
                            f"but {len(names)} columns")
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            bad = next(i for i, cell in enumerate(row)
                       if not _is_float(cell))
            raise DataError(f"{path}:{rowno}: bad numeric cell in column "
                            f"{names[bad]!r}: {row[bad]!r}") from None
    return np.array(rows, dtype=np.float64)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_csv(record: TimeSeriesRecord, path) -> None:
    with artifacts.replacing(path) as fh:
        csv.writer(fh).writerow(record.feature_names)
        # the rows csv.writer would write: repr of a finite float needs no quotes
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in record.values.tolist())


def select_features(record: TimeSeriesRecord, names: list[str]) -> TimeSeriesRecord:
    """Restricts a record to the named columns, in the given order."""
    missing = [n for n in names if n not in record.feature_names]
    if missing:
        raise DataError(f"{record.sim_id}: unknown features {missing}; "
                        f"available: {record.feature_names}")
    idx = [record.feature_names.index(n) for n in names]
    return TimeSeriesRecord(record.sim_id, record.config,
                            record.values[:, idx], list(names))


def fit_minmax(arrays) -> MinMaxScaler:
    """Per-feature min/max over arrays whose last axis is the feature axis."""
    flat = [a.reshape(-1, a.shape[-1]) for a in map(np.asarray, arrays)]
    if not flat:
        raise DataError("fit_minmax: need at least one array")
    stacked = np.concatenate(flat, axis=0)
    return MinMaxScaler(mins=stacked.min(axis=0), maxs=stacked.max(axis=0))


def window(record: TimeSeriesRecord, length: int, stride: int
           ) -> list[np.ndarray]:
    """Slices a record into floor((T - L) / stride) + 1 windows of L steps;
    the trailing remainder is dropped."""
    if length > record.n_steps:
        raise DataError(f"{record.sim_id}: window length {length} exceeds "
                        f"{record.n_steps} time steps")
    count = (record.n_steps - length) // stride + 1
    return [record.values[i * stride: i * stride + length] for i in range(count)]


def build_windows(records, length: int, stride: int) -> WindowedDataset:
    """Windows every record; each window inherits its record's label."""
    chunks, labels = [], []
    feature_names = None
    for rec in records:
        if feature_names is None:
            feature_names = list(rec.feature_names)
        elif rec.feature_names != feature_names:
            raise DataError(f"{rec.sim_id}: feature names differ across records")
        ws = window(rec, length, stride)
        chunks.extend(ws)
        labels.extend([rec.label()] * len(ws))
    if feature_names is None:
        raise DataError("build_windows: no records")
    return WindowedDataset(np.stack(chunks), np.array(labels, dtype=np.int64),
                           length, stride, feature_names)


def split(dataset: WindowedDataset, train_fraction: float, seed: int
          ) -> tuple[WindowedDataset, WindowedDataset]:
    """Stratified shuffled train/test partition, deterministic under seed."""
    if len(dataset) == 0:
        raise DataError("split: empty dataset")
    rng = SeededRng(seed)
    sizes = dataset.class_counts()
    classes = sorted(sizes)
    # largest-remainder allocation: per-class counts within 1 of the exact
    # proportion while the total matches round(fraction * N)
    target_total = int(round(train_fraction * len(dataset)))
    take = {c: int(np.floor(train_fraction * sizes[c])) for c in classes}
    remainders = sorted(classes,
                        key=lambda c: (-(train_fraction * sizes[c]
                                         - take[c]), c))
    for c in remainders:
        if sum(take.values()) >= target_total:
            break
        if take[c] < sizes[c]:
            take[c] += 1
    train_idx, test_idx = [], []
    for cls in classes:
        cls_idx = np.flatnonzero(dataset.labels == cls)
        order = cls_idx[rng.permutation(len(cls_idx))]
        train_idx.append(order[:take[cls]])
        test_idx.append(order[take[cls]:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return dataset.subset(train_idx), dataset.subset(test_idx)


def scale_windows(dataset: WindowedDataset, scaler: MinMaxScaler) -> WindowedDataset:
    return replace(dataset, windows=scaler.transform(dataset.windows),
                   scaler=scaler)


def save_windows(dataset: WindowedDataset, path) -> None:
    arrays = {"windows": dataset.windows, "labels": dataset.labels}
    if dataset.scaler is not None:
        arrays["scaler_mins"] = dataset.scaler.mins
        arrays["scaler_maxs"] = dataset.scaler.maxs
    meta = {"window_length": dataset.window_length, "stride": dataset.stride,
            "feature_names": dataset.feature_names}
    artifacts.save_artifact(path, "windows", meta, arrays)


def load_windows(path) -> WindowedDataset:
    _, meta, arrays = artifacts.load_artifact(
        path, "windows",
        fields={"window_length": "an integer >= 1",
                "stride": "an integer >= 1",
                "feature_names": "a list of strings"},
        arrays={"windows": 3, "labels": 1},
        optional={"scaler_mins": 1, "scaler_maxs": 1})
    scaler = None
    if "scaler_mins" in arrays:
        scaler = MinMaxScaler(arrays["scaler_mins"], arrays["scaler_maxs"])
    return WindowedDataset(arrays["windows"], arrays["labels"],
                           meta["window_length"], meta["stride"],
                           meta["feature_names"], scaler)
