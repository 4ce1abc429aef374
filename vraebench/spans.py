"""In-memory spans around the public functions of each vraets layer.

A `Tracer` patches module attributes at the names where callers look
them up (for example `vraets._kernels.lstm_forward`, which `vraets.vrae`
calls as `_kernels.lstm_forward`), records one span per call and puts
every original back on exit. Spans are kept in a list and written out
once, when the run ends. `layer_metrics` turns the spans of one round
into the per-layer figures that `BENCHMARK.json` lists.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent        # index into Tracer.spans, or None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


def _forward_attrs(args, kwargs, result):
    T, B, H4 = args[0].shape
    H = H4 // 4
    # recurrent matmul (2*B*H*4H) plus 9 elementwise ops per cell unit
    # (4 gate activations, tanh(c), c = f*c + i*g as 3 ops, h = o*tanh(c))
    return {"timesteps": T, "flop": T * (2 * B * H * H4 + 9 * B * H)}


def _backward_attrs(args, kwargs, result):
    T, B, H4 = args[3].shape
    H = H4 // 4
    # carried-gradient matmul (2*B*4H*H) plus 24 elementwise ops per unit
    # in the gate-derivative block of one step
    return {"timesteps": T, "flop": T * (2 * B * H4 * H + 24 * B * H)}


def _windows_arg(args, kwargs, result):
    x = args[1]
    return {"windows": int(x.shape[0]) if x.ndim == 3 else 1}


def _encode_attrs(args, kwargs, result):
    return {"windows": int(len(result[1]))}


def _csv_attrs(args, kwargs, result):
    return {"rows": int(result.n_steps)}


def _tsne_attrs(args, kwargs, result):
    return {"iterations": len(result.extras["kl_trace"])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, attrs from (args, kwargs, result))
PATCHES = [
    ("dataset", "load_csv", "dataset.load_csv", _csv_attrs),
    ("dataset", "build_windows", "dataset.window_scale", None),
    ("dataset", "split", "dataset.window_scale", None),
    ("dataset", "fit_minmax", "dataset.window_scale", None),
    ("dataset", "scale_windows", "dataset.window_scale", None),
    ("vrae", "train", "vrae.train", None),
    ("vrae", "evaluate", "vrae.evaluate", None),
    ("vrae", "forward", "vrae.forward", _windows_arg),
    ("vrae", "encoder_forward", "vrae.enc_forward", None),
    ("vrae", "decoder_forward", "vrae.dec_forward", None),
    ("vrae", "backward", "vrae.backward", None),
    ("vrae", "clip_global_norm", "vrae.clip", None),
    ("vrae", "adam_step", "vrae.adam", None),
    ("vrae", "encode_dataset", "vrae.encode", _encode_attrs),
    ("_kernels", "lstm_forward", "kernels.lstm_forward", _forward_attrs),
    ("_kernels", "lstm_backward", "kernels.lstm_backward", _backward_attrs),
    ("projection", "pca", "projection.pca", None),
    ("projection", "kernel_pca_rbf", "projection.kpca", None),
    ("projection", "spectral_embedding", "projection.spectral", None),
    ("projection", "tsne", "projection.tsne", _tsne_attrs),
    ("projection", "tsne_affinities", "projection.tsne_affinities", None),
    ("clustering", "kmeans_pp", "clustering.kmeans", None),
    ("clustering", "hierarchical", "clustering.hierarchical", None),
    ("clustering", "dbscan", "clustering.dbscan", None),
    ("scoring", "score_assignment", "scoring.score", None),
    ("artifacts", "save_artifact", "artifacts.save", _file_bytes),
    ("artifacts", "load_artifact", "artifacts.load", _file_bytes),
    ("artifacts", "write_manifest", "artifacts.manifest", None),
]


class Tracer:
    """Records spans (name, start, end, parent) while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, **attrs):
        sp = self._open(name, attrs)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name, attrs):
        sp = Span(name, time.perf_counter(),
                  self._stack[-1] if self._stack else None, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if attrs_of is not None:
                sp.attrs.update(attrs_of(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patches every name in PATCHES for the duration of the block."""
        originals = []
        try:
            for mod_name, attr, name, attrs_of in PATCHES:
                module = importlib.import_module(f"vraets.{mod_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, attrs_of))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Inclusive and self time per span name, over spans[first:]."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans[first:]:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        out: dict[str, dict[str, float]] = {}
        for i in range(first, len(self.spans)):
            sp = self.spans[i]
            row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += sp.duration - child_time[i]
        return out

    def dump(self, path, extra: dict) -> None:
        """Writes every span and the self-time table as one JSON file."""
        payload = dict(extra)
        payload["spans"] = [
            {"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, **({"attrs": sp.attrs} if sp.attrs else {})}
            for sp in self.spans]
        payload["self_times"] = self.self_times()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield spans[p].name
        p = spans[p].parent


def _context(spans, i) -> str:
    """Which VRAE entry point a span ran under: step, evaluate or encode."""
    names = set(_ancestors(spans, i))
    if "vrae.evaluate" in names:
        return "evaluate"
    if "vrae.train" in names:
        return "step"
    if "vrae.encode" in names:
        return "encode"
    return "other"


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


CLI_STAGES = ("generate", "preprocess", "train", "encode", "project",
              "cluster", "score")


def layer_metrics(spans: list[Span], first: int, last: int) -> dict:
    """Per-layer figures from spans[first:last], the spans of one round.

    Times are busy time: a span nested in a span of the same layer is
    already inside its parent's time and is not added again (the PCA
    that initialises t-SNE counts in `projection.tsne_s` only).
    """
    tot: dict[str, float] = {}
    count: dict[str, int] = {}
    attr: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    def add_attr(key, value):
        attr[key] = attr.get(key, 0) + value

    for i in range(first, last):
        sp = spans[i]
        name = sp.name
        layer = name.split(".", 1)[0]
        parent = spans[sp.parent].name if sp.parent is not None else ""
        if parent.split(".", 1)[0] == layer and layer != "vrae":
            continue
        count[name] = count.get(name, 0) + 1
        add(name, sp.duration)
        for k, v in sp.attrs.items():
            add_attr(f"{name}.{k}", v)
        if layer == "vrae":
            ctx = _context(spans, i)
            if name in ("vrae.enc_forward", "vrae.dec_forward", "vrae.clip",
                        "vrae.adam") and ctx == "step":
                add(f"step.{name}", sp.duration)
            if name == "vrae.forward" and ctx == "step":
                add_attr("step.windows", sp.attrs.get("windows", 0))
            if name == "vrae.backward" and ctx == "step":
                # the decoder kernel runs first; the encoder's second
                split_at = sp.end
                for j in range(i + 1, last):
                    if spans[j].start > sp.end:
                        break
                    if (spans[j].parent == i
                            and spans[j].name == "kernels.lstm_backward"):
                        split_at = spans[j].end
                        break
                add("step.dec_bptt", split_at - sp.start)
                add("step.enc_bptt", sp.end - split_at)
            if name == "vrae.adam" and ctx == "step":
                add_attr("step.count", 1)

    def t(key):
        return tot.get(key, 0.0)

    def a(key):
        return attr.get(key, 0)

    m = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = t(f"cli.{stage}")
    m["dataset.load_csv_s"] = t("dataset.load_csv")
    m["dataset.csv_rows"] = a("dataset.load_csv.rows")
    m["dataset.csv_rows_per_s"] = _rate(m["dataset.csv_rows"],
                                        m["dataset.load_csv_s"])
    m["dataset.window_scale_s"] = t("dataset.window_scale")
    m["vrae.train_s"] = t("vrae.train")
    m["vrae.train_steps"] = a("step.count")
    m["vrae.train_windows_per_s"] = _rate(a("step.windows"), t("vrae.train"))
    m["vrae.evaluate_s"] = t("vrae.evaluate")
    m["vrae.step.enc_forward_s"] = t("step.vrae.enc_forward")
    m["vrae.step.dec_forward_s"] = t("step.vrae.dec_forward")
    m["vrae.step.dec_bptt_s"] = t("step.dec_bptt")
    m["vrae.step.enc_bptt_s"] = t("step.enc_bptt")
    m["vrae.step.clip_adam_s"] = t("step.vrae.clip") + t("step.vrae.adam")
    m["vrae.encode_s"] = t("vrae.encode")
    m["vrae.encode_windows_per_s"] = _rate(a("vrae.encode.windows"),
                                           t("vrae.encode"))
    fwd, bwd = t("kernels.lstm_forward"), t("kernels.lstm_backward")
    m["kernels.lstm_forward_s"] = fwd
    m["kernels.lstm_backward_s"] = bwd
    m["kernels.lstm_forward_calls"] = count.get("kernels.lstm_forward", 0)
    m["kernels.lstm_backward_calls"] = count.get("kernels.lstm_backward", 0)
    m["kernels.lstm_timesteps"] = (a("kernels.lstm_forward.timesteps")
                                   + a("kernels.lstm_backward.timesteps"))
    gflop = (a("kernels.lstm_forward.flop")
             + a("kernels.lstm_backward.flop")) / 1e9
    m["kernels.lstm_gflop"] = gflop
    m["kernels.lstm_gflop_per_s"] = _rate(gflop, fwd + bwd)
    m["projection.pca_s"] = t("projection.pca")
    m["projection.kpca_s"] = t("projection.kpca")
    m["projection.spectral_s"] = t("projection.spectral")
    m["projection.tsne_s"] = t("projection.tsne")
    # nested inside tsne, so counted here from its own spans
    m["projection.tsne_affinities_s"] = sum(
        (spans[i].duration for i in range(first, last)
         if spans[i].name == "projection.tsne_affinities"), 0.0)
    m["projection.tsne_iterations"] = a("projection.tsne.iterations")
    m["clustering.kmeans_s"] = t("clustering.kmeans")
    m["clustering.hierarchical_s"] = t("clustering.hierarchical")
    m["clustering.dbscan_s"] = t("clustering.dbscan")
    m["scoring.score_s"] = t("scoring.score")
    m["artifacts.save_s"] = t("artifacts.save")
    m["artifacts.load_s"] = t("artifacts.load")
    m["artifacts.manifest_s"] = t("artifacts.manifest")
    m["artifacts.bytes_written"] = a("artifacts.save.bytes")
    m["artifacts.bytes_read"] = a("artifacts.load.bytes")
    return m
