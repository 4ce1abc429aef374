"""Minimal deterministic SVG scatter plots for 2D embeddings.

One color per class: normal windows red, the abnormal zones blue,
green, black. Output is plain hand-assembled SVG so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import html

import numpy as np

from vraets import artifacts
from vraets.errors import DataError

CLASS_COLORS = {0: "#d62728", 1: "#1f77b4", 2: "#2ca02c", 3: "#000000"}
CLASS_NAMES = {0: "normal", 1: "zone 1", 2: "zone 2", 3: "zone 3"}
_FALLBACK = ["#ff7f0e", "#9467bd", "#8c564b", "#e377c2"]

WIDTH, HEIGHT, MARGIN = 640, 480, 50


def _color(cls: int) -> str:
    if cls in CLASS_COLORS:
        return CLASS_COLORS[cls]
    if cls == -1:
        return "#7f7f7f"
    return _FALLBACK[cls % len(_FALLBACK)]


def _name(cls: int) -> str:
    if cls == -1:
        return "noise"
    return CLASS_NAMES.get(cls, f"class {cls}")


def scatter_svg(points: np.ndarray, labels: np.ndarray, method: str,
                path) -> None:
    """Writes a scatter plot of N points colored by class to an SVG file."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DataError("scatter_svg: points must be N x 2")
    if len(points) == 0:
        raise DataError("scatter_svg: empty embedding")
    if len(points) != len(labels):
        raise DataError(f"scatter_svg: {len(points)} points but "
                        f"{len(labels)} labels")

    method = html.escape(method, quote=False)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)

    def sx(x):
        return MARGIN + (x - lo[0]) / span[0] * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - (y - lo[1]) / span[1] * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-size="16">{method}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="12">{method} component 1</text>',
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">{method} component 2</text>',
    ]
    for (x, y), cls in zip(points, labels):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                     f'fill="{_color(int(cls))}" fill-opacity="0.8"/>')
    for i, cls in enumerate(sorted(set(labels.tolist()))):
        y = MARGIN + 18 * i
        parts.append(f'<g class="legend-entry">'
                     f'<rect x="{WIDTH - MARGIN - 90}" y="{y - 9}" width="10" '
                     f'height="10" fill="{_color(int(cls))}"/>'
                     f'<text x="{WIDTH - MARGIN - 74}" y="{y}" '
                     f'font-size="12">{_name(int(cls))}</text></g>')
    parts.append("</svg>")
    with artifacts.replacing(path) as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
