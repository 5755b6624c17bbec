"""Minimal SVG scatter/line rendering from numpy arrays.

The CSV files are the data contract; these plots exist only to eyeball
the orderings between the curves.  Output is plain well-formed XML.
A series comes in as float64 arrays; its pixel coordinates are computed
as whole-array expressions and written with one `%` template per series.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

__all__ = ["Series", "render_svg"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ("#c62828", "#2e7d32", "#212121", "#1565c0", "#6a1b9a")


class Series:
    """One named curve: x values, y values (1-D float64 arrays), scatter or line."""

    def __init__(self, name, xs, ys, kind="scatter"):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("series x and y values must be one-dimensional")
        if len(xs) != len(ys):
            raise ValueError("series x and y lengths differ")
        if kind not in ("scatter", "line"):
            raise ValueError(f"kind must be scatter or line, got {kind!r}")
        self.name = str(name)
        self.xs = xs
        self.ys = ys
        self.kind = kind


def _extremes(values):
    """min and max as Python's min() and max() pick them: of equal values
    (0.0 and -0.0) the first wins, where np.min and np.max may take either."""
    return float(values[values.argmin()]), float(values[values.argmax()])


def _bounds(series):
    if not any(len(s.xs) for s in series):
        return 0.0, 1.0, 0.0, 1.0
    x0, x1 = _extremes(np.concatenate([s.xs for s in series]))
    y0, y1 = _extremes(np.concatenate([s.ys for s in series]))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    return x0, x1, y0, y1


def render_svg(path, title, xlabel, ylabel, series) -> None:
    """Write the plot to `path` as a standalone SVG document."""
    series = list(series)
    x0, x1, y0, y1 = _bounds(series)
    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{escape(title)}</text>',
        # axes
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + ph}" x2="{_MARGIN_L + pw}" '
        f'y2="{_MARGIN_T + ph}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + ph}" stroke="black"/>',
        f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13">{escape(xlabel)}</text>',
        f'<text x="16" y="{_MARGIN_T + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {_MARGIN_T + ph / 2:.1f})">{escape(ylabel)}</text>',
        # tick labels at the axis extremes
        f'<text x="{_MARGIN_L}" y="{_MARGIN_T + ph + 16}" text-anchor="middle" '
        f'font-size="11">{x0:.3g}</text>',
        f'<text x="{_MARGIN_L + pw}" y="{_MARGIN_T + ph + 16}" text-anchor="middle" '
        f'font-size="11">{x1:.3g}</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + ph + 4}" text-anchor="end" '
        f'font-size="11">{y0:.3g}</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 4}" text-anchor="end" '
        f'font-size="11">{y1:.3g}</text>',
    ]
    for k, s in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        # the per-point formulas in their operation order, so each double is
        # the one a scalar evaluation gives; '%.2f' % x is f"{x:.2f}" byte for byte
        px = _MARGIN_L + (s.xs - x0) / (x1 - x0) * pw
        py = _MARGIN_T + ph - (s.ys - y0) / (y1 - y0) * ph
        coords = tuple(np.column_stack((px, py)).ravel().tolist())
        if s.kind == "line":
            pts = " ".join(["%.2f,%.2f"] * len(s.xs)) % coords
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        elif coords:
            circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>'
            parts.append("\n".join([circle] * len(s.xs)) % coords)
        ly = _MARGIN_T + 16 + 16 * k
        parts.append(f'<rect x="{_MARGIN_L + pw - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN_L + pw - 135}" y="{ly}" font-size="12">{escape(s.name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
