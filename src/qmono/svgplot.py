"""Minimal SVG scatter/line rendering from numpy arrays.

The CSV files are the data contract; these plots exist only to eyeball
the orderings between the curves.  Output is plain well-formed XML.
A series comes in as float64 arrays of finite values.  Its pixel
coordinates are whole-array expressions, and it is written as one uint8
matrix with a row per point: the row's constant bytes plus an x and a y
slot, filled with the exact '%.2f' digits of `numtext.fixed2_text` and
made text by deleting the NUL padding, as a CSV block is.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .numtext import fixed2_text

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
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"series {self.name!r} holds a non-finite value")
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
    # a single value is widened by 1.0, or by an ulp where adding 1.0 would not move it
    if x1 == x0:
        x1 = x0 + max(1.0, math.ulp(x0))
    if y1 == y0:
        y1 = y0 + max(1.0, math.ulp(y0))
    return x0, x1, y0, y1


def _unit(values, lo, hi):
    """(values - lo) / (hi - lo), each value's place in the range [lo, hi].

    Where hi - lo overflows, every term is halved first, so no difference
    overflows; halving is exact but for subnormals, which vanish at this scale.
    """
    if hi - lo == math.inf:
        values, lo, hi = values / 2.0, lo / 2.0, hi / 2.0
    return (values - lo) / (hi - lo)


def _point_rows(px, py, before, between, after):
    """before + '%.2f' % x + between + '%.2f' % y + after for each point, joined.

    One uint8 matrix with a row per point: the constant bytes and a
    NUL-padded slot per coordinate, made text by deleting the NULs.
    """
    text = fixed2_text(np.concatenate((px, py)))
    n, w = len(px), text.shape[1]
    x_at = len(before)
    y_at = x_at + w + len(between)
    rows = np.empty((n, y_at + w + len(after)), dtype=np.uint8)
    rows[:] = np.frombuffer((before + "\0" * w + between + "\0" * w + after).encode(), dtype=np.uint8)
    rows[:, x_at:x_at + w] = text[:n]
    rows[:, y_at:y_at + w] = text[n:]
    return rows.tobytes().translate(None, b"\0").decode()


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
        # the one a scalar evaluation gives
        px = _MARGIN_L + _unit(s.xs, x0, x1) * pw
        py = _MARGIN_T + ph - _unit(s.ys, y0, y1) * ph
        if s.kind == "line":
            pts = _point_rows(px, py, "", ",", " ")[:-1]
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        elif len(px):
            parts.append(_point_rows(px, py, '<circle cx="', '" cy="',
                                     f'" r="2.5" fill="{color}"/>\n')[:-1])
        ly = _MARGIN_T + 16 + 16 * k
        parts.append(f'<rect x="{_MARGIN_L + pw - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN_L + pw - 135}" y="{ly}" font-size="12">{escape(s.name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
