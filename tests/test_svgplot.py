"""SVG writer sanity: well-formed output, escaping, degenerate inputs, and
the bytes of the per-point reference writer."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import experiments, svgplot

NS = {"s": "http://www.w3.org/2000/svg"}


def reference_svg(title, xlabel, ylabel, series):
    """The document text as the writer built it point by point: Python
    floats, min/max over lists, one closure call and f-string per point.
    `series` are (name, xs, ys, kind) tuples."""
    series = [(name, [float(x) for x in xs], [float(y) for y in ys], kind)
              for name, xs, ys, kind in series]
    xs = [x for s in series for x in s[1]]
    ys = [y for s in series for y in s[2]]
    if xs:
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        x1 = x0 + 1.0 if x1 == x0 else x1
        y1 = y0 + 1.0 if y1 == y0 else y1
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    W, H, L, R, T, B = 640, 480, 70, 20, 40, 50
    pw, ph = W - L - R, H - T - B
    colors = ("#c62828", "#2e7d32", "#212121", "#1565c0", "#6a1b9a")

    def px(x):
        return L + (x - x0) / (x1 - x0) * pw

    def py(y):
        return T + ph - (y - y0) / (y1 - y0) * ph

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" font-size="16">{escape(title)}</text>',
        f'<line x1="{L}" y1="{T + ph}" x2="{L + pw}" y2="{T + ph}" stroke="black"/>',
        f'<line x1="{L}" y1="{T}" x2="{L}" y2="{T + ph}" stroke="black"/>',
        f'<text x="{L + pw / 2:.1f}" y="{H - 12}" text-anchor="middle" '
        f'font-size="13">{escape(xlabel)}</text>',
        f'<text x="16" y="{T + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {T + ph / 2:.1f})">{escape(ylabel)}</text>',
        f'<text x="{L}" y="{T + ph + 16}" text-anchor="middle" font-size="11">{x0:.3g}</text>',
        f'<text x="{L + pw}" y="{T + ph + 16}" text-anchor="middle" font-size="11">{x1:.3g}</text>',
        f'<text x="{L - 6}" y="{T + ph + 4}" text-anchor="end" font-size="11">{y0:.3g}</text>',
        f'<text x="{L - 6}" y="{T + 4}" text-anchor="end" font-size="11">{y1:.3g}</text>',
    ]
    for k, (name, sx, sy, kind) in enumerate(series):
        color = colors[k % len(colors)]
        if kind == "line":
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(sx, sy))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            for x, y in zip(sx, sy):
                parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        ly = T + 16 + 16 * k
        parts.append(f'<rect x="{L + pw - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{L + pw - 135}" y="{ly}" font-size="12">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def assert_same_bytes(tmp_path, title, xlabel, ylabel, series):
    path = tmp_path / "plot.svg"
    svgplot.render_svg(path, title, xlabel, ylabel,
                       [svgplot.Series(name, xs, ys, kind) for name, xs, ys, kind in series])
    assert path.read_bytes() == reference_svg(title, xlabel, ylabel, series).encode()


def test_series_validation():
    with pytest.raises(ValueError, match="lengths"):
        svgplot.Series("x", [1, 2], [1])
    with pytest.raises(ValueError, match="kind"):
        svgplot.Series("x", [1], [1], kind="bars")
    with pytest.raises(ValueError, match="one-dimensional"):
        svgplot.Series("x", [[1, 2]], [[1, 2]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="'s' holds a non-finite value"):
            svgplot.Series("s", [0, 1, 2], [0.5, bad, 0.25])
        with pytest.raises(ValueError, match="'s' holds a non-finite value"):
            svgplot.Series("s", [0, bad, 2], [0.5, 1.0, 0.25], kind="line")


def test_scatter_and_line_elements(tmp_path):
    path = tmp_path / "plot.svg"
    svgplot.render_svg(path, "t", "x", "y", [
        svgplot.Series("dots", [0, 1, 2], [0.5, 0.25, 0.75]),
        svgplot.Series("curve", [0, 1, 2], [0.1, 0.2, 0.3], kind="line"),
    ])
    root = ET.parse(path).getroot()
    assert len(root.findall(".//s:circle", NS)) == 3
    assert len(root.findall(".//s:polyline", NS)) == 1
    texts = [t.text for t in root.findall(".//s:text", NS)]
    assert "dots" in texts and "curve" in texts


def test_escapes_markup_in_labels(tmp_path):
    path = tmp_path / "plot.svg"
    svgplot.render_svg(path, "a < b & c", "x", "y",
                       [svgplot.Series("s", [0.0], [0.0])])
    ET.parse(path)


@pytest.mark.parametrize("text", [
    "", "a&b", "&amp;", "<g>", "x > y & z < w",
    '"quoted"', "it's",  # quote characters are left as they are
    "C\u00b2_A(BC) \u2265 \u03c4 \u2014 \u03c8 \u2297 \U0001d4d7",
])
def test_escape_matches_saxutils(text):
    assert svgplot._escape(text) == escape(text)


@given(st.text() | st.text(alphabet="&<>;amplgt\"' \u00e9"))
@settings(max_examples=200, deadline=None)
def test_escape_matches_saxutils_on_any_text(text):
    assert svgplot._escape(text) == escape(text)


def test_degenerate_ranges_still_render(tmp_path):
    path = tmp_path / "plot.svg"
    svgplot.render_svg(path, "t", "x", "y",
                       [svgplot.Series("flat", [1.0, 1.0], [2.0, 2.0])])
    ET.parse(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("xs,cx", [
    ([1e20, 1e20], ["70.00", "70.00"]),  # 1e20 + 1.0 == 1e20: widened by an ulp
    ([-1e308, 1e308], ["70.00", "620.00"]),  # the span overflows a double
    ([1.7976931348623157e308] * 2, ["620.00", "620.00"]),  # widened downward, not to inf
])
def test_extreme_x_ranges_give_finite_pixels(tmp_path, xs, cx):
    path = tmp_path / "plot.svg"
    svgplot.render_svg(path, "t", "x", "y", [svgplot.Series("dots", xs, [0.0, 1.0]),
                                              svgplot.Series("curve", xs, [0.0, 1.0], "line")])
    assert "inf" not in path.read_text() and "nan" not in path.read_text()
    root = ET.parse(path).getroot()
    assert [c.get("cx") for c in root.findall(".//s:circle", NS)] == cx
    assert root.find(".//s:polyline", NS).get("points") == f"{cx[0]},430.00 {cx[1]},40.00"


def test_empty_series_list(tmp_path):
    path = tmp_path / "plot.svg"
    svgplot.render_svg(path, "t", "x", "y", [])
    root = ET.parse(path).getroot()
    assert root.findall(".//s:circle", NS) == []


class TestReferenceBytes:
    """render_svg writes the bytes of the per-point reference writer."""

    def test_scatter_and_line(self, tmp_path):
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(-2.0, 3.0, 257), rng.uniform(0.0, 1.0, (3, 257))
        assert_same_bytes(tmp_path, "a < b & c", "x", "y", [
            ("dots", xs, ys[0], "scatter"),
            ("curve", np.sort(xs), ys[1], "line"),
            ("ints", np.arange(257), ys[2], "scatter"),
            ("a list", [0, 0.125, 0.5], [1e-9, 2.5, -7.0], "line"),
            ("empty line", [], [], "line"),
            ("empty dots", [], [], "scatter"),
            ("colours wrap", [1.0], [0.5], "scatter"),
        ])

    @pytest.mark.parametrize("xs,ys", [([1.0, 1.0], [2.0, 2.0]), ([0.5], [0.25]),
                                       ([-3.0, 4.0], [7.0, 7.0])])
    def test_degenerate_range(self, tmp_path, xs, ys):
        assert_same_bytes(tmp_path, "t", "x", "y", [("flat", xs, ys, "scatter"),
                                                    ("flat line", xs, ys, "line")])

    def test_empty(self, tmp_path):
        assert_same_bytes(tmp_path, "t", "x", "y", [])
        assert_same_bytes(tmp_path, "t", "x", "y", [("none", [], [], "line")])

    def test_pixels_next_to_rounding_boundaries(self, tmp_path):
        # On the range [0, 3] these values put a pixel coordinate within an
        # ulp of a '%.2f' rounding boundary, where (x - x0) * pw / (x1 - x0)
        # or (x - x0) * (pw / (x1 - x0)) in place of the reference order
        # changes the written digits.
        xs = [0.0, 3.0, 0.0041181818181818325, 0.004499999999999977]
        ys = [0.0, 3.0, 2.9999615384615383, 2.9998846153846155]
        assert_same_bytes(tmp_path, "t", "x", "y", [("dots", xs, ys, "scatter"),
                                                    ("line", xs, ys, "line")])

    @pytest.mark.parametrize("kind", ["scatter", "line"])
    @pytest.mark.parametrize("values", [[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, -1.0, 0.0],
                                        [0.0, -0.0] * 50, [-0.0, 0.0] * 50])
    def test_signed_zero_ties_keep_the_first(self, tmp_path, values, kind):
        # min() and max() keep the first of 0.0 and -0.0, np.min and np.max
        # need not (they give -0.0 on [0.0, -0.0] * 50); the tick labels show which
        assert_same_bytes(tmp_path, "t", "x", "y", [("zeros", values, values[::-1], kind)])

    def test_exact_ties_in_pixel_coordinates(self, tmp_path):
        # on the range [0, 4], x = 0.01 and 0.03 put px exactly on 71.375 and
        # 74.125, which '%.2f' rounds to the even digit: 71.38 and 74.12
        values = [0.0, 0.01, 0.03, 4.0]
        np.testing.assert_array_equal(70 + (np.array(values) - 0.0) / 4.0 * 550,
                                      [70.0, 71.375, 74.125, 620.0])
        assert_same_bytes(tmp_path, "t", "x", "y", [("dots", values, values, "scatter"),
                                                    ("line", values, values, "line")])

    def test_figure_at_workload_size(self, tmp_path):
        _, _, series, title, xlabel = experiments.run_figure(1, seed=0, n=3000)
        assert_same_bytes(tmp_path, title, xlabel, "squared concurrence",
                          [(s.name, s.xs, s.ys, s.kind) for s in series])

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_figures(self, tmp_path, which):
        _, _, series, title, xlabel = experiments.run_figure(which, seed=5, n=200)
        assert_same_bytes(tmp_path, title, xlabel, "squared concurrence",
                          [(s.name, s.xs, s.ys, s.kind) for s in series])
