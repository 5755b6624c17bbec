"""The '%.2f' byte kernel against Python's '%' formatting, byte for byte.

The '%.17g' and '%d' kernels are checked through the CSV writer in
test_experiments.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono.numtext import fixed2_text


def fixed2_lines(values):
    """The texts fixed2_text writes for `values`, one str each."""
    x = np.asarray(values, dtype=np.float64)
    text = fixed2_text(x)
    assert text.shape[0] == x.size and text.shape[1] >= 8
    return [bytes(row).replace(b"\0", b"").decode() for row in text]


def assert_percent_2f(values):
    assert fixed2_lines(values) == ["%.2f" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@given(st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_doubles_of_either_sign_up_to_1e8(values):
    assert_percent_2f(values)


@given(st.lists(st.tuples(st.integers(0, 2 * 10**10), st.sampled_from([-1, 0, 1]),
                          st.booleans()), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_neighbours_of_the_rounding_boundaries(draws):
    # m / 200 is a boundary of '%.2f'; the doubles at and next to it
    values = [np.nextafter(m / 200, np.inf * step) if step else m / 200 for m, step, _ in draws]
    assert_percent_2f([-v if negative else v for v, (_, _, negative) in zip(values, draws)])


@pytest.mark.parametrize("value,text", [
    (0.125, "0.12"),  # exact binary ties go to the even digit
    (0.375, "0.38"),
    (0.005, "0.01"),  # 100 * 0.005 rounds to 0.5, and the tiny rest decides
    (0.015, "0.01"),
    (-0.0, "-0.00"),
    (-0.001, "-0.00"),
    (0.0, "0.00"),
    (9.995, "9.99"),  # the double is just below 9.995
    (99.995, "100.00"),  # a carry into a new digit
    (9999.995, "10000.00"),  # carried past the four-digit slot
    (99999999.995, "100000000.00"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
])
def test_edges(value, text):
    assert fixed2_lines([value]) == [text] == ["%.2f" % value]


def test_next_to_every_hundredth_up_to_100():
    m = np.arange(20_001) / 200.0
    values = np.concatenate([m, np.nextafter(m, 0.0), np.nextafter(m, np.inf)])
    assert_percent_2f(np.concatenate([values, -values]))


def test_text_wider_than_the_slot_widens_every_row():
    values = [1.5, 1e300, -2.25, float("nan")]
    text = fixed2_text(np.array(values))
    assert text.shape == (4, len("%.2f" % 1e300))
    assert_percent_2f(values)


def test_empty():
    assert fixed2_text(np.array([])).shape == (0, 8)
