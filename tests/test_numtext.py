"""The byte kernels against Python's formatting, byte for byte: '%.17g'
(float_text), repr (repr_text), '%d' (int_text) and '%.2f' (fixed2_text),
and the row assembler byte_rows over their slots."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmono.numtext import _DECADES, byte_rows, fixed2_text, float_text, int_text, repr_text

# every double, drawn by its bit pattern: subnormals, NaNs and infinities too
ANY_DOUBLE = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
INT64 = st.integers(-2**63, 2**63 - 1)
# no value inside the fast range [1e-4, 10) or zero: every slot comes from '%'
ALL_SLOW = [float("nan"), float("inf"), float("-inf"), 1e300, -12.5, 1e-5, 5e-324,
            2.2250738585072014e-308]


def lines(text):
    """The str of each NUL-padded row of a kernel's byte matrix."""
    return [bytes(row).replace(b"\0", b"").decode() for row in text]


def assert_percent_17g(values):
    x = np.asarray(values, dtype=np.float64)
    text = float_text(x)
    assert text.shape == (x.size, 24) and lines(text) == ["%.17g" % v for v in x.tolist()]


def assert_percent_d(values):
    text = int_text(np.asarray(values, dtype=np.int64))
    assert text.shape == (len(values), 24) and lines(text) == ["%d" % k for k in values]


@given(st.lists(st.one_of(ANY_DOUBLE, st.floats()), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_float_text_is_percent_17g(values):
    assert_percent_17g(values)


def test_float_text_at_the_decade_thresholds_and_special_values():
    edges = [v for d in _DECADES for v in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf))]
    edges += [0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
              1.7976931348623157e308, np.inf, np.nan]
    assert_percent_17g(edges + [-v for v in edges])
    assert_percent_17g([])
    assert_percent_17g(ALL_SLOW)


def assert_repr(values):
    x = np.asarray(values, dtype=np.float64)
    text = repr_text(x)
    assert text.shape == (x.size, 24) and lines(text) == [repr(v) for v in x.tolist()]


@given(st.lists(st.one_of(ANY_DOUBLE, st.floats()), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_repr_text_is_repr(values):
    assert_repr(values)


def test_repr_text_at_powers_of_two_ties_and_decade_edges():
    # the gap below a power of two is half the gap above it
    twos = np.ldexp(1.0, np.arange(-14, 4))
    edges = [v for d in _DECADES for v in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf))]
    values = np.concatenate([
        twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf), edges,
        [1.00000762939453125,  # M = ...312.5: 17 digits, the tie to the even one
         0.30000000000000004, 0.0, -0.0], np.arange(1.0, 10.0),
        np.linspace(0, 1.2, 1201), np.arange(10_000) / 1000])
    assert_repr(np.concatenate([values, -values]))
    assert_repr([])
    assert_repr(ALL_SLOW)


def test_repr_text_on_random_few_bit_and_decimal_doubles():
    rng = np.random.default_rng(29)
    n = 70_000
    # random mantissas over [2^-14, 2^4), either sign, then the same with
    # only their leading 1-40 bits kept
    bits = (rng.integers(0, 2**52, n, dtype=np.uint64)
            | rng.integers(1023 - 14, 1023 + 4, n).astype(np.uint64) << np.uint64(52)
            | rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63))
    cut = (np.uint64(1) << rng.integers(12, 52, n).astype(np.uint64)) - np.uint64(1)
    # k 10^-m for k of 1-15 digits, in [1e-4, 10)
    k = rng.integers(10**14, 10**15, n) // 10 ** rng.integers(0, 15, n)
    decimals = k / 10.0 ** (np.floor(np.log10(k)) + rng.integers(0, 5, n))
    assert_repr(np.concatenate([bits.view(np.float64), (bits & ~cut).view(np.float64), decimals]))


@given(st.lists(INT64, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_int_text_is_percent_d(values):
    assert_percent_d(values)


@pytest.mark.parametrize("values", [
    [0], [-1, 0, 1], [9999, 10_000, -10_000], [10**8 - 1, 10**8], [10**16 - 1, -10**16],
    [2**63 - 1, -(2**63 - 1)],
    [-2**63],  # its magnitude is not an int64
    [-2**63, 0, 7],
])
def test_int_text_edges(values):
    assert_percent_d(values)


def test_int_text_empty():
    assert int_text(np.array([], dtype=np.int64)).shape == (0, 24)


def fixed2_lines(values):
    """The texts fixed2_text writes for `values`, one str each."""
    x = np.asarray(values, dtype=np.float64)
    text = fixed2_text(x)
    assert text.shape[0] == x.size and text.shape[1] >= 8
    return lines(text)


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


TEXT = st.text(st.characters(exclude_characters="\0"), max_size=5)


@given(st.lists(st.tuples(st.one_of(ANY_DOUBLE, st.floats()), INT64), max_size=40), TEXT, TEXT)
@settings(max_examples=200, deadline=None)
@example(pairs=[(0.5, 1)], before="\ud800", between="a\udfffb")
def test_byte_rows_joins_strs_and_slots(pairs, before, between):
    x = np.array([v for v, _ in pairs], dtype=np.float64)
    k = np.array([i for _, i in pairs], dtype=np.int64)
    got = byte_rows(len(pairs), [before, float_text(x), between, "", int_text(k),
                                 fixed2_text(x), "\n"])
    assert got == "".join(f"{before}{'%.17g' % v}{between}{'%d' % i}{'%.2f' % v}\n"
                          for v, i in pairs)
