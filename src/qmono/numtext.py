"""Exact decimal text of float64 and int64 arrays, as NUL-padded byte matrices.

The CSV writer (`experiments.format_rows`) and the SVG writer
(`svgplot.render_svg`) both build their text as uint8 matrices, one
fixed-width slot per number, and delete the NULs at the end.  This module
fills the slots:

- `float_text`: '%.17g' % x, the CSV float cells;
- `int_text`: '%d' % k, the CSV integer cells;
- `fixed2_text`: '%.2f' % x, the SVG pixel coordinates.

A float is printed from the integer N = round-half-even(|x| s) for a power
of ten s.  N is exact: s is an exact double, Dekker's TwoProduct gives
|x| s = p + e exactly, and with r = rint(p), N = r + rint((p - r) + e).
When p - r = +-0.5, an e below half an ulp of 0.5 vanishes in that sum; its
sign then decides.  The digits of N come from tables of four-digit groups.
Values outside a kernel's range go through Python's `%`, once per call.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["float_text", "int_text", "fixed2_text"]

# '%.17g'.  A cell's text is 24 bytes (six uint32 words), NUL wherever it
# holds no character.  A float x with |x| in [1e-4, 10) or x = +-0 prints in
# fixed notation from its decade X and the 17-digit N, s = 10^(16-X); there
# p >= 1e16 > 2^53 is an even integer, so p - r = 0.  Other floats (NaN,
# inf, subnormals, |x| >= 10, 0 < |x| < 1e-4) go through '%.17g' %.
# The decade thresholds are the smallest doubles >= 1e-4, ..., 1, 10: each
# of these literals rounds up.
_DECADES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
# '%.2f'.  An 8-byte slot: the sign, four integer digits, the point and two
# decimals, for N = round-half-even(|x| 100) < 10^6.  |x| < 10^6 first keeps
# the arithmetic finite and N far below 2^52.
_FIXED2_WIDTH = 8
_FIXED2_LIMIT = 1e6


@functools.cache
def _number_tables():
    """Read-only tables of the number renderers, built on first use.

    tail[g] is the four digit bytes of g < 10^4 read as one uint32, with
    its trailing zeros made NUL, and lead[g] with its leading zeros made
    NUL; entry g + 10^4 of each keeps all four, for a group with a nonzero
    group after it (before it).  head[code, sign, more, d] is a float's
    first eight bytes: its sign, "0." and the zeros after the point, its
    first digit d, and the point after d when X = 0 and more digits follow.
    Then come the scale 10^(16-X) of each code and its Veltkamp halves.
    """
    four = np.array([b"%04d" % g for g in range(10_000)]).view(np.uint8).reshape(-1, 4)
    zeros = four == ord("0")
    tail, lead = four.copy(), four.copy()
    tail[np.logical_and.accumulate(zeros[:, ::-1], axis=1)[:, ::-1]] = 0
    lead[np.logical_and.accumulate(zeros, axis=1)] = 0
    head = np.zeros((6, 2, 2, 10, 8), dtype=np.uint8)
    head[:, 1, ..., 0] = ord("-")
    head[..., 6] = np.arange(ord("0"), ord("9") + 1)
    head[[0, 5], :, 1, :, 7] = ord(".")
    for code in range(1, 5):  # X = code - 5 < 0: "0." then -X-1 zeros before d
        head[code, ..., 1:7 - code] = ord("0")
        head[code, ..., 2] = ord(".")
    scale = np.array([1e16, 1e20, 1e19, 1e18, 1e17, 1e16])
    high = scale * _SPLIT - (scale * _SPLIT - scale)
    tables = [np.concatenate([tail, four]).view(np.uint32).reshape(-1),
              np.concatenate([lead, four]).view(np.uint32).reshape(-1),
              head.view(np.uint64).reshape(-1), scale, high, scale - high]
    for array in tables:
        array.setflags(write=False)
    return tables


def _rounded(a, scale, high, low):
    """round-half-even(a * scale) as int64, exactly, for finite a >= 0.

    `high` and `low` are the Veltkamp halves of `scale`.  Exact where
    p = fl(a * scale) < 2^52, or 2^53 <= p < 2^63 (p is an even integer).
    """
    p = a * scale
    big = a * _SPLIT
    ah = big - (big - a)
    al = a - ah
    e = ((ah * high - p) + ah * low + al * high) + al * low
    r = np.rint(p)
    d = np.subtract(p, r, out=p)  # exact; the buffers of p and e are reused
    tie = np.abs(d) == 0.5
    if tie.any():  # d + e would absorb a tiny e; a quarter of its sign decides
        e[tie] = 0.25 * np.sign(e[tie])
    e += d
    return r.astype(np.int64) + np.rint(e, out=e).astype(np.int64)


def _groups(r):
    """The four-digit groups of 0 <= r < 10^16, most significant first."""
    hi, lo = (h.astype(np.int32) for h in np.divmod(r, 10**8))
    return (*np.divmod(hi, 10**4), *np.divmod(lo, 10**4))


def _percent_text(x, spec, width):
    """'%' + spec of every v in x, as (x.size, w) NUL-padded bytes: w is
    `width`, or the longest text where that is wider.  '%-w' pads each text
    with spaces, made NULs."""
    values = tuple(x.tolist())
    text = (f"%-{width}{spec}" * x.size % values).encode()
    if len(text) != x.size * width:
        width = max(len(f"%{spec}" % v) for v in values)
        text = (f"%-{width}{spec}" * x.size % values).encode()
    text = np.frombuffer(text, dtype=np.uint8)
    return (text * (text != ord(" "))).reshape(x.size, width)


def float_text(x):
    """'%.17g' % v for every v in the float64 array x, as (x.size, 24) NUL-padded bytes."""
    x = x.reshape(-1)
    a = np.abs(x)
    slow = ~(((a >= _DECADES[0]) & (a < _DECADES[-1])) | (a == 0))  # NaN too
    if slow.all():
        return _percent_text(x, ".17g", 24)
    a[slow] = 0.0  # keeps the arithmetic finite; these slots are overwritten
    code = np.zeros(x.shape, dtype=np.intp)  # X + 5 on [1e-4, 10); 0 for zeros and slow slots
    for threshold in _DECADES[:-1]:
        code += a >= threshold
    tail, _, head, scale, high, low = _number_tables()
    first, rest = np.divmod(_rounded(a, scale[code], high[code], low[code]), 10**16)
    words = np.empty((x.size, 6), dtype=np.uint32)
    more = np.zeros(x.size, dtype=bool)  # a nonzero digit follows
    for j, g in zip((5, 4, 3, 2), reversed(_groups(rest))):
        words[:, j] = tail[g + 10_000 * more]
        more |= g != 0
    words.view(np.uint64)[:, 0] = head[((code * 2 + np.signbit(x)) * 2 + more) * 10 + first]
    text = words.view(np.uint8).reshape(x.size, 24)
    if slow.any():
        text[slow] = _percent_text(x[slow], ".17g", 24)
    return text


def int_text(v):
    """'%d' % k for every k in the int64 array v, as (v.size, 24) NUL-padded bytes.

    The digits come from the uint64 magnitude: np.abs wraps -2^63 to
    itself, whose uint64 view is 2^63.  Only the four-digit groups of the
    largest magnitude are built, the rest of the slot stays NUL.
    """
    lead = _number_tables()[1]
    v = v.reshape(-1)
    m = np.abs(v).view(np.uint64)
    groups = []  # least significant first
    for _ in range((len(str(m.max())) - 1) // 4 if v.size else 0):
        m, g = np.divmod(m, np.uint64(10_000))
        groups.append(g)
    groups.append(m)
    words = np.zeros((v.size, 6), dtype=np.uint32)
    before = np.zeros(v.size, dtype=bool)  # a nonzero digit precedes
    for j, g in zip(range(6 - len(groups), 6), reversed(groups)):
        words[:, j] = lead[g + np.uint64(10_000) * before]
        before |= g != 0
    text = words.view(np.uint8).reshape(v.size, 24)
    text[:, 0] = np.where(v < 0, ord("-"), 0)
    text[~before, 23] = ord("0")
    return text


def fixed2_text(x):
    """'%.2f' % v for every v in the float64 array x, as (x.size, w) NUL-padded
    bytes: w = 8, or the longest '%' text where a value outside the slot is wider."""
    x = x.reshape(-1)
    a = np.abs(x)
    fast = a < _FIXED2_LIMIT  # NaN is slow
    a[~fast] = 0.0
    whole, cents = np.divmod(_rounded(a, 100.0, 100.0, 0.0), 100)
    fast &= whole < 10_000
    lead = _number_tables()[1].view(np.uint8).reshape(-1, 4)
    text = np.zeros((x.size, _FIXED2_WIDTH), dtype=np.uint8)
    text[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    text[:, 1:5] = lead[whole * fast]
    text[whole == 0, 4] = ord("0")
    text[:, 5] = ord(".")
    text[:, 6:] = lead[cents + 10_000, 2:]
    if not fast.all():
        slow = _percent_text(x[~fast], ".2f", _FIXED2_WIDTH)
        if slow.shape[1] > _FIXED2_WIDTH:
            text = np.pad(text, ((0, 0), (0, slow.shape[1] - _FIXED2_WIDTH)))
        text[~fast] = slow
    return text
