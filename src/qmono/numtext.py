"""Exact decimal text of float64 and int64 arrays, and the rows built from it.

Every table and plot writes its text as uint8 matrices: the CSV and JSON
writer (`experiments.format_rows`) and the SVG writer (`svgplot.render_svg`)
alike.  A number fills one fixed-width slot, NUL wherever it holds no
character, and `byte_rows` lays the slots of n rows side by side with the
constant text between them, then deletes the NULs.  The slots come from
four kernels:

- `float_text`: '%.17g' % x, the CSV float cells;
- `repr_text`: repr(x), the JSON float cells;
- `int_text`: '%d' % k, the integer cells;
- `fixed2_text`: '%.2f' % x, the SVG pixel coordinates.

The two float kernels share one renderer.  For 1e-4 <= |x| < 10 with
decade X and the exact double s = 10^(16-X), Dekker's TwoProduct gives
|x| s = p + e exactly, p an even integer in [1e16, 1e17] and |e| <= 8.
'%.17g' prints N = round-half-even(|x| s) = p + rint(e): p is even, so
no tie needs a second look.  repr prints the shortest integer V that
reads back as x, found from e and the exact half-gaps to x's neighbours.
The digits of N or V come from tables of four-digit groups.  '%.2f'
rounds 100 |x| with one tie pass (`_rounded`), since p is small there.
Values outside a kernel's range go through Python's `%`, once per call.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["byte_rows", "float_text", "repr_text", "int_text", "fixed2_text"]

# '%.17g' and repr.  A cell's text is 24 bytes (six uint32 words), NUL
# wherever it holds no character.  A float x with |x| in [1e-4, 10) or
# x = +-0 prints in fixed notation from its decade X and a 17-digit integer.
# Other floats (NaN, inf, subnormals, |x| >= 10, 0 < |x| < 1e-4) go through %.
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


def _two_product(a, scale, high, low):
    """(p, e) with p = fl(a * scale) and a * scale = p + e exactly, for finite
    a >= 0 (Dekker's TwoProduct).  `high` and `low` are the Veltkamp halves
    of `scale`."""
    p = a * scale
    big = a * _SPLIT
    ah = big - (big - a)
    al = a - ah
    return p, ((ah * high - p) + ah * low + al * high) + al * low


def _rounded(a, scale, high, low):
    """round-half-even(a * scale) as int64, exactly, for finite a >= 0.

    Exact where p = fl(a * scale) < 2^52, or 2^53 <= p < 2^63 (p is an even integer).
    """
    p, e = _two_product(a, scale, high, low)
    r = np.rint(p)
    d = np.subtract(p, r, out=p)  # exact; the buffers of p and e are reused
    tie = np.abs(d) == 0.5
    if tie.any():  # d + e would absorb a tiny e; a quarter of its sign decides
        e[tie] = 0.25 * np.sign(e[tie])
    e += d
    return r.astype(np.int64) + np.rint(e, out=e).astype(np.int64)


def _nearest(a, s, p, e):
    """round-half-even(M) for M = a s = p + e: the digits of '%.17g'.  p is
    an even integer, so rint(M) = p + rint(e) and no tie is lost."""
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _shortest(a, s, p, e):
    """The integer V < 10^17 whose digits are repr(a): of the shortest
    decimals V 10^(X-16) that read back as a, the nearest to M = a s.

    With H half an ulp of a times s, they are the integers in (M - H, M + H),
    an interval narrower than 100.  A multiple of 100 in it is repr's; else
    the multiple of 10 nearest to M, half-even, if one lies in it; else the
    integer nearest to M.  The nearest ones lie in the interval whenever any
    does, since it is symmetric about M and H > 1/2.  Below a power of two
    the gap is half as wide, but there M is itself a multiple of 100.
    e and H are multiples of 2^(ex+n-54) for a = f 2^ex and s = 10^n, and
    ex + n >= 7, so e +- H is exact, and never an integer.
    """
    h = np.ldexp(s, np.frexp(a)[1] - 54)
    base = p.astype(np.int64)
    lo = base + np.ceil(e - h).astype(np.int64)
    hi = base + np.floor(e + h).astype(np.int64)
    c100 = -(-lo // 100) * 100
    whole = np.floor(e)  # M = base + whole + (e - whole), exactly
    q, r = np.divmod(base + whole.astype(np.int64), 10)
    up = (r > 5) | ((r == 5) & ((e > whole) | (q % 2 == 1)))
    return np.where(c100 <= hi, c100,
                    np.where(-(-lo // 10) * 10 <= hi, (q + up) * 10, _nearest(a, s, p, e)))


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


def _decimal_text(x, spec, digits):
    """The text of every v in the float64 array x, as (x.size, 24) NUL-padded
    bytes.  Where 1e-4 <= |v| < 10 or v = +-0 it is V 10^(X-16) in fixed
    notation, without the trailing zeros of its fraction or a bare point,
    for V = digits(a, s, p, e) < 10^17 with a = |v|, s = 10^(16-X) and the
    exact a s = p + e; elsewhere it is '%' + spec."""
    x = x.reshape(-1)
    a = np.abs(x)
    slow = ~(((a >= _DECADES[0]) & (a < _DECADES[-1])) | (a == 0))  # NaN too
    a[slow] = 0.0  # keeps the arithmetic finite; these slots are overwritten
    code = np.zeros(x.shape, dtype=np.intp)  # X + 5 on [1e-4, 10); 0 for zeros and slow slots
    for threshold in _DECADES[:-1]:
        code += a >= threshold
    tail, _, head, scale, high, low = _number_tables()
    s = scale[code]
    first, rest = np.divmod(digits(a, s, *_two_product(a, s, high[code], low[code])), 10**16)
    words = np.empty((x.size, 6), dtype=np.uint32)
    more = np.zeros(x.size, dtype=bool)  # a nonzero digit follows
    for j, g in zip((5, 4, 3, 2), reversed(_groups(rest))):
        words[:, j] = tail[g + 10_000 * more]
        more |= g != 0
    words.view(np.uint64)[:, 0] = head[((code * 2 + np.signbit(x)) * 2 + more) * 10 + first]
    text = words.view(np.uint8).reshape(x.size, 24)
    text[slow] = _percent_text(x[slow], spec, 24)
    return text


def float_text(x):
    """'%.17g' % v for every v in the float64 array x, as (x.size, 24) NUL-padded bytes."""
    return _decimal_text(x, ".17g", _nearest)


def repr_text(x):
    """repr(v) for every v in the float64 array x, as (x.size, 24) NUL-padded bytes."""
    x = x.reshape(-1)
    text = _decimal_text(x, "r", _shortest)
    whole = np.abs(x) < 10  # repr writes 0.0, 1.0, ..., 9.0; NaN is not below 10
    whole[whole] = np.floor(x[whole]) == x[whole]
    text[whole, 7:9] = (ord("."), ord("0"))
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


@functools.cache
def _fixed2_tables():
    """Read-only uint64 tables of the '%.2f' slot, built on first use.

    whole[g + 10^4 sign] holds the sign and the integer part g < 10^4 in
    bytes 0-4 (its leading zeros NUL, "0" for g = 0); cents[c] holds the
    point and the two decimals of c < 100 in bytes 5-7.  Their other bytes
    are NUL, so one OR of the two words is the slot.
    """
    lead = _number_tables()[1].view(np.uint8).reshape(-1, 4)
    whole = np.zeros((2, 10_000, _FIXED2_WIDTH), dtype=np.uint8)
    whole[1, :, 0] = ord("-")
    whole[:, :, 1:5] = lead[:10_000]
    whole[:, 0, 4] = ord("0")
    cents = np.zeros((100, _FIXED2_WIDTH), dtype=np.uint8)
    cents[:, 5] = ord(".")
    cents[:, 6:] = lead[10_000:10_100, 2:]
    tables = [whole.view(np.uint64).reshape(-1), cents.view(np.uint64).reshape(-1)]
    for array in tables:
        array.setflags(write=False)
    return tables


def fixed2_text(x):
    """'%.2f' % v for every v in the float64 array x, as (x.size, w) NUL-padded
    bytes: w = 8, or the longest '%' text where a value outside the slot is wider."""
    x = x.reshape(-1)
    a = np.abs(x)
    fast = a < _FIXED2_LIMIT  # NaN is slow
    a[~fast] = 0.0
    whole, cents = np.divmod(_rounded(a, 100.0, 100.0, 0.0), 100)
    fast &= whole < 10_000
    heads, tails = _fixed2_tables()
    words = heads.take(whole * fast + 10_000 * np.signbit(x)) | tails.take(cents)
    text = words.view(np.uint8).reshape(x.size, _FIXED2_WIDTH)
    slow = _percent_text(x[~fast], ".2f", _FIXED2_WIDTH)
    if slow.shape[1] > _FIXED2_WIDTH:
        text = np.pad(text, ((0, 0), (0, slow.shape[1] - _FIXED2_WIDTH)))
    text[~fast] = slow
    return text


def byte_rows(n, parts):
    """The text of n rows, each the concatenation of `parts` in order.

    A part is a str, the same in every row, or an (n, w) uint8 slot matrix
    from the renderers above, one slot per row.  Every row starts as the
    strs with NULs where the slots go; then the slots are copied in and
    every NUL is deleted.  The strs go through UTF-8 with "surrogatepass",
    so any str without a NUL comes back as it went in, lone surrogates too.
    """
    parts = [p.encode("utf-8", "surrogatepass") if isinstance(p, str) else p for p in parts]
    row = b"".join(p if isinstance(p, bytes) else bytes(p.shape[1]) for p in parts)
    rows = np.empty((n, len(row)), dtype=np.uint8)
    rows[:] = np.frombuffer(row, dtype=np.uint8)
    at = 0
    for p in parts:
        if isinstance(p, bytes):
            at += len(p)
        else:
            rows[:, at:at + p.shape[1]] = p
            at += p.shape[1]
    return rows.tobytes().translate(None, b"\0").decode("utf-8", "surrogatepass")
