"""Constructors, samplers, and validation for three-qubit pure states.

Amplitude order is |abc> with qubit A as the most significant bit, so the
basis index of |abc> is 4a + 2b + c.

Two parameter conventions coexist and are kept deliberately distinct:

* the Bell-times-product family takes probabilities p1 + p2 = 1 and uses
  sqrt(p1), sqrt(p2) as amplitudes;
* the two canonical five-parameter families take amplitudes p1..p5 with
  sum of squares equal to 1, plus a phase theta in [0, pi).
"""

from __future__ import annotations

import functools
import json
import math
from typing import NamedTuple

import numpy as np

from .linalg import checked_norm2

__all__ = [
    "FAMILIES",
    "RngState",
    "make_ghz",
    "make_w",
    "make_bell_product",
    "make_canonical_a",
    "make_canonical_b",
    "normalizing_p5",
    "sample_haar",
    "sample_haar_batch",
    "sample_canonical",
    "sample_canonical_batch",
    "uniforms",
    "validate",
    "read_state_file",
    "write_state_file",
]

FAMILIES = ("ghz", "w", "bell-product", "canonical-a", "canonical-b", "haar")

# Canonical parameter normalization tolerance on sum(p_i^2).
PARAM_NORM_TOL = 1e-12

_CANONICAL_A_INDICES = (0, 1, 4, 6, 7)
_CANONICAL_B_INDICES = (0, 1, 2, 4, 7)


def _check_seed(seed) -> int:
    """The seed as an int: an integer by _check_count's rule, rejected unless
    it fits in an unsigned 64-bit integer."""
    _check_count(seed, "seed")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


# The chain SeedSequence(entropy=seed, spawn_key=(i,)) -> PCG64 -> random()
# of RngState(seed, i), rebuilt in integer arithmetic so that one pass
# serves every index.  SeedSequence hashes 32-bit words into a pool of four
# (O'Neill's seed_seq_fe).  PCG64 is a 128-bit LCG with XSL-RR output
# (O'Neill 2014), stepped here on two uint64 limbs (hi, lo) whose products
# numpy wraps mod 2**64.  Its operands are all np.uint64: numpy 1.24 turns
# a uint64 scalar combined with a Python int into a float64.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO_0, _MULT_LO_1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_LOW32 = np.uint64(_MASK32)
_ONE, _SHIFT_11, _SHIFT_32, _SHIFT_58, _SHIFT_63, _SHIFT_64 = (
    np.uint64(s) for s in (1, 11, 32, 58, 63, 64))


def _hash_consts(init, mult):
    """(xor, multiplier) of successive hash calls: each call advances the constant."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hash(word, consts):
    xor, mul = next(consts)
    word = ((word ^ xor) * mul) & _MASK32
    return word ^ (word >> 16)


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _mulhi_mult_lo(a):
    """The high 64 bits of the 128-bit product a * _PCG_MULT_LO, from 32-bit halves.

    Hacker's Delight mulhu: no partial sum reaches 2**64.
    """
    a_0, a_1 = a & _LOW32, a >> _SHIFT_32
    u = a_1 * _MULT_LO_0 + ((a_0 * _MULT_LO_0) >> _SHIFT_32)
    v = a_0 * _MULT_LO_1 + (u & _LOW32)
    return a_1 * _MULT_LO_1 + (u >> _SHIFT_32) + (v >> _SHIFT_32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, (hi, lo) * mult + inc mod 2**128, on uint64 limbs."""
    new_lo = lo * _PCG_MULT_LO + inc_lo
    # new_lo wrapped past 2**64 exactly when it came out below inc_lo
    new_hi = (_mulhi_mult_lo(lo) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi
              + (new_lo < inc_lo))
    return new_hi, new_lo


def _check_count(n, name, least=None, most=None):
    """Reject a count that is not an integer (a bool is not one), or one
    below `least` or above `most`."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if least is not None and n < least:
        raise ValueError(f"{name} must be at least {least}")
    if most is not None and n > most:
        raise ValueError(f"{name} must be at most {most}, got {n}")


# The most streams `uniforms` draws: each index i < 2**32 is one 32-bit spawn
# word.  Every command that draws streams bounds its count by it.
_MOST_STREAMS = 2**32


def uniforms(seed: int, n: int, k: int) -> np.ndarray:
    """The first k doubles of RngState(seed, i).uniforms for every stream i < n.

    Shape (n, k), bit for bit what the per-index generators give, computed
    for all streams at once: the SeedSequence pool, generate_state(4,
    uint64), the PCG64 seeding and k XSL-RR outputs turned into doubles as
    random() does.
    The seed words are the same for every stream, so their part of the
    pool is mixed once in Python integers; every index is below 2**32,
    one spawn word, mixed in as an array.  The 128-bit LCG state is two
    uint64 arrays (hi, lo): a step is lo * mult + inc on wrapping uint64
    products plus the carries into hi, and only the high half of
    lo * mult_lo is formed from 32-bit halves.
    """
    seed = _check_seed(seed)
    _check_count(n, "stream count", 0, _MOST_STREAMS)
    _check_count(k, "draw count")
    # array arithmetic throughout, which wraps without a warning
    idx = np.arange(n, dtype=np.uint64)
    consts = _hash_consts(_INIT_A, _MULT_A)
    # the seed's words, zero-padded to the pool size because a spawn key follows
    pool = [_hash(w, consts) for w in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    pool = [_mix(np.full(n, p, dtype=np.uint64), _hash(idx, consts)) for p in pool]

    consts = _hash_consts(_INIT_B, _MULT_B)
    w = [_hash(pool[j % 4], consts) for j in range(8)]
    # generate_state gives the uint64 words (w0|w1<<32, w2|w3<<32, ...);
    # PCG64 seeds state from the first two and inc = (last two << 1) | 1
    init_hi, init_lo, seq_hi, seq_lo = (w[j] | (w[j + 1] << _SHIFT_32) for j in range(0, 8, 2))
    inc_hi, inc_lo = (seq_hi << _ONE) | (seq_lo >> _SHIFT_63), (seq_lo << _ONE) | _ONE
    # seeding sets state = inc + init_state and takes one LCG step
    lo = inc_lo + init_lo
    hi, lo = _pcg_step(inc_hi + init_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    # one C-contiguous row per stream: batched samplers sum along the last
    # axis, and another memory layout would change their summation order
    out = np.empty((n, k))
    for t in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _SHIFT_58
        x = (x >> rot) | (x << ((_SHIFT_64 - rot) & _SHIFT_63))
        out[:, t] = (x >> _SHIFT_11) * (1.0 / 9007199254740992.0)
    return out


class RngState:
    """Deterministic PCG64 stream addressed by (seed, stream index).

    Distinct stream indices give statistically independent substreams of
    the same 64-bit seed, so ensemble element i can be generated in
    isolation and in any order.  Only `random()` of the underlying
    generator is consumed, which lets `uniforms` rebuild the draws of many
    indices in one pass.  This class is the scalar reference those batches
    match.
    """

    def __init__(self, seed: int, index: int):
        _check_count(index, "stream index")
        seq = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=(int(index),))
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        _check_count(n, "n")
        return self._gen.random(n)


def validate(psi) -> np.ndarray:
    """Check shape, finiteness, and norm; return an exactly normalized copy."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (8,):
        raise ValueError(f"state must be 8 amplitudes, got shape {psi.shape}")
    return psi / np.sqrt(checked_norm2(psi))


def make_ghz() -> np.ndarray:
    """(|000> + |111>) / sqrt(2)."""
    psi = np.zeros(8, dtype=np.complex128)
    psi[0] = psi[7] = 1.0 / math.sqrt(2.0)
    return psi


def make_w() -> np.ndarray:
    """(|001> + |010> + |100>) / sqrt(3)."""
    psi = np.zeros(8, dtype=np.complex128)
    psi[1] = psi[2] = psi[4] = 1.0 / math.sqrt(3.0)
    return psi


# A check list is (boolean array over the rows, message of row r) pairs in
# the order the checks apply; the arrays broadcast together and r is a flat
# row index.
def _failing(checks):
    """The rows failing any check of a check list."""
    return functools.reduce(np.logical_or, [mask for mask, _ in checks])


def _raise_first_failure(checks, error=lambda row, message: ValueError(message)):
    """Raise error(row, message) for the first row failing a check, if any.

    The message is that of the row's first failed check, so a batch
    reports what checking its rows one by one would have reported.
    """
    bad = _failing(checks)
    if not bad.any():
        return
    masks = np.broadcast_arrays(*[mask for mask, _ in checks])
    row = int(np.argmax(bad.reshape(-1)))
    message = next(msg(row) for mask, (_, msg) in zip(masks, checks) if mask.reshape(-1)[row])
    raise error(row, message)


def _bell_checks(p1):
    """The check list of Bell weights p1 (a float64 array): each in [0, 1].

    The one rule of which weights make a state, for make_bell_product and scan.
    """
    return [(~((0.0 <= p1) & (p1 <= 1.0)),
             lambda r: f"p1 must lie in [0, 1], got {float(p1.flat[r])!r}")]


def make_bell_product(p1):
    """sqrt(p1) |Psi^-> |0> + sqrt(p2) |00> |1> with p2 = 1 - p1.

    |Psi^-> = (|01> - |10>)/sqrt(2) lives on qubits A and B.  An array of
    weights gives one state per weight, shape (..., 8).
    """
    p1 = np.asarray(p1, dtype=np.float64)
    _raise_first_failure(_bell_checks(p1))
    psi = np.zeros(p1.shape + (8,), dtype=np.complex128)
    half = np.sqrt(p1 / 2.0)
    psi[..., 2] = half
    psi[..., 4] = -half
    psi[..., 1] = np.sqrt(1.0 - p1)
    return psi


def _entry_checks(p, theta):
    """The check list of single entries of parameter rows p (..., k)
    and angles theta: amplitudes finite and non-negative, theta in [0, pi)."""
    return [(np.any(p < 0.0, axis=-1) | ~np.all(np.isfinite(p), axis=-1),
             lambda r: "canonical parameters must be finite and non-negative"),
            (~((0.0 <= theta) & (theta < math.pi)),
             lambda r: f"theta must lie in [0, pi), got {float(theta.flat[r])!r}")]


def _canonical_checks(p, theta):
    """The check list of float64 parameter rows p (..., 5) and angles theta.

    Entries finite and non-negative, squares summing to 1 within
    PARAM_NORM_TOL, theta in [0, pi): the one rule of which parameters
    make a canonical state, for make_canonical_a/b and scan.  A square too
    large for a double makes the sum inf, which the norm check refuses.
    """
    with np.errstate(over="ignore"):
        s = np.sum(p * p, axis=-1)
    s, theta = np.broadcast_arrays(s, np.asarray(theta, dtype=np.float64))
    signs, angles = _entry_checks(p, theta)
    return [signs,
            (np.abs(s - 1.0) > PARAM_NORM_TOL,
             lambda r: f"sum of squared parameters is {float(s.flat[r])!r}, must be 1"),
            angles]


def _canonical(indices, p, theta):
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1:] != (5,):
        raise ValueError(f"need 5 canonical parameters, got shape {p.shape}")
    theta = np.asarray(theta, dtype=np.float64)
    _raise_first_failure(_canonical_checks(p, theta))
    phase = np.cos(theta) + 1j * np.sin(theta)
    psi = np.zeros(np.broadcast_shapes(p.shape[:-1], theta.shape) + (8,), dtype=np.complex128)
    psi[..., indices[0]] = p[..., 0] * phase
    psi[..., list(indices[1:])] = p[..., 1:]
    return psi


def normalizing_p5(p1, p2, p3, p4):
    """The p5 that normalizes a canonical state: sqrt(max(1 - p1^2 - ... - p4^2, 0)).

    Subtracted left to right.  Where p1..p4 overshoot, p5 is 0 and the
    canonical norm check decides; a square too large for a double gives 0.
    """
    with np.errstate(over="ignore"):
        return np.sqrt(np.maximum(1.0 - p1 * p1 - p2 * p2 - p3 * p3 - p4 * p4, 0.0))


def make_canonical_a(p, theta=0.0) -> np.ndarray:
    """p1 e^(i theta)|000> + p2|001> + p3|100> + p4|110> + p5|111>.

    Parameter rows p of shape (..., 5) with angles theta give a stack of
    states, shape (..., 8).
    """
    return _canonical(_CANONICAL_A_INDICES, p, theta)


def make_canonical_b(p, theta=0.0) -> np.ndarray:
    """p1 e^(i theta)|000> + p2|001> + p3|010> + p4|100> + p5|111>.

    Parameter rows p of shape (..., 5) with angles theta give a stack of
    states, shape (..., 8).
    """
    return _canonical(_CANONICAL_B_INDICES, p, theta)


def _haar_states(u):
    """Haar states (..., 8) from 16 uniforms per state along the last axis.

    Box-Muller makes each uniform pair (radius from the even position, angle
    from the odd one) a standard complex Gaussian amplitude; then normalize.
    """
    # 1 - u maps the uniform support [0, 1) onto (0, 1] so log() is safe
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    # each array is dropped once read, so a batch peaks at about three state stacks
    del u
    psi = r * np.cos(angle) + 1j * (r * np.sin(angle))
    del r, angle
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1))[..., None]
    return psi


def sample_haar(rng: RngState) -> np.ndarray:
    """One state from the unitarily invariant distribution."""
    return _haar_states(rng.uniforms(16))


def sample_haar_batch(seed: int, n: int) -> np.ndarray:
    """n Haar samples, one independent stream per index, shape (n, 8).

    Bitwise the stack of sample_haar(RngState(seed, i)) for i in range(n):
    the 16 uniforms of every index come from one vectorized pass of
    `uniforms`.  Rejects the same seeds as RngState.
    """
    return _haar_states(uniforms(seed, n, 16))


def _check_canonical_family(family):
    if family not in ("canonical-a", "canonical-b"):
        raise ValueError(f"family must be canonical-a or canonical-b, got {family!r}")


def _simplex_params(u):
    """p (..., 5) and theta (...) from five uniforms along the last axis."""
    spacings = np.diff(np.sort(u[..., :4], axis=-1), axis=-1, prepend=0.0, append=1.0)
    return np.sqrt(spacings), u[..., 4] * math.pi


class CanonicalParams(NamedTuple):
    """The five amplitudes p1..p5 and the phase theta of one canonical state."""

    p: tuple[float, float, float, float, float]
    theta: float


def sample_canonical(rng: RngState, family: str) -> CanonicalParams:
    """Random canonical parameters: (p1^2..p5^2) uniform on the 4-simplex.

    The simplex point comes from the spacings of four sorted uniforms; the
    p_i are its square roots.  theta is uniform on [0, pi).  The family
    only names the parametrization; make_canonical_a/b builds the state.
    """
    _check_canonical_family(family)
    p, theta = _simplex_params(rng.uniforms(5))
    return CanonicalParams(tuple(p.tolist()), float(theta))


def sample_canonical_batch(seed: int, n: int):
    """p (n, 5) and theta (n,) of sample_canonical(RngState(seed, i), family), i < n.

    Both canonical families draw the same parameters.  Bitwise the
    per-index samples, drawn in one pass of `uniforms`.
    """
    return _simplex_params(uniforms(seed, n, 5))


def read_state_file(path) -> np.ndarray:
    """Read a state from a JSON file of 8 [re, im] pairs, |abc> order."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or len(data) != 8:
        raise ValueError("state file must contain an array of 8 entries")
    amps = []
    for k, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"entry {k} must be a [re, im] pair")
        # JSON true and false load as bool, a subclass of int: not numbers here
        if any(type(v) not in (int, float) for v in entry):
            raise ValueError(f"entry {k} must hold two numbers")
        try:
            amps.append(complex(*entry))
        except OverflowError:  # an integer too large for a double
            raise ValueError(f"entry {k} must hold two numbers") from None
    return validate(np.array(amps, dtype=np.complex128))


def write_state_file(path, psi) -> None:
    """Write a state as the JSON array format accepted by read_state_file.

    The amplitudes are written as given, once validate accepts them.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    validate(psi)
    data = [[float(a.real), float(a.imag)] for a in psi]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
