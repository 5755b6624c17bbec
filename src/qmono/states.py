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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import NORM_TOL

__all__ = [
    "FAMILIES",
    "RngState",
    "StateFamilySpec",
    "make_ghz",
    "make_w",
    "make_bell_product",
    "make_canonical_a",
    "make_canonical_b",
    "sample_haar",
    "sample_haar_batch",
    "sample_canonical",
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
    """The seed as an int, rejected unless it fits in an unsigned 64-bit integer."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def _box_muller(u):
    """Box-Muller on uniforms paired along the last axis: (r cos, r sin).

    Even positions give the radius and odd ones the angle of each pair.
    """
    # 1 - u maps the uniform support [0, 1) onto (0, 1] so log() is safe
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    return r * np.cos(angle), r * np.sin(angle)


class RngState:
    """Deterministic PCG64 stream addressed by (seed, stream index).

    Distinct stream indices give statistically independent substreams of
    the same 64-bit seed, so ensemble element i can be generated in
    isolation and in any order.  Gaussians are produced by Box-Muller from
    the uniform stream; only `random()` of the underlying generator is
    consumed, which keeps the draw sequence easy to reproduce elsewhere.
    """

    def __init__(self, seed: int, index: int | None = None):
        self.seed = _check_seed(seed)
        self.index = index
        key = () if index is None else (int(index),)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def stream(self, index: int) -> "RngState":
        """Independent substream for ensemble element `index`."""
        return RngState(self.seed, index)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return self._gen.random(int(n))

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller, two uniforms per pair."""
        pairs = (int(n) + 1) // 2
        g0, g1 = _box_muller(self._gen.random(2 * pairs))
        out = np.empty(2 * pairs)
        out[0::2] = g0
        out[1::2] = g1
        return out[: int(n)]


def validate(psi) -> np.ndarray:
    """Check shape, finiteness, and norm; return an exactly normalized copy."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (8,):
        raise ValueError(f"state must be 8 amplitudes, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state contains non-finite amplitudes")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {norm!r} outside accepted window")
    return psi / norm


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


def make_bell_product(p1: float) -> np.ndarray:
    """sqrt(p1) |Psi^-> |0> + sqrt(p2) |00> |1> with p2 = 1 - p1.

    |Psi^-> = (|01> - |10>)/sqrt(2) lives on qubits A and B.
    """
    p1 = float(p1)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1!r}")
    psi = np.zeros(8, dtype=np.complex128)
    half = math.sqrt(p1 / 2.0)
    psi[2] = half
    psi[4] = -half
    psi[1] = math.sqrt(1.0 - p1)
    return psi


def _check_canonical_params(p, theta):
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (5,):
        raise ValueError(f"need 5 canonical parameters, got shape {p.shape}")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("canonical parameters must be finite and non-negative")
    s = float(np.sum(p * p))
    if abs(s - 1.0) > PARAM_NORM_TOL:
        raise ValueError(f"sum of squared parameters is {s!r}, must be 1")
    theta = float(theta)
    if not 0.0 <= theta < math.pi:
        raise ValueError(f"theta must lie in [0, pi), got {theta!r}")
    return p, theta


def _canonical(indices, p, theta):
    p, theta = _check_canonical_params(p, theta)
    psi = np.zeros(8, dtype=np.complex128)
    psi[indices[0]] = p[0] * complex(math.cos(theta), math.sin(theta))
    for idx, amp in zip(indices[1:], p[1:]):
        psi[idx] = amp
    return psi


def make_canonical_a(p, theta: float = 0.0) -> np.ndarray:
    """p1 e^(i theta)|000> + p2|001> + p3|100> + p4|110> + p5|111>."""
    return _canonical(_CANONICAL_A_INDICES, p, theta)


def make_canonical_b(p, theta: float = 0.0) -> np.ndarray:
    """p1 e^(i theta)|000> + p2|001> + p3|010> + p4|100> + p5|111>."""
    return _canonical(_CANONICAL_B_INDICES, p, theta)


def sample_haar(rng: RngState) -> np.ndarray:
    """One state from the unitarily invariant distribution.

    Eight independent standard complex Gaussian amplitudes, normalized.
    """
    g = rng.gaussians(16)
    psi = g[0::2] + 1j * g[1::2]
    # same reduction as the batched sampler so both agree bitwise
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1))


def sample_haar_batch(seed: int, n: int) -> np.ndarray:
    """n Haar samples, one independent stream per index, shape (n, 8).

    Equivalent to stacking sample_haar(RngState(seed, i)) for i in range(n)
    but drawn in one vectorized pass; rejects the same seeds as RngState.
    """
    seed = _check_seed(seed)
    n = int(n)
    gens = [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,)))) for i in range(n)]
    g0, g1 = _box_muller(np.stack([g.random(16) for g in gens]))
    psi = g0 + 1j * g1
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1))[:, None]


def sample_canonical(rng: RngState, family: str) -> "StateFamilySpec":
    """Random canonical parameters: (p1^2..p5^2) uniform on the 4-simplex.

    The simplex point comes from the spacings of four sorted uniforms; the
    p_i are its square roots.  theta is uniform on [0, pi).
    """
    if family not in ("canonical-a", "canonical-b"):
        raise ValueError(f"family must be canonical-a or canonical-b, got {family!r}")
    u = rng.uniforms(5)
    cuts = np.sort(u[:4])
    spacings = np.diff(np.concatenate(([0.0], cuts, [1.0])))
    p = tuple(float(x) for x in np.sqrt(spacings))
    theta = float(u[4] * math.pi)
    return StateFamilySpec(family=family, p=p, theta=theta)


@dataclass(frozen=True)
class StateFamilySpec:
    """Tagged parametrization of one state from a named family."""

    family: str
    p1: float | None = None
    p: tuple[float, float, float, float, float] | None = None
    theta: float = 0.0
    seed: int | None = None
    index: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "bell-product" and self.p1 is None:
            raise ValueError("bell-product requires p1")
        if self.family in ("canonical-a", "canonical-b") and self.p is None:
            raise ValueError(f"{self.family} requires the five parameters p")
        if self.family == "haar" and self.seed is None:
            raise ValueError("haar requires a seed")

    def build(self) -> np.ndarray:
        """Construct the state vector this spec describes."""
        if self.family == "ghz":
            return make_ghz()
        if self.family == "w":
            return make_w()
        if self.family == "bell-product":
            return make_bell_product(self.p1)
        if self.family == "canonical-a":
            return make_canonical_a(self.p, self.theta)
        if self.family == "canonical-b":
            return make_canonical_b(self.p, self.theta)
        return sample_haar(RngState(self.seed, self.index))


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
        re, im = entry
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise ValueError(f"entry {k} must hold two numbers")
        amps.append(complex(re, im))
    return validate(np.array(amps, dtype=np.complex128))


def write_state_file(path, psi) -> None:
    """Write a state as the JSON array format accepted by read_state_file."""
    psi = np.asarray(psi, dtype=np.complex128)
    data = [[float(a.real), float(a.imag)] for a in psi]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
