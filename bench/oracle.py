"""Reference values computed without qmono's own eigensolver route.

Every quantity the benchmark checks is rebuilt here from amplitudes the
benchmark constructs itself:

* random streams follow numpy's documented chain
  SeedSequence(entropy=seed, spawn_key=(i,)) -> PCG64 -> Generator.random;
* Haar states are 16 uniforms per index turned into 8 complex Gaussians by
  Box-Muller on (1 - u, u), then normalized;
* canonical and Bell-product states come from their parameters and the
  paper's formulas;
* tau is 4 |Det| of Cayley's hyperdeterminant (Coffman, Kundu, Wootters,
  PRA 61, 052306), C2_XY is Tr(rho rho~) - tau/2 of the pair marginal, and
  C2_X(YZ) is 2 (1 - Tr rho_X^2).

Nothing here imports qmono, so a fault in the program cannot hide in its
own reference.
"""

from __future__ import annotations

import math

import numpy as np

PIVOTS = ("A", "B", "C")
METRICS = ("c2_ab", "c2_ac", "c2_abc", "tau", "rhs_fei", "rhs_tight", "gap_fei", "gap_tight")

# Largest |program - reference| accepted on any reported value.  Correct
# inputs agree to about 5e-14; the two known faults are off by 3e-8 (F2)
# and up to 6.5e-7 (F1).  States just above F1's floor lose accuracy as
# 1e-16 / tau in the eigenvalue route, about 2e-10 at tau = 1.2e-6, so the
# bound sits between that and the faults.
VALUE_TOL = 1e-9
# Identities that hold exactly in the algebra: only roundoff is allowed.
IDENTITY_TOL = 1e-12
# qmono's default saturation tolerance on the tight gap (its --tol).
SATURATION_TOL = 1e-9


def uniforms(seed: int, index: int, k: int) -> np.ndarray:
    """k doubles on [0, 1) from stream `index` of `seed`."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(seq)).random(k)


def stream_uniforms(seed: int, n: int, k: int) -> np.ndarray:
    """Uniforms of streams 0..n-1, shape (n, k)."""
    return np.stack([uniforms(seed, i, k) for i in range(n)]) if n else np.empty((0, k))


def haar_states(seed: int, n: int) -> np.ndarray:
    """The n Haar states of a seed, one stream per index, shape (n, 8)."""
    u = stream_uniforms(seed, n, 16)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    phase = 2.0 * np.pi * u[:, 1::2]
    psi = r * np.cos(phase) + 1j * (r * np.sin(phase))
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1))[:, None]


def canonical_params(seed: int, n: int):
    """(p, theta) of n canonical samples: p_i^2 uniform on the 4-simplex."""
    u = stream_uniforms(seed, n, 5)
    cuts = np.sort(u[:, :4], axis=1)
    edges = np.concatenate([np.zeros((n, 1)), cuts, np.ones((n, 1))], axis=1)
    return np.sqrt(np.diff(edges, axis=1)), u[:, 4] * math.pi


def bell_product_p1(seed: int, n: int) -> np.ndarray:
    """The p1 of n Bell-product samples: one uniform per stream."""
    return stream_uniforms(seed, n, 1)[:, 0]


# |abc> basis index is 4a + 2b + c.
_CANONICAL_SUPPORT = {"canonical-a": (0, 1, 4, 6, 7), "canonical-b": (0, 1, 2, 4, 7)}


def canonical_states(family: str, p, theta) -> np.ndarray:
    """p1 e^(i theta)|s0> + p2|s1> + ... + p5|s4> on the family's support."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    theta = np.broadcast_to(np.asarray(theta, dtype=np.float64), p.shape[:1])
    psi = np.zeros((len(p), 8), dtype=np.complex128)
    support = _CANONICAL_SUPPORT[family]
    psi[:, support[0]] = p[:, 0] * np.exp(1j * theta)
    for k, idx in enumerate(support[1:], start=1):
        psi[:, idx] = p[:, k]
    return psi


def bell_product_states(p1, p2=None) -> np.ndarray:
    """sqrt(p1) (|010> - |100>)/sqrt(2) + sqrt(p2) |001>, p2 = 1 - p1 by default."""
    p1 = np.atleast_1d(np.asarray(p1, dtype=np.float64))
    p2 = 1.0 - p1 if p2 is None else np.atleast_1d(np.asarray(p2, dtype=np.float64))
    psi = np.zeros((len(p1), 8), dtype=np.complex128)
    psi[:, 2] = np.sqrt(p1 / 2.0)
    psi[:, 4] = -np.sqrt(p1 / 2.0)
    psi[:, 1] = np.sqrt(p2)
    return psi


def ghz_state() -> np.ndarray:
    psi = np.zeros(8, dtype=np.complex128)
    psi[[0, 7]] = 1.0 / math.sqrt(2.0)
    return psi


def w_state() -> np.ndarray:
    psi = np.zeros(8, dtype=np.complex128)
    psi[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    return psi


def hyperdeterminant_tangle(psi) -> np.ndarray:
    """tau = 4 |Det(a)| with Cayley's hyperdeterminant of the amplitudes."""
    a = np.asarray(psi, dtype=np.complex128).reshape(-1, 8)
    a000, a001, a010, a011, a100, a101, a110, a111 = a.T
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
          + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
          + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001)
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


def _ordered(psi, first, second):
    """Amplitude tensor with axes (first, second, traced) qubit."""
    t = np.asarray(psi, dtype=np.complex128).reshape(-1, 2, 2, 2)
    x, y = PIVOTS.index(first), PIVOTS.index(second)
    z = 3 - x - y
    return np.transpose(t, (0, 1 + x, 1 + y, 1 + z))


def trace_rho_rhotilde(psi, first, second) -> np.ndarray:
    """Tr(rho rho~) of a pair marginal, from the spin-flip bilinear form.

    With m_k the pair amplitudes at traced-qubit value k and
    B(m, m') = m^T (sigma_y x sigma_y) m', Tr(rho rho~) = sum_kl |B(m_k, m_l)|^2.
    """
    t = _ordered(psi, first, second).reshape(-1, 4, 2)
    m0, m1 = t[:, :, 0], t[:, :, 1]

    def b(m, mp):
        return m[:, 1] * mp[:, 2] + m[:, 2] * mp[:, 1] - m[:, 0] * mp[:, 3] - m[:, 3] * mp[:, 0]

    return np.abs(b(m0, m0)) ** 2 + 2.0 * np.abs(b(m0, m1)) ** 2 + np.abs(b(m1, m1)) ** 2


def one_to_rest(psi, pivot) -> np.ndarray:
    """C2_X(YZ) = 2 (1 - Tr rho_X^2)."""
    rest = [q for q in PIVOTS if q != pivot]
    m = _ordered(psi, pivot, rest[0]).reshape(-1, 2, 4)
    rho = np.einsum("nik,njk->nij", m, np.conj(m))
    return 2.0 * (1.0 - np.sum(np.abs(rho) ** 2, axis=(1, 2)))


def monogamy_values(psi, pivot="A") -> dict:
    """Every reported quantity for a stack of states at one pivot.

    *_ab is the pair (pivot, first partner in label order), *_ac the
    second, as in qmono's reports.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1, 8)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1))[:, None]
    partner1, partner2 = [q for q in PIVOTS if q != pivot]
    tau = np.clip(hyperdeterminant_tangle(psi), 0.0, 1.0)
    c2_ab = np.clip(trace_rho_rhotilde(psi, pivot, partner1) - tau / 2.0, 0.0, 1.0)
    c2_ac = np.clip(trace_rho_rhotilde(psi, pivot, partner2) - tau / 2.0, 0.0, 1.0)
    c2_abc = np.clip(one_to_rest(psi, pivot), 0.0, 1.0)
    rhs_fei = 2.0 * np.sqrt(c2_ab * c2_ac + tau**2 / 4.0)
    rhs_tight = 2.0 * np.sqrt((c2_ab + tau / 2.0) * (c2_ac + tau / 2.0))
    return {
        "c2_ab": c2_ab, "c2_ac": c2_ac, "c2_abc": c2_abc, "tau": tau,
        "rhs_fei": rhs_fei, "rhs_tight": rhs_tight,
        "gap_fei": c2_abc - rhs_fei, "gap_tight": c2_abc - rhs_tight,
    }


def classify(gap_tight, tol=SATURATION_TOL):
    """saturated / violated / strict label of each tight gap."""
    gap = np.asarray(gap_tight, dtype=np.float64)
    return np.where(np.abs(gap) <= tol, "saturated", np.where(gap < -tol, "violated", "strict"))


def canonical_candidates(family: str, p, theta) -> dict:
    """The closed forms `qmono discrepancy` audits, restated from the paper.

    Keys are the audit's formula names minus the theta = 0 slice suffix.
    """
    p = np.asarray(p, dtype=np.float64)
    p1, p2, p3, p4, p5 = p.T
    if family == "canonical-a":
        ct = np.cos(np.asarray(theta, dtype=np.float64))
        core = p2**2 * p4**2 + p1**2 * p5**2 - 2.0 * p1 * p2 * p4 * p5 * ct
        return {
            "c2_ab": 4.0 * (p2**2 * p5**2 + p1**2 * p4**2 * ct**2 + 2.0 * p1 * p2 * p4 * p5 * ct),
            "c2_ac": 4.0 * p2**2 * p3**2,
            "c2_abc": 4.0 * (p1**4 - p2**2 + p2**4 + p1**2 * (1.0 - 2.0 * p2**2 - p3**2)),
            "c2_abc (sign-adjusted variant)":
                4.0 * (-(p1**4) + p2**2 - p2**4 + p1**2 * (1.0 - 2.0 * p2**2 - p3**2)),
            "tau": 4.0 * core**2,
            "tau (outer square removed)": 4.0 * core,
        }
    core = 4.0 * p2 * p3 * p4 + p1**2 * p5
    return {
        "c2_ab": 4.0 * (p3 * p4 - p2 * p5) ** 2,
        "c2_ac": 4.0 * (p2 * p4 - p3 * p5) ** 2,
        "c2_abc": -4.0 * (p4**2 - p5**2 + p5**4 + p4**2 * (-1.0 + p1**2 + 2.0 * p5**2)),
        "c2_abc (exponent-adjusted variant)":
            -4.0 * (p4**4 - p5**2 + p5**4 + p4**2 * (-1.0 + p1**2 + 2.0 * p5**2)),
        "tau": 4.0 * p5**2 * core**2,
        "tau (outer square removed)": 4.0 * p5 * core,
    }


# Formulas the audit also evaluates on the theta = 0 slice, and the
# truth column each one is compared with.
_SLICED = ("c2_ab", "c2_ac", "tau (outer square removed)")
_TRUTH_KEY = {"c2_abc (sign-adjusted variant)": "c2_abc",
              "c2_abc (exponent-adjusted variant)": "c2_abc",
              "tau (outer square removed)": "tau"}


def discrepancy_devs(family: str, seed: int, n: int) -> dict:
    """Reference max |candidate - truth| for every row of the audit."""
    p, theta = canonical_params(seed, n)
    truth = monogamy_values(canonical_states(family, p, theta), "A")
    truth0 = monogamy_values(canonical_states(family, p, 0.0), "A")
    cand = canonical_candidates(family, p, theta)
    cand0 = canonical_candidates(family, p, np.zeros(n))
    devs = {}
    for name, values in cand.items():
        key = _TRUTH_KEY.get(name, name)
        devs[name] = float(np.max(np.abs(values - truth[key])))
        if name in _SLICED:
            slice_name = (f"{name} (theta=0 slice)" if "(" not in name
                          else f"{name[:-1]}, theta=0 slice)")
            devs[slice_name] = float(np.max(np.abs(cand0[name] - truth0[key])))
    return devs
