"""Entanglement measures for pure three-qubit states and two-qubit mixed states.

Pure three-qubit states, which every report is about, need no eigensolver:
each reported quantity is a polynomial in the amplitudes divided by a
power of <psi|psi>.  Read the amplitudes of a qubit pair (X, Y) at value
k of the traced qubit Z as a two-qubit vector m_k, so that rho_XY =
sum_k m_k m_k^dag / <psi|psi>, and let

    G_kl = m_k^T (sigma_y x sigma_y) m_l      (a symmetric 2x2 matrix).

* Tr(rho_XY rho_tilde_XY) = sum_kl |G_kl|^2 / <psi|psi>^2.
* det G is minus Cayley's hyperdeterminant of the amplitude tensor, so the
  residual tangle is tau = 4 |det G| / <psi|psi>^2 (Coffman, Kundu and
  Wootters, PRA 61, 052306).  It is always taken from the G of the pair
  (A, B), which makes it the same number, bit for bit, at every pivot.
* rho_XY has rank two, so the lambda spectrum below has lambda_3 =
  lambda_4 = 0 and lambda_1 lambda_2 = tau / 4, which gives C^2_XY =
  (lambda_1 - lambda_2)^2 = Tr(rho_XY rho_tilde_XY) - tau / 2.
* C^2_X(YZ) = 2 (1 - Tr rho_X^2) comes from the one-qubit purity.

The three add up to the closure C^2_X(YZ) = C^2_XY + C^2_XZ + tau up to
roundoff, because the two pair traces Tr(rho rho_tilde) sum to C^2_X(YZ).

Two-qubit mixed states go through the Wootters concurrence.  With the
spin-flipped matrix

    rho_tilde = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)

and lambda_1 >= ... >= lambda_4 the square roots of the eigenvalues of
rho rho_tilde, the concurrence is max(lambda_1 - lambda_2 - lambda_3 -
lambda_4, 0).  Although rho rho_tilde is not Hermitian, its spectrum
equals that of the Hermitian matrix S = sqrt(rho) rho_tilde sqrt(rho), so
the eigensolves of this route (numpy's LAPACK eigh, through linalg) stay
Hermitian.
It also serves as the independent check of the pure-state route:
residual_tangle_lambda gives tau as 4 lambda_1 lambda_2 of one marginal.

All functions accept stacked inputs along leading axes.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    NORM_TOL,
    QUBIT_LABELS,
    QUBIT_POSITION,
    SPIN_FLIP_4,
    SIGMA_Y,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    partial_trace,
    partial_trace_single,
    state_tensor,
)

__all__ = [
    "spin_flip_qubit",
    "spin_flip_two_qubit",
    "lambda_spectrum",
    "concurrence_mixed",
    "concurrence_pure_2q",
    "concurrence_bipartition",
    "pure_state_invariants",
    "residual_tangle",
    "residual_tangle_lambda",
    "trace_rho_rhotilde",
    "pivot_pairs",
]

# Inputs with an eigenvalue below -PSD_TOL are rejected as not PSD.
PSD_TOL = 1e-10

# Rank-noise guard for the lambda spectrum.  Eigenvalues of S that are
# exactly zero in exact arithmetic come out as O(1e-15) rounding noise,
# whose square root is O(3e-8) and would pollute the subtraction in the
# concurrence far beyond the accuracy of everything else.  A trailing
# lambda_i is treated as zero when lambda_1 * lambda_i is below this
# floor.  The product form matters: lambda_1 lambda_2 = tau / 4 for every
# pair marginal of the same pure state, so the decision is consistent
# across pairs and pivots.  The price is that a marginal of a pure state
# within ~1e-6 of the tau = 0 manifold reads as tau = 0 here, which is
# why reports use pure_state_invariants instead.  Rank-1 inputs (pure
# two-qubit projectors) rely on the floor to come out exact.
LAMBDA_NOISE_FLOOR = 3e-7


def _as_square(rho, d, name):
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"{name} must be {d}x{d}, got shape {rho.shape}")
    return rho


def spin_flip_qubit(rho):
    """sigma_y conj(rho) sigma_y, the Bloch-vector negation of one qubit."""
    rho = _as_square(rho, 2, "rho")
    return SIGMA_Y @ np.conj(rho) @ SIGMA_Y


def spin_flip_two_qubit(rho):
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) for a 4x4 rho."""
    rho = _as_square(rho, 4, "rho")
    return SPIN_FLIP_4 @ np.conj(rho) @ SPIN_FLIP_4


def lambda_spectrum(rho):
    """Square roots of the spectrum of rho rho_tilde, descending.

    Parameters
    ----------
    rho : (..., 4, 4) array_like
        Hermitian PSD unit-trace density matrix (stacked ok).

    Returns
    -------
    (..., 4) ndarray
        lambda_1 >= lambda_2 >= lambda_3 >= lambda_4 >= 0.

    Notes
    -----
    Computed from the Hermitian proxy S = sqrt(rho) rho_tilde sqrt(rho),
    which shares the spectrum of rho rho_tilde.  Negative eigenvalue
    noise is clamped to zero before each square root, and trailing
    lambdas below the rank-noise floor (see LAMBDA_NOISE_FLOOR) are
    zeroed.
    """
    rho = _as_square(rho, 4, "rho")
    w, u = hermitian_eigensystem(rho)
    if np.min(w) < -PSD_TOL:
        raise ValueError(f"input is not PSD (eigenvalue {np.min(w):.3e})")
    sq = np.einsum("...ik,...k,...jk->...ij", u, np.sqrt(np.maximum(w, 0.0)), np.conj(u))
    s = sq @ spin_flip_two_qubit(rho) @ sq
    # symmetrize away the O(eps) products asymmetry before the eigensolve
    s = (s + np.conj(np.swapaxes(s, -1, -2))) / 2.0
    lam = np.sqrt(np.maximum(hermitian_eigenvalues(s), 0.0))
    tail = lam[..., :1] * lam[..., 1:] < LAMBDA_NOISE_FLOOR
    lam[..., 1:] = np.where(tail, 0.0, lam[..., 1:])
    return lam


def concurrence_raw(rho):
    """lambda_1 - lambda_2 - lambda_3 - lambda_4, without the final max."""
    lam = lambda_spectrum(rho)
    return lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def concurrence_mixed(rho):
    """Wootters concurrence of a two-qubit density matrix, in [0, 1]."""
    return np.clip(concurrence_raw(rho), 0.0, 1.0)


def concurrence_pure_2q(psi4):
    """Concurrence of a pure two-qubit state.

    Evaluates both closed forms, |<psi| sigma_y x sigma_y |conj(psi)>| and
    2 sqrt(det rho_A), requires their squares to agree within 1e-12, and
    returns the overlap form.  The squares are compared because near
    C = 0 the determinant cancels to roundoff and the square root would
    amplify that noise to ~1e-8.
    """
    psi4 = np.asarray(psi4, dtype=np.complex128)
    if psi4.shape[-1] != 4:
        raise ValueError(f"need 4 amplitudes, got shape {psi4.shape}")
    norm = np.sqrt(np.sum(np.abs(psi4) ** 2, axis=-1))
    if np.any(np.abs(norm - 1.0) > NORM_TOL):
        raise ValueError("state is not normalized within tolerance")
    psi4 = psi4 / norm[..., None]
    overlap = 2.0 * np.abs(psi4[..., 0] * psi4[..., 3] - psi4[..., 1] * psi4[..., 2])
    t = psi4.reshape(psi4.shape[:-1] + (2, 2))
    rho_a = np.einsum("...ik,...jk->...ij", t, np.conj(t))
    det = np.real(rho_a[..., 0, 0] * rho_a[..., 1, 1] - rho_a[..., 0, 1] * rho_a[..., 1, 0])
    if np.max(np.abs(overlap**2 - 4.0 * det)) > 1e-12:
        raise ValueError("pure-state concurrence formulas disagree beyond 1e-12")
    return np.clip(overlap, 0.0, 1.0)


def concurrence_bipartition(psi, pivot="A"):
    """C_X(YZ) = sqrt(2 (1 - Tr rho_X^2)) across the cut pivot | rest."""
    return np.clip(np.sqrt(np.maximum(bipartition_c2_raw(psi, pivot), 0.0)), 0.0, 1.0)


def bipartition_c2_raw(psi, pivot="A"):
    """2 (1 - Tr rho_X^2) without clamping, for diagnostics."""
    rho = partial_trace_single(psi, pivot)
    purity = np.real(np.einsum("...ij,...ji->...", rho, rho))
    return 2.0 * (1.0 - purity)


def pivot_pairs(pivot):
    """The two qubit pairs anchored at the pivot, partners in label order."""
    if pivot not in QUBIT_LABELS:
        raise ValueError(f"pivot must be one of {QUBIT_LABELS}, got {pivot!r}")
    rest = [lab for lab in QUBIT_LABELS if lab != pivot]
    return (pivot, rest[0]), (pivot, rest[1])


def _flip_form(t, traced):
    """(G_00, G_01, G_11) of the pair left after tracing qubit axis `traced`.

    G_kl = m_k^T (sigma_y x sigma_y) m_l, with m_k the pair amplitudes at
    value k of the traced qubit read as a 2x2 matrix; G_kk = -2 det m_k.
    The form is symmetric in the two kept qubits, so their order is moot.
    """
    a = np.moveaxis(t, t.ndim - 3 + traced, -1)
    m0, m1 = a[..., 0], a[..., 1]

    def form(u, v):
        return (u[..., 0, 1] * v[..., 1, 0] + u[..., 1, 0] * v[..., 0, 1]
                - u[..., 0, 0] * v[..., 1, 1] - u[..., 1, 1] * v[..., 0, 0])

    return form(m0, m0), form(m0, m1), form(m1, m1)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def pure_state_invariants(psi, pivot="A"):
    """Pre-clamp (C^2_XY, C^2_XZ, C^2_X(YZ), tau) of pure three-qubit states.

    X is the pivot and Y, Z its partners in label order.  tau is 4 |Det|
    (Cayley's hyperdeterminant) and C^2_XY = Tr(rho_XY rho_tilde_XY) -
    tau / 2, both divided by <psi|psi>^2; C^2_X(YZ) is 2 (1 - Tr rho_X^2).
    No value is clamped: roundoff can leave a C^2 slightly below 0.
    """
    pair1, pair2 = pivot_pairs(pivot)
    t, norm2 = state_tensor(psi)
    norm4 = norm2 * norm2
    # the pair (X, Y) traces out Z and the pair (X, Z) traces out Y
    forms = {q: _flip_form(t, QUBIT_POSITION[q]) for q in {pair1[1], pair2[1], "C"}}
    g00, g01, g11 = forms["C"]
    tau = 4.0 * np.abs(g01 * g01 - g00 * g11) / norm4

    def c2_pair(traced):
        g00, g01, g11 = forms[traced]
        return (_abs2(g00) + 2.0 * _abs2(g01) + _abs2(g11)) / norm4 - tau / 2.0

    return c2_pair(pair2[1]), c2_pair(pair1[1]), bipartition_c2_raw(psi, pivot), tau


def residual_tangle(psi, pivot="A"):
    """tau = C^2_X(YZ) - C^2_XY - C^2_XZ = 4 |Det| / <psi|psi>^2, clamped to [0, 1].

    Computed by pure_state_invariants, so it is identical at every pivot;
    the pivot is still checked.
    """
    return np.clip(pure_state_invariants(psi, pivot)[3], 0.0, 1.0)


def residual_tangle_lambda(psi, pair=("A", "B")):
    """tau via 4 lambda_1 lambda_2 of one pair marginal, clamped to [0, 1]."""
    lam = lambda_spectrum(partial_trace(psi, pair))
    return np.clip(4.0 * lam[..., 0] * lam[..., 1], 0.0, 1.0)


def trace_rho_rhotilde(rho):
    """Tr(rho rho_tilde), a real non-negative scalar."""
    rho = _as_square(rho, 4, "rho")
    return np.real(np.einsum("...ij,...ji->...", rho, spin_flip_two_qubit(rho)))
