"""Entanglement measures for pure three-qubit states and two-qubit mixed states.

Pure three-qubit states, which every report is about, need no eigensolver:
each reported quantity is a polynomial in the amplitudes divided by a
power of <psi|psi>.  Read the amplitudes of a qubit pair (X, Y) at value
k of the traced qubit Z as a two-qubit vector m_k, so that rho_XY =
sum_k m_k m_k^dag / <psi|psi>, and let

    G_kl = m_k^T (sigma_y x sigma_y) m_l      (a symmetric 2x2 matrix).

The eight amplitudes of m_0 and m_1 are views of the flat state, read
through a basis-index table built at import (_PAIR_INDEX: for each traced
qubit, the indices of the amplitude tensor with that axis moved last), so
one state costs a handful of numpy calls per traced qubit.

* T_XY = Tr(rho_XY rho_tilde_XY) = sum_kl |G_kl|^2 / <psi|psi>^2, a sum of
  squared moduli, so never negative.
* det G is minus Cayley's hyperdeterminant of the amplitude tensor, so the
  residual tangle is tau = 4 |det G| / <psi|psi>^2 (Coffman, Kundu and
  Wootters, PRA 61, 052306).  It is always taken from the G of the pair
  (A, B), which makes it the same number, bit for bit, at every pivot.
* rho_XY has rank two, so the lambda spectrum below has lambda_3 =
  lambda_4 = 0 and lambda_1 lambda_2 = tau / 4, which gives C^2_XY =
  (lambda_1 - lambda_2)^2 = T_XY - tau / 2.
* The two pair traces of a pivot X add up to the one-to-rest concurrence,
  C^2_X(YZ) = T_XY + T_XZ (the CKW closure).

Reports are built from (T_XY, T_XZ, tau) alone, so the closure C^2_X(YZ)
= C^2_XY + C^2_XZ + tau holds by construction.  The one-qubit purity,
C^2_X(YZ) = 2 (1 - Tr rho_X^2), is kept as concurrence_bipartition: an
independent route that no report uses.

Two-qubit mixed states go through the Wootters concurrence.  With the
spin-flipped matrix

    rho_tilde = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)

and lambda_1 >= ... >= lambda_4 the square roots of the eigenvalues of
rho rho_tilde, the concurrence is max(lambda_1 - lambda_2 - lambda_3 -
lambda_4, 0).  Following Wootters' construction, write rho = X X^dag;
the lambdas are then the singular values of the symmetric matrix
X^T (sigma_y x sigma_y) X, and no square root of the noisy spectrum of
rho rho_tilde is taken.  The one eigensolve of this route is numpy's LAPACK eigh of rho
(through linalg).
It also serves as the independent check of the pure-state route:
residual_tangle_lambda gives tau as 4 lambda_1 lambda_2 of one marginal.

All functions accept stacked inputs along leading axes.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    QUBIT_LABELS,
    QUBIT_POSITION,
    SPIN_FLIP_4,
    checked_norm2,
    hermitian_eigensystem,
    partial_trace,
)

__all__ = [
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

# _PAIR_INDEX[q]: the basis indices of the amplitudes (m_k)_ij, traced qubit
# q at k and the kept qubits at i, j in label order, listed in (i, j, k) order.
_PAIR_INDEX = tuple(tuple(np.moveaxis(np.arange(8).reshape(2, 2, 2), q, -1).ravel().tolist())
                    for q in range(3))

# Eigenvalues of rho at or below RANK_CUT * w_max are roundoff of rho
# itself and are dropped from its factor X: a cut relative to rho's own
# scale, as numpy's matrix_rank makes it, not an absolute floor.
RANK_CUT = 16.0 * np.finfo(np.float64).eps


def _as_square(rho, d, name):
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"{name} must be {d}x{d}, got shape {rho.shape}")
    return rho


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
    Wootters' construction: with rho = X X^dag and X = U sqrt(w) from the
    eigensystem (w, U) of rho, the eigenvalues of rho rho_tilde are those
    of M^dag M for the symmetric M = X^T (sigma_y x sigma_y) X, so the
    lambdas are the singular values of M.  Eigenvalues w <= RANK_CUT *
    w_max are dropped from X; nothing is zeroed after the singular value
    decomposition.
    """
    rho = _as_square(rho, 4, "rho")
    w, u = hermitian_eigensystem(rho)
    if np.min(w) < -PSD_TOL:
        raise ValueError(f"input is not PSD (eigenvalue {np.min(w):.3e})")
    w = np.where(w > RANK_CUT * w[..., :1], w, 0.0)
    x = u * np.sqrt(w)[..., None, :]
    return np.linalg.svd(np.swapaxes(x, -1, -2) @ SPIN_FLIP_4 @ x, compute_uv=False)


def concurrence_mixed(rho):
    """Wootters concurrence of a two-qubit density matrix, in [0, 1]."""
    lam = lambda_spectrum(rho)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def concurrence_pure_2q(psi4):
    """Concurrence of a pure two-qubit state, |<psi| sigma_y x sigma_y |conj(psi)>|."""
    psi4 = np.asarray(psi4, dtype=np.complex128)
    psi4 = psi4 / np.sqrt(checked_norm2(psi4, size=4))[..., None]
    overlap = 2.0 * np.abs(psi4[..., 0] * psi4[..., 3] - psi4[..., 1] * psi4[..., 2])
    return np.clip(overlap, 0.0, 1.0)


def concurrence_bipartition(psi, pivot="A"):
    """C_X(YZ) = sqrt(2 (1 - Tr rho_X^2)) across the cut pivot | rest."""
    return np.clip(np.sqrt(np.maximum(bipartition_c2_raw(psi, pivot), 0.0)), 0.0, 1.0)


def bipartition_c2_raw(psi, pivot="A"):
    """2 (1 - Tr rho_X^2) without clamping, for diagnostics."""
    rho = partial_trace(psi, (pivot,))  # (pivot,): "AB" is a bad pivot, not a pair
    purity = np.real(np.einsum("...ij,...ji->...", rho, rho))
    return 2.0 * (1.0 - purity)


def pivot_pairs(pivot):
    """The two qubit pairs anchored at the pivot, partners in label order."""
    if pivot not in QUBIT_LABELS:
        raise ValueError(f"pivot must be one of {QUBIT_LABELS}, got {pivot!r}")
    rest = [lab for lab in QUBIT_LABELS if lab != pivot]
    return (pivot, rest[0]), (pivot, rest[1])


def _flip_form(psi, traced):
    """(G_00, G_01, G_11) of the pair left after tracing qubit `traced`.

    G_kl = m_k^T (sigma_y x sigma_y) m_l, with m_k the pair amplitudes at
    value k of the traced qubit read as a 2x2 matrix; G_kk = -2 det m_k.
    The form is symmetric in the two kept qubits, so their order is moot.
    u_ij = (m_0)_ij and v_ij = (m_1)_ij are views of the flat states psi
    (..., 8), taken through _PAIR_INDEX.
    """
    u00, v00, u01, v01, u10, v10, u11, v11 = (psi[..., k] for k in _PAIR_INDEX[traced])
    return (u01 * u10 + u10 * u01 - u00 * u11 - u11 * u00,
            u01 * v10 + u10 * v01 - u00 * v11 - u11 * v00,
            v01 * v10 + v10 * v01 - v00 * v11 - v11 * v00)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def pure_state_invariants(psi, pivot="A"):
    """(T_XY, T_XZ, tau) of pure three-qubit states, every report column's source.

    X is the pivot and Y, Z its partners in label order.  T_XY =
    Tr(rho_XY rho_tilde_XY) is a sum of squared moduli and tau = 4 |Det|
    (Cayley's hyperdeterminant), both divided by <psi|psi>^2, so none of
    the three is negative.  Then C^2_XY = T_XY - tau / 2 and C^2_X(YZ) =
    T_XY + T_XZ.
    """
    pair1, pair2 = pivot_pairs(pivot)
    psi = np.asarray(psi, dtype=np.complex128)
    norm2 = checked_norm2(psi)
    norm4 = norm2 * norm2
    # the pair (X, Y) traces out Z and the pair (X, Z) traces out Y
    forms = {q: _flip_form(psi, QUBIT_POSITION[q]) for q in {pair1[1], pair2[1], "C"}}
    g00, g01, g11 = forms["C"]
    tau = 4.0 * np.abs(g01 * g01 - g00 * g11) / norm4

    def pair_trace(traced):
        g00, g01, g11 = forms[traced]
        return (_abs2(g00) + 2.0 * _abs2(g01) + _abs2(g11)) / norm4

    return pair_trace(pair2[1]), pair_trace(pair1[1]), tau


def residual_tangle(psi, pivot="A"):
    """tau = C^2_X(YZ) - C^2_XY - C^2_XZ = 4 |Det| / <psi|psi>^2, clamped to [0, 1].

    Computed by pure_state_invariants, so it is identical at every pivot;
    the pivot is still checked.
    """
    return np.clip(pure_state_invariants(psi, pivot)[2], 0.0, 1.0)


def residual_tangle_lambda(psi, pair=("A", "B")):
    """tau via 4 lambda_1 lambda_2 of one pair marginal, clamped to [0, 1]."""
    lam = lambda_spectrum(partial_trace(psi, pair))
    return np.clip(4.0 * lam[..., 0] * lam[..., 1], 0.0, 1.0)


def trace_rho_rhotilde(rho):
    """Tr(rho rho_tilde), a real non-negative scalar."""
    rho = _as_square(rho, 4, "rho")
    return np.real(np.einsum("...ij,...ji->...", rho, spin_flip_two_qubit(rho)))
