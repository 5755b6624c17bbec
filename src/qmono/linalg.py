"""Dense complex linear algebra for qubit-sized problems (dims 2, 4, 8).

Everything here accepts stacked inputs: a matrix of shape (..., d, d) or
a state of shape (..., d), d = 8 for three qubits and 4 for two, is
processed along the leading axes in one vectorized pass.  The Hermitian
eigensolve is numpy's LAPACK eigh, behind shape, finiteness and
Hermiticity checks; a solver that fails to converge raises
numpy.linalg.LinAlgError, a ValueError.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QUBIT_POSITION",
    "QUBIT_LABELS",
    "SIGMA_Y",
    "SPIN_FLIP_4",
    "checked_norm2",
    "partial_trace",
    "hermitian_eigensystem",
]

# Basis convention: |abc> has index 4a + 2b + c, qubit A most significant.
QUBIT_LABELS = ("A", "B", "C")
QUBIT_POSITION = {"A": 0, "B": 1, "C": 2}

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SPIN_FLIP_4 = np.kron(SIGMA_Y, SIGMA_Y)

# Hermiticity acceptance threshold (max entrywise |m - m^dag|).
HERMITIAN_TOL = 1e-10
# Norm window: every state entry point requires |norm(psi) - 1| <= NORM_TOL (checked_norm2).
NORM_TOL = 1e-6


def _as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] not in (2, 4, 8):
        raise ValueError(f"{name} dimension must be 2, 4 or 8, got {a.shape[-1]}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def checked_norm2(psi, size=8):
    """<psi|psi> of a state stack, after the one check every state entry point makes.

    Rejects a last axis other than `size`, non-finite amplitudes and norms
    outside the NORM_TOL window.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape[-1:] != (size,):
        raise ValueError(f"state must have {size} amplitudes, got shape {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("state contains non-finite amplitudes")
    with np.errstate(over="ignore"):  # an inf norm fails the window below
        norm2 = (np.abs(psi) ** 2).sum(axis=-1)
    norm = np.sqrt(norm2)
    bad = np.abs(norm - 1.0) > NORM_TOL
    if bad.any():
        raise ValueError(f"state is not normalized within tolerance: norm {float(norm[bad][0])!r}")
    return norm2


def _resolve(labels):
    try:
        return tuple(QUBIT_POSITION[lab] for lab in labels)
    except (KeyError, TypeError):
        raise ValueError(f"qubit labels must be drawn from {QUBIT_LABELS!r}, got {labels!r}") from None


def partial_trace(psi, keep=("A", "B")):
    """Reduced density matrix of the kept qubits of a pure state (stacked ok).

    `keep` names one qubit, as "A" or ("A",), for a 2x2 matrix, or two
    distinct qubits, as ("A", "B"), for a 4x4 matrix whose first label is
    the more significant bit of the pair basis.  The result is divided by
    <psi|psi> so its trace is exactly 1 for any accepted input.
    """
    pos = _resolve(tuple(keep))
    if len(pos) not in (1, 2) or len(set(pos)) != len(pos):
        raise ValueError(f"keep must name one or two distinct qubits, got {keep!r}")
    norm2 = checked_norm2(psi)
    t = np.asarray(psi, dtype=np.complex128).reshape(norm2.shape + (2, 2, 2))
    nb = t.ndim - 3
    rest = tuple(i for i in range(3) if i not in pos)
    order = tuple(range(nb)) + tuple(nb + i for i in pos + rest)
    d = 2 ** len(pos)
    m = np.transpose(t, order).reshape(t.shape[:-3] + (d, 8 // d))
    rho = np.einsum("...ik,...jk->...ij", m, np.conj(m))
    return rho / norm2[..., None, None]


def _check_hermitian(a, name):
    dev = np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2))))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian (max |m - m^dag| = {dev:.3e})")


def hermitian_eigensystem(m):
    """Eigenvalues (descending) and a unitary of matching eigenvectors.

    Column k of the returned vectors is the eigenvector of eigenvalue k.
    """
    a = _as_matrix(m)
    _check_hermitian(a, "matrix")
    w, v = np.linalg.eigh(a)
    return w[..., ::-1], v[..., ::-1]
