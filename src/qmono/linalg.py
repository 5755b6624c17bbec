"""Dense complex linear algebra for qubit-sized problems (dims 2, 4, 8).

Everything here accepts stacked inputs: a matrix argument of shape
(..., d, d) or a state vector of shape (..., 8) is processed along the
leading axes in one vectorized pass.  The Hermitian eigensolves are
numpy's LAPACK drivers (eigh/eigvalsh), behind shape, finiteness and
Hermiticity checks; a solver that fails to converge raises
numpy.linalg.LinAlgError, a ValueError.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QUBIT_POSITION",
    "QUBIT_LABELS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SPIN_FLIP_2",
    "SPIN_FLIP_4",
    "state_tensor",
    "partial_trace",
    "partial_trace_single",
    "hermitian_eigenvalues",
    "hermitian_eigensystem",
]

# Basis convention: |abc> has index 4a + 2b + c, qubit A most significant.
QUBIT_LABELS = ("A", "B", "C")
QUBIT_POSITION = {"A": 0, "B": 1, "C": 2}

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
SPIN_FLIP_2 = SIGMA_Y
SPIN_FLIP_4 = np.kron(SIGMA_Y, SIGMA_Y)

# Hermiticity acceptance threshold (max entrywise |m - m^dag|).
HERMITIAN_TOL = 1e-10
# Norm window: every state entry point requires |norm(psi) - 1| <= NORM_TOL.
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


def state_tensor(psi):
    """Validated (..., 2, 2, 2) amplitude tensor of a state stack and <psi|psi>.

    Rejects a last axis other than 8, non-finite amplitudes and norms
    outside the NORM_TOL window.  Axis k of the tensor is qubit k.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape[-1] != 8:
        raise ValueError(f"state must have 8 amplitudes, got {psi.shape[-1]}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state contains non-finite amplitudes")
    norm2 = np.sum(np.abs(psi) ** 2, axis=-1)
    if np.any(np.abs(np.sqrt(norm2) - 1.0) > NORM_TOL):
        raise ValueError("state is not normalized within tolerance")
    return psi.reshape(psi.shape[:-1] + (2, 2, 2)), norm2


def _resolve(labels):
    try:
        return tuple(QUBIT_POSITION[lab] for lab in labels)
    except (KeyError, TypeError):
        raise ValueError(f"qubit labels must be drawn from {QUBIT_LABELS!r}, got {labels!r}") from None


def partial_trace(psi, keep=("A", "B")):
    """Reduced 4x4 density matrix of the kept qubit pair of a pure state.

    The first kept label is the more significant bit of the pair basis.
    The result is divided by <psi|psi> so its trace is exactly 1 for any
    accepted input.
    """
    keep = tuple(keep)
    if len(keep) != 2 or keep[0] == keep[1]:
        raise ValueError(f"keep must name two distinct qubits, got {keep!r}")
    t, norm2 = state_tensor(psi)
    pos = _resolve(keep)
    drop = next(i for i in range(3) if i not in pos)
    nb = t.ndim - 3
    order = tuple(range(nb)) + tuple(nb + i for i in (*pos, drop))
    m = np.transpose(t, order).reshape(t.shape[:-3] + (4, 2))
    rho = np.einsum("...ik,...jk->...ij", m, np.conj(m))
    return rho / norm2[..., None, None]


def partial_trace_single(psi, keep="A"):
    """Reduced 2x2 density matrix of one kept qubit of a pure state."""
    t, norm2 = state_tensor(psi)
    (pos,) = _resolve((keep,))
    rest = [i for i in range(3) if i != pos]
    nb = t.ndim - 3
    order = tuple(range(nb)) + (nb + pos, nb + rest[0], nb + rest[1])
    m = np.transpose(t, order).reshape(t.shape[:-3] + (2, 4))
    rho = np.einsum("...ik,...jk->...ij", m, np.conj(m))
    return rho / norm2[..., None, None]


def _check_hermitian(a, name):
    dev = np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2))))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian (max |m - m^dag| = {dev:.3e})")


def hermitian_eigenvalues(m):
    """Eigenvalues of a Hermitian matrix, descending, shape (..., d)."""
    a = _as_matrix(m)
    _check_hermitian(a, "matrix")
    return np.linalg.eigvalsh(a)[..., ::-1]


def hermitian_eigensystem(m):
    """Eigenvalues (descending) and a unitary of matching eigenvectors.

    Column k of the returned vectors is the eigenvector of eigenvalue k.
    """
    a = _as_matrix(m)
    _check_hermitian(a, "matrix")
    w, v = np.linalg.eigh(a)
    return w[..., ::-1], v[..., ::-1]
