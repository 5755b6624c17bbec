"""Dense complex linear algebra for qubit-sized problems (dims 2, 4, 8).

Everything here accepts stacked inputs: a matrix argument of shape
(..., d, d) or a state vector of shape (..., 8) is processed along the
leading axes in one vectorized pass.  The eigensolver is a cyclic Jacobi
iteration specialized to complex Hermitian matrices, which is accurate and
dependency-free at these dimensions.
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
    "matmul",
    "conjugate",
    "adjoint",
    "trace",
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
# Norm window accepted by the partial traces.
NORM_TOL = 1e-6

_JACOBI_SWEEP_CAP = 100
_JACOBI_TOL = 1e-14


def _as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] not in (2, 4, 8):
        raise ValueError(f"{name} dimension must be 2, 4 or 8, got {a.shape[-1]}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def matmul(a, b):
    """Matrix product of two equally sized square matrices (stacked ok)."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return a @ b


def conjugate(m):
    """Entrywise complex conjugate."""
    return np.conj(np.asarray(m, dtype=np.complex128))


def adjoint(m):
    """Conjugate transpose (of the last two axes)."""
    m = _as_matrix(m)
    return np.conj(np.swapaxes(m, -1, -2))


def trace(m):
    """Sum of the diagonal (complex scalar, or stack thereof)."""
    m = _as_matrix(m)
    return np.trace(m, axis1=-2, axis2=-1)


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


def _jacobi(a, want_vectors):
    """Cyclic complex Jacobi on a stack of Hermitian matrices.

    Destroys `a`.  Returns (eigenvalues descending, vectors or None); the
    k-th column of the vectors matches the k-th eigenvalue.
    """
    d = a.shape[-1]
    v = None
    if want_vectors:
        v = np.zeros_like(a)
        v[...] = np.eye(d)
    for _ in range(_JACOBI_SWEEP_CAP):
        off = np.abs(a) ** 2
        off[..., range(d), range(d)] = 0.0
        if np.sqrt(np.max(np.sum(off, axis=(-2, -1)))) < _JACOBI_TOL * d:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                z = a[..., p, q].copy()
                az = np.abs(z)
                live = az > 0.0
                # indexed diagonals are views into `a`; copy before mutating
                app = a[..., p, p].real.copy()
                aqq = a[..., q, q].real.copy()
                beta = np.angle(np.where(live, z, 1.0))
                # overflow from a denormal |z| flows to the correct t = 0 limit
                with np.errstate(over="ignore"):
                    th = (aqq - app) / np.where(live, 2.0 * az, 1.0)
                    t = np.sign(th) / (np.abs(th) + np.sqrt(1.0 + th * th))
                t = np.where(th == 0.0, 1.0, t)
                t = np.where(live, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                e = np.exp(1j * beta)
                se = (s * e)[..., None]
                sec = (s * np.conj(e))[..., None]
                cc = c[..., None]
                colp = a[..., :, p].copy()
                colq = a[..., :, q].copy()
                a[..., :, p] = cc * colp - sec * colq
                a[..., :, q] = se * colp + cc * colq
                rowp = a[..., p, :].copy()
                rowq = a[..., q, :].copy()
                a[..., p, :] = cc * rowp - se * rowq
                a[..., q, :] = sec * rowp + cc * rowq
                a[..., p, p] = app - t * az
                a[..., q, q] = aqq + t * az
                a[..., p, q] = 0.0
                a[..., q, p] = 0.0
                if want_vectors:
                    vp = v[..., :, p].copy()
                    vq = v[..., :, q].copy()
                    v[..., :, p] = cc * vp - sec * vq
                    v[..., :, q] = se * vp + cc * vq
    w = np.real(a[..., range(d), range(d)])
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    if want_vectors:
        v = np.take_along_axis(v, order[..., None, :], axis=-1)
    return w, v


def hermitian_eigenvalues(m):
    """Eigenvalues of a Hermitian matrix, descending, shape (..., d)."""
    a = _as_matrix(m)
    _check_hermitian(a, "matrix")
    w, _ = _jacobi(a.copy(), want_vectors=False)
    return w


def hermitian_eigensystem(m):
    """Eigenvalues (descending) and a unitary of matching eigenvectors.

    Column k of the returned vectors is the eigenvector of eigenvalue k.
    """
    a = _as_matrix(m)
    _check_hermitian(a, "matrix")
    return _jacobi(a.copy(), want_vectors=True)
