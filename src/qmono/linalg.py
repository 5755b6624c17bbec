"""Basis convention, the norm window and partial traces of three-qubit states.

The basis state |abc> has index 4a + 2b + c, qubit A most significant.
Every state entry point takes <psi|psi> from checked_norm2, which rejects
norms outside the NORM_TOL window.  partial_trace gives the one- or
two-qubit marginal of a pure state, divided by <psi|psi>.  Both accept
stacked states, of shape (..., 8) for three qubits (or (..., 4) for two,
in checked_norm2), and work along the leading axes in one vectorized pass.
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
]

QUBIT_LABELS = ("A", "B", "C")
QUBIT_POSITION = {"A": 0, "B": 1, "C": 2}

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SPIN_FLIP_4 = np.kron(SIGMA_Y, SIGMA_Y)

# Norm window: every state entry point requires |norm(psi) - 1| <= NORM_TOL (checked_norm2).
NORM_TOL = 1e-6


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

