import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, dim, batch=()):
    """Random PSD matrix (stack) with unit trace."""
    shape = batch + (dim, dim)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = a @ np.conj(np.swapaxes(a, -1, -2))
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    return rho / tr[..., None, None]


def random_pure_state(rng, dim, batch=()):
    """Normalized random complex vector(s)."""
    psi = rng.normal(size=batch + (dim,)) + 1j * rng.normal(size=batch + (dim,))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


# Eight [re, im] amplitudes whose norm is 1 + 1e-6 to within an ulp: inside the
# NORM_TOL window as sqrt(sum |psi|^2), outside it as np.linalg.norm rounds it.
EDGE_STATE = [
    [0.05401227607285849, -0.05373783658705442], [-0.20475748852887973, -0.09383972704114232],
    [0.00037135851978795646, -0.5584557300013491], [0.08117499356029806, -0.2954432906071674],
    [-0.11984862678818015, -0.041329178328465006], [-0.1972347369687126, 0.2909414289783937],
    [0.41422031513532676, -0.4320288036699767], [0.14370378016154986, -0.1386288341554569],
]


def locally_rotated(psi, n, seed):
    """n copies of the k-qubit state psi, each under its own random local unitary U_1 x ... x U_k.

    The unitaries come from QR of complex Gaussian matrices drawn from seed.
    """
    rng = np.random.default_rng(seed)
    k = int(np.log2(len(psi)))
    t = np.broadcast_to(np.asarray(psi, dtype=complex), (n, len(psi))).reshape((n,) + (2,) * k)
    for q in range(1, k + 1):
        u = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))[0]
        t = np.moveaxis(np.einsum("nij,n...j->n...i", u, np.moveaxis(t, q, -1)), -1, q)
    return t.reshape(n, -1)
