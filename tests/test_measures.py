"""Concurrence, lambda spectra, and tangle checks against independent oracles.

The two-qubit oracles used here never go through the package's own
eigensolver: pure-state concurrences come from 2 sqrt(det rho_A) and
mixed-state ones from closed forms of standard families.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import linalg, measures, states

from conftest import random_density, random_pure_state


def bell_psi_minus():
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def det_concurrence(psi4):
    """2 sqrt(det rho_A) of pure two-qubit states, and the squared form 4 det rho_A."""
    t = np.asarray(psi4).reshape(np.shape(psi4)[:-1] + (2, 2))
    rho_a = np.einsum("...ik,...jk->...ij", t, np.conj(t))
    rho_a = rho_a / np.trace(rho_a, axis1=-2, axis2=-1)[..., None, None]
    det = np.real(rho_a[..., 0, 0] * rho_a[..., 1, 1] - rho_a[..., 0, 1] * rho_a[..., 1, 0])
    return 2.0 * np.sqrt(np.maximum(det, 0.0)), 4.0 * det


def random_local_unitary(rng):
    """U_A x U_B with each factor Haar-random on one qubit."""
    def one(rng):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    return np.kron(one(rng), one(rng))


def werner(p):
    """p |Psi-><Psi-| + (1-p) I/4, concurrence max(0, (3p-1)/2)."""
    psi = bell_psi_minus()
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


class TestSpinFlip:
    def test_two_qubit_matches_kron_reference(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        yy = np.kron(linalg.SIGMA_Y, linalg.SIGMA_Y)
        np.testing.assert_allclose(measures.spin_flip_two_qubit(rho),
                                   yy @ rho.conj() @ yy, atol=1e-12)

    def test_involution(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        np.testing.assert_allclose(measures.spin_flip_two_qubit(measures.spin_flip_two_qubit(rho)),
                                   rho, atol=1e-12)

    def test_bell_state_is_flip_invariant(self):
        psi = bell_psi_minus()
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(measures.spin_flip_two_qubit(rho), rho, atol=1e-14)


class TestLambdaSpectrum:
    def test_bell_projector(self):
        psi = bell_psi_minus()
        lam = measures.lambda_spectrum(np.outer(psi, psi.conj()))
        np.testing.assert_allclose(lam, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_product_projector(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        lam = measures.lambda_spectrum(np.outer(psi, psi.conj()))
        np.testing.assert_allclose(lam, 0.0, atol=1e-12)

    def test_rank_one_projectors_are_exact(self, rng):
        # rank one: no eigenvalue noise of rho reaches the singular values
        s = 1.0 / math.sqrt(2.0)
        bells = [[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0], [s, 0, 0, 1j * s]]
        products = [np.eye(4)[k] for k in range(4)] + [np.kron([0.6, 0.8j], [s, s])]
        psis = np.array(bells + products, dtype=complex)
        lam = measures.lambda_spectrum(np.einsum("ni,nj->nij", psis, np.conj(psis)))
        want = np.zeros((len(psis), 4))
        want[: len(bells), 0] = 1.0
        np.testing.assert_allclose(lam, want, atol=1e-15, rtol=0)
        # under local unitaries the same holds up to the roundoff of U itself
        u = np.stack([random_local_unitary(rng) for _ in range(200)])
        for k, psi in ((1.0, psis[0]), (0.0, psis[len(bells)])):
            phi = u @ psi
            lam = measures.lambda_spectrum(np.einsum("ni,nj->nij", phi, np.conj(phi)))
            np.testing.assert_allclose(lam, np.broadcast_to([k, 0, 0, 0], lam.shape),
                                       atol=1e-14, rtol=0)

    @pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_small_weight_mixture_is_resolved(self, p):
        # (1-p) Phi+ + p Psi+ has lambdas (1-p, p, 0, 0) and C = 1 - 2p; the
        # weight p survives however small it is against rho's own scale
        s = 1.0 / math.sqrt(2.0)
        phi, psi = np.array([s, 0, 0, s]), np.array([0, s, s, 0])
        rho = (1.0 - p) * np.outer(phi, phi) + p * np.outer(psi, psi)
        np.testing.assert_allclose(measures.lambda_spectrum(rho), [1.0 - p, p, 0.0, 0.0],
                                   atol=1e-15, rtol=0)
        assert measures.concurrence_mixed(rho) == pytest.approx(1.0 - 2.0 * p, abs=1e-15)

    def test_maximally_mixed(self):
        lam = measures.lambda_spectrum(np.eye(4, dtype=complex) / 4.0)
        np.testing.assert_allclose(lam, 0.25, atol=1e-12)

    def test_descending_and_squares_sum_to_trace_product(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            lam = measures.lambda_spectrum(rho)
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.sum(lam**2) == pytest.approx(measures.trace_rho_rhotilde(rho), abs=1e-10)

    def test_matches_non_hermitian_route(self, rng):
        # square roots of the eigenvalues of rho rho_tilde itself, from the
        # general (non-Hermitian) solver, which shares no code with eigh
        rho = random_density(rng, 4, batch=(200,))
        sy_sy = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])
        ev = np.linalg.eigvals(rho @ sy_sy @ np.conj(rho) @ sy_sy)
        want = np.sqrt(np.maximum(np.sort(ev.real, axis=-1)[:, ::-1], 0.0))
        np.testing.assert_allclose(measures.lambda_spectrum(rho), want, atol=1e-8, rtol=0)

    def test_rejects_negative_spectrum(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            measures.lambda_spectrum(rho)


class TestConcurrenceMixed:
    @pytest.mark.parametrize("p,want", [
        (1.0, 1.0),
        (0.8, 0.7),
        (1.0 / 3.0, 0.0),
        (0.2, 0.0),
        (0.0, 0.0),
    ])
    def test_werner_closed_form(self, p, want):
        assert measures.concurrence_mixed(werner(p)) == pytest.approx(want, abs=1e-12)

    def test_full_rank_bell_diagonal_closed_form(self):
        # distinct weights, so lambda_3 != lambda_4: C = 2 max w - 1 = 0.4
        s = 1.0 / math.sqrt(2.0)
        bell = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]], dtype=complex)
        rho = sum(w * np.outer(b, b.conj()) for w, b in zip((0.7, 0.15, 0.1, 0.05), bell))
        assert measures.concurrence_mixed(rho) == pytest.approx(0.4, abs=1e-12)

    def test_batch_matches_loop(self, rng):
        rhos = []
        for _ in range(8):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rhos.append(rho / np.trace(rho).real)
        stack = np.stack(rhos)
        got = measures.concurrence_mixed(stack)
        want = [measures.concurrence_mixed(r) for r in rhos]
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestConcurrencePure2q:
    def test_bell_is_maximal(self):
        psi = bell_psi_minus()
        assert measures.concurrence_pure_2q(psi) == pytest.approx(1.0, abs=1e-15)
        assert det_concurrence(psi)[0] == pytest.approx(1.0, abs=1e-15)

    def test_product_is_zero(self):
        psi = np.array([0.6, 0.0, 0.8, 0.0], dtype=complex)
        assert measures.concurrence_pure_2q(psi) == pytest.approx(0.0, abs=1e-15)
        # the root of the determinant form would read 1.5e-8 here; its square is 0
        assert det_concurrence(psi)[1] == pytest.approx(0.0, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_marginal_determinant(self, seed):
        g = np.random.default_rng(seed)
        psi = random_pure_state(g, 4)
        m = psi.reshape(2, 2)
        rho_a = m @ m.conj().T
        det = np.linalg.det(rho_a).real
        want = 2.0 * math.sqrt(max(det, 0.0))
        assert measures.concurrence_pure_2q(psi) == pytest.approx(want, abs=1e-12)

    def test_squares_match_determinant_form(self, rng):
        # C^2 = 4 det rho_A; the squares are compared because near C = 0 the
        # determinant cancels to roundoff and its square root amplifies that
        psis = random_pure_state(rng, 4, batch=(1000,))
        psis[:10] = np.kron([0.6, 0.8j], [1.0, 0.0])
        psis[10:20] *= 1.0 + 0.9e-6  # the edge of the norm window
        got = measures.concurrence_pure_2q(psis)
        np.testing.assert_allclose(got**2, det_concurrence(psis)[1], atol=1e-12, rtol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            measures.concurrence_pure_2q([bad, 0.0, 0.0, 0.0])

    def test_agrees_with_mixed_route_on_projector(self, rng):
        for _ in range(25):
            psi = random_pure_state(rng, 4)
            rho = np.outer(psi, psi.conj())
            assert measures.concurrence_mixed(rho) == pytest.approx(
                measures.concurrence_pure_2q(psi), abs=1e-10)


class TestBipartition:
    def test_ghz_is_maximal(self):
        assert measures.concurrence_bipartition(states.make_ghz(), "A") == pytest.approx(1.0)

    def test_product_state_is_zero(self):
        psi = np.zeros(8, dtype=complex)
        psi[5] = 1.0
        for pivot in linalg.QUBIT_LABELS:
            assert measures.concurrence_bipartition(psi, pivot) == pytest.approx(0.0, abs=1e-15)

    def test_matches_marginal_determinant(self, rng):
        for pivot in linalg.QUBIT_LABELS:
            psi = random_pure_state(rng, 8)
            rho = linalg.partial_trace(psi, pivot)
            want = 2.0 * math.sqrt(max(np.linalg.det(rho).real, 0.0))
            assert measures.concurrence_bipartition(psi, pivot) == pytest.approx(want, abs=1e-12)

    def test_two_letter_pivot_is_rejected(self, rng):
        # a pivot names one qubit; "AB" must not read as the pair (A, B)
        with pytest.raises(ValueError):
            measures.bipartition_c2_raw(random_pure_state(rng, 8), "AB")


class TestTangle:
    def test_ghz_golden(self):
        assert measures.residual_tangle(states.make_ghz(), "A") == pytest.approx(1.0, abs=1e-12)

    def test_w_golden(self):
        # All tripartite entanglement of W is pairwise: tau = 8/9 - 4/9 - 4/9.
        psi = states.make_w()
        assert measures.residual_tangle(psi, "A") == pytest.approx(0.0, abs=1e-10)
        rho_ab = linalg.partial_trace(psi, ("A", "B"))
        assert measures.concurrence_mixed(rho_ab) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_pivot_pairs(self):
        assert measures.pivot_pairs("A") == (("A", "B"), ("A", "C"))
        assert measures.pivot_pairs("B") == (("B", "A"), ("B", "C"))
        assert measures.pivot_pairs("C") == (("C", "A"), ("C", "B"))
        with pytest.raises(ValueError):
            measures.pivot_pairs("Q")

    @pytest.mark.parametrize("traced", [0, 1, 2])
    def test_pair_index_reads_the_tensor_with_the_traced_axis_last(self, rng, traced):
        # the (2, 2, 2) amplitude tensor, axis `traced` moved last, flattened
        psi = random_pure_state(rng, 8)
        want = np.moveaxis(psi.reshape(2, 2, 2), traced, -1).reshape(-1)
        assert np.array_equal(psi[list(measures._PAIR_INDEX[traced])], want)
        # the same positions from the bits of |abc> = 4a + 2b + c
        kept = [q for q in range(3) if q != traced]
        bits = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        assert measures._PAIR_INDEX[traced] == tuple(
            (i << (2 - kept[0])) | (j << (2 - kept[1])) | (k << (2 - traced)) for i, j, k in bits)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_lambda_route_resolves_small_tangle(self, eps):
        # W + eps GHZ has tau ~ 2.2 eps; no floor reads it as 0 on any pair
        psi = states.make_w() + eps * states.make_ghz()
        psi = psi / np.linalg.norm(psi)
        tau = measures.residual_tangle(psi, "A")
        assert tau > eps
        for pair in (("A", "B"), ("A", "C"), ("B", "C")):
            got = measures.residual_tangle_lambda(psi, pair)
            assert got == pytest.approx(tau, rel=1e-6, abs=0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_defining_and_lambda_routes_agree(self, seed):
        g = np.random.default_rng(seed)
        psi = random_pure_state(g, 8)
        tau = measures.residual_tangle(psi, "A")
        tau_ab = measures.residual_tangle_lambda(psi, ("A", "B"))
        tau_ac = measures.residual_tangle_lambda(psi, ("A", "C"))
        assert tau == pytest.approx(tau_ab, abs=1e-9)
        assert tau == pytest.approx(tau_ac, abs=1e-9)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monogamy_of_marginal_concurrences(self, seed):
        # The sum-form bound, via quantities computed by independent routes.
        g = np.random.default_rng(seed)
        psi = random_pure_state(g, 8)
        c2_sum = sum(
            measures.concurrence_mixed(linalg.partial_trace(psi, pair)) ** 2
            for pair in measures.pivot_pairs("A"))
        c2_abc = measures.concurrence_bipartition(psi, "A") ** 2
        assert c2_sum <= c2_abc + 1e-9


class TestTraceProduct:
    def test_non_negative_and_scalar(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        val = measures.trace_rho_rhotilde(rho)
        assert isinstance(val, float)
        assert val >= 0.0

    def test_decomposes_bipartition_concurrence(self, rng):
        psi = random_pure_state(rng, 8)
        total = sum(
            measures.trace_rho_rhotilde(linalg.partial_trace(psi, pair))
            for pair in measures.pivot_pairs("A"))
        c2 = measures.concurrence_bipartition(psi, "A") ** 2
        assert total == pytest.approx(c2, abs=1e-10)
