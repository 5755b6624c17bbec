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


def werner(p):
    """p |Psi-><Psi-| + (1-p) I/4, concurrence max(0, (3p-1)/2)."""
    psi = bell_psi_minus()
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


class TestSpinFlip:
    def test_one_qubit_negates_bloch_vector(self, rng):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n) * 2.0
        rho = np.eye(2) / 2 + n[0] * linalg.SIGMA_X + n[1] * linalg.SIGMA_Y + n[2] * linalg.SIGMA_Z
        flipped = measures.spin_flip_qubit(rho)
        np.testing.assert_allclose(flipped, np.eye(2) - rho, atol=1e-14)

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
        # the noise floor zeroes trailing lambdas; keep the full-rank ones
        above = want[:, 0] * want[:, 3] > 10.0 * measures.LAMBDA_NOISE_FLOOR
        assert above.sum() >= 150
        got = measures.lambda_spectrum(rho[above])
        np.testing.assert_allclose(got, want[above], atol=1e-8, rtol=0)

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
        assert measures.concurrence_pure_2q(bell_psi_minus()) == pytest.approx(1.0, abs=1e-15)

    def test_product_is_zero(self):
        psi = np.array([0.6, 0.0, 0.8, 0.0], dtype=complex)
        assert measures.concurrence_pure_2q(psi) == pytest.approx(0.0, abs=1e-15)

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
            rho = linalg.partial_trace_single(psi, pivot)
            want = 2.0 * math.sqrt(max(np.linalg.det(rho).real, 0.0))
            assert measures.concurrence_bipartition(psi, pivot) == pytest.approx(want, abs=1e-12)


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
