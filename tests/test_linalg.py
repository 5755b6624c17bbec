"""Eigensolver and partial-trace checks, cross-validated against numpy.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import linalg, measures, states

from conftest import random_hermitian, random_pure_state


@pytest.mark.parametrize("check, dim", [
    (linalg.state_tensor, 8),
    (states.validate, 8),
    (measures.concurrence_pure_2q, 4),
], ids=["state_tensor", "validate", "concurrence_pure_2q"])
@pytest.mark.parametrize("excess, accepted", [
    (0.9e-6, True), (-0.9e-6, True), (1.1e-6, False), (-1.1e-6, False),
])
def test_one_norm_window(rng, check, dim, excess, accepted):
    psi = random_pure_state(rng, dim) * (1.0 + excess)
    if accepted:
        check(psi)
    else:
        with pytest.raises(ValueError, match="norm"):
            check(psi)


class TestBasics:
    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            linalg._as_matrix(np.eye(3))

    def test_spin_flip_matrix_is_its_own_inverse(self):
        np.testing.assert_allclose(linalg.SPIN_FLIP_4 @ linalg.SPIN_FLIP_4, np.eye(4), atol=1e-15)


class TestEigen:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_numpy_eigvalsh(self, rng, dim):
        # independent LAPACK route: the general eigensolver (geev), which
        # neither assumes Hermiticity nor orders its output
        a = random_hermitian(rng, dim, batch=(50,))
        got = linalg.hermitian_eigensystem(a)[0]
        want = np.sort(np.linalg.eigvals(a).real, axis=-1)[..., ::-1]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_descending_order(self, rng):
        w = linalg.hermitian_eigensystem(random_hermitian(rng, 8, batch=(20,)))[0]
        assert np.all(np.diff(w, axis=-1) <= 1e-12)

    def test_eigensystem_reconstructs_matrix(self, rng):
        a = random_hermitian(rng, 4, batch=(20,))
        w, u = linalg.hermitian_eigensystem(a)
        rebuilt = np.einsum("...ik,...k,...jk->...ij", u, w, np.conj(u))
        np.testing.assert_allclose(rebuilt, a, atol=1e-12)
        gram = np.einsum("...ki,...kj->...ij", np.conj(u), u)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape), atol=1e-12)

    def test_diagonal_matrix_is_fixed_point(self):
        w = linalg.hermitian_eigensystem(np.diag([3.0, -1.0, 2.0, 0.0]).astype(complex))[0]
        np.testing.assert_allclose(w, [3.0, 2.0, 0.0, -1.0], atol=0)

    def test_degenerate_spectrum(self):
        w = linalg.hermitian_eigensystem(np.eye(4, dtype=complex) * 0.25)[0]
        np.testing.assert_allclose(w, 0.25, atol=1e-15)

    def test_rejects_non_hermitian(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            linalg.hermitian_eigensystem(a)

    @pytest.mark.parametrize("solve", [linalg.hermitian_eigensystem])
    @pytest.mark.parametrize("bad, reason", [
        (np.full((4, 4), np.inf), "non-finite"),
        (np.eye(3), "dimension"),
        (np.ones((4, 2)), "square"),
        (np.ones(4), "square"),
    ], ids=["non-finite", "dimension-3", "not-square", "vector"])
    def test_rejects_bad_input_before_solving(self, solve, bad, reason):
        with pytest.raises(ValueError, match=reason):
            solve(bad)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_and_frobenius_preserved(self, seed):
        g = np.random.default_rng(seed)
        a = random_hermitian(g, 4)
        w = linalg.hermitian_eigensystem(a)[0]
        assert np.trace(a).real == pytest.approx(w.sum(), abs=1e-11)
        assert np.sum(np.abs(a) ** 2) == pytest.approx(np.sum(w**2), abs=1e-10)


class TestPartialTrace:
    def test_pair_marginal_matches_reference(self, rng):
        psi = random_pure_state(rng, 8)
        rho = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2, 2, 2)
        want = np.einsum("abcdec->abde", rho).reshape(4, 4)
        np.testing.assert_allclose(linalg.partial_trace(psi, ("A", "B")), want, atol=1e-14)

    def test_single_marginal_matches_reference(self, rng):
        psi = random_pure_state(rng, 8)
        rho = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2, 2, 2)
        want = np.einsum("abcade->bcde", rho).reshape(4, 4)
        np.testing.assert_allclose(linalg.partial_trace(psi, ("B", "C")), want, atol=1e-14)

    @pytest.mark.parametrize("keep", [("A", "B"), ("A", "C"), ("B", "C")])
    def test_marginal_is_density_matrix(self, rng, keep):
        rho = linalg.partial_trace(random_pure_state(rng, 8), keep)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-14

    def test_first_label_is_more_significant_bit(self):
        # |0>_A |1>_B |0>_C occupies index 2; the AB marginal must be |01><01|.
        psi = np.zeros(8, dtype=complex)
        psi[2] = 1.0
        rho_ab = linalg.partial_trace(psi, ("A", "B"))
        want = np.zeros((4, 4))
        want[1, 1] = 1.0
        np.testing.assert_allclose(rho_ab, want, atol=0)
        rho_ba = linalg.partial_trace(psi, ("B", "A"))
        want_ba = np.zeros((4, 4))
        want_ba[2, 2] = 1.0
        np.testing.assert_allclose(rho_ba, want_ba, atol=0)

    def test_single_qubit_purity_agrees_between_cuts(self, rng):
        # Schmidt spectrum across A|BC is shared, so both purities agree.
        psi = random_pure_state(rng, 8)
        rho_a = linalg.partial_trace_single(psi, "A")
        rho_bc = linalg.partial_trace(psi, ("B", "C"))
        pa = np.trace(rho_a @ rho_a).real
        pbc = np.trace(rho_bc @ rho_bc).real
        assert pa == pytest.approx(pbc, abs=1e-12)

    def test_unnormalized_input_is_normalized(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0 + 5e-7
        rho = linalg.partial_trace_single(psi, "A")
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)

    def test_rejects_bad_labels(self, rng):
        psi = random_pure_state(rng, 8)
        with pytest.raises(ValueError):
            linalg.partial_trace(psi, ("A", "A"))
        with pytest.raises(ValueError):
            linalg.partial_trace_single(psi, "D")
