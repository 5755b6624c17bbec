"""The norm window, the spin-flip matrix and partial traces, against direct references."""

import numpy as np
import pytest

from qmono import inequalities, linalg, measures, states

from conftest import EDGE_STATE, random_pure_state


@pytest.mark.parametrize("check, dim", [
    (linalg.checked_norm2, 8),
    (states.validate, 8),
    (measures.concurrence_pure_2q, 4),
], ids=["checked_norm2", "validate", "concurrence_pure_2q"])
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


@pytest.mark.parametrize("entry", [
    linalg.checked_norm2, linalg.partial_trace, states.validate, measures.concurrence_pure_2q,
    measures.pure_state_invariants, inequalities.monogamy_table,
])
def test_zero_d_state_is_a_value_error(entry):
    with pytest.raises(ValueError, match=r"amplitudes, got shape \(\)"):
        entry(1.0)


def test_edge_of_window_is_one_check():
    psi = np.array([complex(*pair) for pair in EDGE_STATE])
    # np.linalg.norm rounds this state's norm out of the window
    assert abs(np.linalg.norm(psi) - 1.0) > linalg.NORM_TOL
    assert linalg.checked_norm2(psi) == np.sum(np.abs(psi) ** 2)
    np.testing.assert_array_equal(states.validate(psi), psi / np.sqrt(linalg.checked_norm2(psi)))


class TestBasics:
    def test_rejects_unsupported_dimension(self, rng):
        # normalized states, so the dimension check is the one that fires
        cases = [
            (linalg.checked_norm2, random_pure_state(rng, 4), r"8 amplitudes, got shape \(4,\)"),
            (linalg.checked_norm2, random_pure_state(rng, 16), r"8 amplitudes, got shape \(16,\)"),
            (lambda psi: linalg.checked_norm2(psi, size=4), random_pure_state(rng, 8),
             r"4 amplitudes, got shape \(8,\)"),
            (linalg.partial_trace, random_pure_state(rng, 4), r"8 amplitudes, got shape \(4,\)"),
            (linalg.partial_trace, np.ones((2, 2, 2)) / np.sqrt(8), r"8 amplitudes, got shape \(2, 2, 2\)"),
        ]
        for entry, psi, message in cases:
            with pytest.raises(ValueError, match=f"^state must have {message}$"):
                entry(psi)

    def test_spin_flip_matrix_is_its_own_inverse(self):
        np.testing.assert_allclose(linalg.SPIN_FLIP_4 @ linalg.SPIN_FLIP_4, np.eye(4), atol=1e-15)


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

    @pytest.mark.parametrize("label, subscripts", [
        ("A", "nijk,nljk->nil"), ("B", "njik,njlk->nil"), ("C", "njki,njkl->nil")])
    def test_single_marginal_is_bitwise_einsum(self, rng, label, subscripts):
        # dyadic moduli and phases in {1, i, -1, -i} make every product and
        # sum exact, so the two routes agree bit for bit in any summation order
        moduli = np.tile([0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.0], (200, 1))
        phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, (200, 8))]
        psi = rng.permuted(moduli, axis=1) * phases
        t = psi.reshape(-1, 2, 2, 2)
        norm2 = np.sum(np.abs(psi) ** 2, axis=-1)[:, None, None]
        want = np.einsum(subscripts, t, t.conj()) / norm2
        np.testing.assert_array_equal(linalg.partial_trace(psi, label), want)
        np.testing.assert_array_equal(linalg.partial_trace(psi, (label,)), want)

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
        rho_a = linalg.partial_trace(psi, "A")
        rho_bc = linalg.partial_trace(psi, ("B", "C"))
        pa = np.trace(rho_a @ rho_a).real
        pbc = np.trace(rho_bc @ rho_bc).real
        assert pa == pytest.approx(pbc, abs=1e-12)

    def test_unnormalized_input_is_normalized(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0 + 5e-7
        rho = linalg.partial_trace(psi, "A")
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)

    def test_rejects_bad_labels(self, rng):
        psi = random_pure_state(rng, 8)
        with pytest.raises(ValueError):
            linalg.partial_trace(psi, ("A", "A"))
        with pytest.raises(ValueError):
            linalg.partial_trace(psi, "D")
        with pytest.raises(ValueError):
            linalg.partial_trace(psi, "ABC")
