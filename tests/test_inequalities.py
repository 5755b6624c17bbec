"""Monogamy bound reports: goldens, dominance, and the gap identity."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import inequalities, measures, states

from conftest import random_pure_state


class TestGoldens:
    def test_ghz(self):
        r = inequalities.build_report(states.make_ghz(), "A")
        assert r.c2_abc == pytest.approx(1.0, abs=1e-12)
        assert r.c2_ab == pytest.approx(0.0, abs=1e-12)
        assert r.c2_ac == pytest.approx(0.0, abs=1e-12)
        assert r.tau == pytest.approx(1.0, abs=1e-12)
        assert r.rhs_tight == pytest.approx(1.0, abs=1e-12)
        assert abs(r.gap_tight) <= 1e-12
        assert r.saturated_tight
        assert inequalities.classify(r) == "saturated"

    def test_w(self):
        # equal pairwise concurrences 2/3 make every bound tight here
        r = inequalities.build_report(states.make_w(), "A")
        assert r.c2_ab == pytest.approx(4.0 / 9.0, abs=1e-10)
        assert r.c2_ac == pytest.approx(4.0 / 9.0, abs=1e-10)
        assert r.c2_abc == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert r.tau == pytest.approx(0.0, abs=1e-9)
        assert r.gap_fei == pytest.approx(0.0, abs=1e-9)
        assert inequalities.classify(r) == "saturated"

    def test_bell_product_saturation_point(self):
        r = inequalities.build_report(states.make_bell_product(2.0 / 3.0), "A")
        assert abs(r.gap_tight) <= 1e-10
        assert inequalities.classify(r) == "saturated"

    def test_generic_state_is_strict(self):
        r = inequalities.build_report(states.make_bell_product(0.3), "A")
        assert r.gap_tight > 1e-3
        assert inequalities.classify(r) == "strict"

    def test_report_is_frozen(self):
        r = inequalities.build_report(states.make_ghz(), "A")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.tau = 0.0


class TestRhs:
    def test_fei_formula(self):
        r = inequalities.build_report(states.make_bell_product(0.4), "A")
        want = 2.0 * math.sqrt(r.c2_ab * r.c2_ac + r.tau**2 / 4.0)
        assert inequalities.fei_rhs(r) == pytest.approx(want, abs=1e-15)
        assert r.rhs_fei == pytest.approx(want, abs=1e-12)

    def test_tight_formula(self):
        r = inequalities.build_report(states.make_bell_product(0.4), "A")
        want = 2.0 * math.sqrt((r.c2_ab + r.tau / 2.0) * (r.c2_ac + r.tau / 2.0))
        assert inequalities.tight_rhs(r) == pytest.approx(want, abs=1e-15)
        assert r.rhs_tight == pytest.approx(want, abs=1e-12)

    def test_tight_clamps_negative_factors(self):
        val = inequalities.tight_rhs_values(-0.3, 0.5, 0.1)
        assert val == pytest.approx(0.0)

    def test_ckw_margin_is_tau(self):
        r = inequalities.build_report(states.make_w(), "A")
        holds, margin = inequalities.ckw_holds(r)
        assert holds
        assert margin == pytest.approx(r.c2_abc - r.c2_ab - r.c2_ac, abs=1e-15)


class TestClassify:
    def test_thresholds(self):
        assert inequalities.classify_gaps(0.1) == "strict"
        assert inequalities.classify_gaps(5e-10) == "saturated"
        assert inequalities.classify_gaps(-5e-10) == "saturated"
        assert inequalities.classify_gaps(-2e-9) == "violated"

    def test_vectorized(self):
        got = inequalities.classify_gaps(np.array([0.1, 0.0, -1e-6]))
        assert list(got) == ["strict", "saturated", "violated"]

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            inequalities.classify_gaps(0.1, tol=0.0)


class TestTableAndReport:
    def test_table_matches_single_reports(self, rng):
        psis = random_pure_state(rng, 8, batch=(16,))
        table = inequalities.monogamy_table(psis, "B")
        for i in range(16):
            r = inequalities.build_report(psis[i], "B")
            for key in ("c2_ab", "c2_ac", "c2_abc", "tau", "rhs_fei", "rhs_tight",
                        "gap_fei", "gap_tight"):
                assert getattr(r, key) == pytest.approx(float(table[key][i]), abs=1e-14)

    def test_raw_unclamped_fields(self):
        r = inequalities.build_report(states.make_ghz(), "A")
        assert set(r.raw_unclamped) == {"c_ab", "c_ac", "c2_abc", "tau"}
        assert r.raw_unclamped["tau"] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_pivot(self, rng):
        with pytest.raises(ValueError):
            inequalities.monogamy_table(random_pure_state(rng, 8, batch=(2,)), "X")


class TestProperties:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounds_hold_and_tight_dominates(self, seed):
        g = np.random.default_rng(seed)
        r = inequalities.build_report(random_pure_state(g, 8), "A")
        assert r.gap_fei >= -1e-9
        assert r.gap_tight >= -1e-9
        assert r.rhs_tight >= r.rhs_fei - 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_gap_identity(self, seed):
        # (C2_X(YZ))^2 - rhs_tight^2 telescopes to (C2_XY - C2_XZ)^2.
        g = np.random.default_rng(seed)
        r = inequalities.build_report(random_pure_state(g, 8), "A")
        lhs = r.c2_abc**2 - r.rhs_tight**2
        assert lhs == pytest.approx((r.c2_ab - r.c2_ac) ** 2, abs=1e-9)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_tau_is_pivot_invariant(self, seed):
        g = np.random.default_rng(seed)
        psi = random_pure_state(g, 8)
        taus = [inequalities.build_report(psi, pivot).tau for pivot in ("A", "B", "C")]
        assert max(taus) - min(taus) <= 1e-9

    def test_saturation_tracks_pair_symmetry(self, rng):
        # by the gap identity, gap -> 0 exactly as C2_XY -> C2_XZ
        psis = random_pure_state(rng, 8, batch=(200,))
        table = inequalities.monogamy_table(psis, "A")
        asym = np.abs(table["c2_ab"] - table["c2_ac"])
        small_gap = table["gap_tight"] < np.median(table["gap_tight"])
        assert np.median(asym[small_gap]) < np.median(asym[~small_gap])


class TestInvariantRoute:
    """Reports come from polynomial invariants, not from the lambda spectrum."""

    def test_no_eigensolve(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pure-state reports must not call the eigensolver")

        monkeypatch.setattr(measures, "hermitian_eigensystem", refuse)
        monkeypatch.setattr(measures, "hermitian_eigenvalues", refuse)
        psis = random_pure_state(rng, 8, batch=(8,))
        for pivot in ("A", "B", "C"):
            inequalities.monogamy_table(psis, pivot)
            inequalities.build_report(psis[0], pivot)

    def test_small_tau_survives(self):
        # W + 3e-7 GHZ has tau = 6.5319726474206302e-7 (50-digit arithmetic);
        # the lambda-spectrum noise floor used to read it as roundoff.
        psi = states.make_w() + 3e-7 * states.make_ghz()
        psi = psi / np.linalg.norm(psi)
        for pivot in ("A", "B", "C"):
            r = inequalities.build_report(psi, pivot)
            assert r.tau == pytest.approx(6.531972647420629e-7, rel=1e-12)
            assert r.raw_unclamped["tau"] == r.tau

    def test_bell_pair_product_has_exact_zero_bound(self):
        # C_AB = 1 and C_AC = tau = 0 exactly, so the tight RHS has no
        # roundoff under its square root.
        psi = states.make_bell_product(1.0)
        for pivot in ("A", "B", "C"):
            r = inequalities.build_report(psi, pivot)
            assert r.tau == 0.0
            assert r.rhs_tight == 0.0
        for pivot in ("A", "B"):
            assert inequalities.build_report(psi, pivot).gap_tight == 1.0

    def test_tau_is_bitwise_pivot_invariant(self):
        psis = states.sample_haar_batch(3, 1000)
        taus = [inequalities.monogamy_table(psis, pivot)["tau"] for pivot in ("A", "B", "C")]
        np.testing.assert_array_equal(taus[0], taus[1])
        np.testing.assert_array_equal(taus[0], taus[2])

    def test_biseparable_tight_bound_is_roundoff_free(self):
        # A Bell pair on AB times any state of C: C_AC = tau = 0, so the tight
        # RHS at pivot A is 0.  Both come out as roundoff of either sign, and
        # C^2_AC + tau/2 = Tr(rho_AC rho~_AC) keeps that roundoff out of the
        # square root, where clamping each value first would leave ~1e-8.
        bell = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        for theta, phi in ((0.3, 1.1), (1.2, 4.0), (2.5, 0.2)):
            qubit = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])
            r = inequalities.build_report(np.kron(bell, qubit), "A")
            assert r.rhs_tight <= 1e-15
            assert r.gap_tight == pytest.approx(r.c2_abc, abs=1e-15)
            assert r.raw_unclamped["c_ac"] ** 2 <= 1e-15

    def test_raw_pair_concurrences_are_signed_roots(self):
        r = inequalities.build_report(states.make_w(), "A")
        assert r.raw_unclamped["c_ab"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        bell = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        signs = []
        for theta in np.linspace(0.1, 3.0, 10):
            psi = np.kron(bell, np.array([math.cos(theta), math.sin(theta) * np.exp(1.1j)]))
            r = inequalities.build_report(psi, "A")
            raw = inequalities.monogamy_table(psi[None, :], "A")["raw_c2_ac"][0]
            assert r.raw_unclamped["c_ac"] == math.copysign(math.sqrt(abs(raw)), raw)
            assert r.c2_ac == max(raw, 0.0)
            signs.append(raw < 0.0)
        # roundoff pushes most of these pre-clamp C^2_AC below 0
        assert any(signs)

    def test_matches_lambda_route(self, rng):
        psis = random_pure_state(rng, 8, batch=(50,))
        for pivot in ("A", "B", "C"):
            c2_ab, c2_ac, _, tau = measures.pure_state_invariants(psis, pivot)
            pair1, pair2 = measures.pivot_pairs(pivot)
            for pair, c2 in ((pair1, c2_ab), (pair2, c2_ac)):
                rho = measures.partial_trace(psis, pair)
                np.testing.assert_allclose(c2, measures.concurrence_mixed(rho) ** 2, atol=1e-10)
            np.testing.assert_allclose(tau, measures.residual_tangle_lambda(psis, pair1),
                                       atol=1e-9)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            inequalities.monogamy_table(2.0 * states.make_ghz()[None, :], "A")
