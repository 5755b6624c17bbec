"""Monogamy bound reports: goldens, dominance, and the gap identity."""

import dataclasses
import math
from fractions import Fraction

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
        assert r.rhs_fei == pytest.approx(want, abs=1e-12)

    def test_tight_formula(self):
        r = inequalities.build_report(states.make_bell_product(0.4), "A")
        want = 2.0 * math.sqrt((r.c2_ab + r.tau / 2.0) * (r.c2_ac + r.tau / 2.0))
        assert r.rhs_tight == pytest.approx(want, abs=1e-12)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # NaN compares false with every gap and would label it strict;
        # inf would label every gap saturated
        with pytest.raises(ValueError, match="finite"):
            inequalities.classify_gaps(0.1, tol=tol)


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

    def test_report_takes_one_state(self, rng):
        with pytest.raises(ValueError, match=r"got shape \(2, 8\)"):
            inequalities.build_report(random_pure_state(rng, 8, batch=(2,)))


REPORT_FIELDS = ("c2_ab", "c2_ac", "c2_abc", "tau", "rhs_fei", "rhs_tight", "gap_fei", "gap_tight")
STATE_KINDS = ("haar", "canonical-a", "canonical-a theta=0", "canonical-b", "canonical-b theta=0",
               "bell p1=0", "bell p1=2/3", "bell p1=1", "ghz", "w", "product")


def state_of_kind(kind, rng):
    """One normalized state of a named kind, drawn from rng where it is random."""
    if kind == "haar":
        return random_pure_state(rng, 8)
    if kind.startswith("canonical"):
        p = rng.uniform(0.0, 1.0, 5)
        make = states.make_canonical_a if kind.startswith("canonical-a") else states.make_canonical_b
        return make(p / math.sqrt(p @ p), 0.0 if kind.endswith("=0") else rng.uniform(0.0, math.pi))
    if kind.startswith("bell"):
        return states.make_bell_product({"bell p1=0": 0.0, "bell p1=2/3": 2.0 / 3.0, "bell p1=1": 1.0}[kind])
    if kind in ("ghz", "w"):
        return states.make_ghz() if kind == "ghz" else states.make_w()
    a, b, c = random_pure_state(rng, 2, batch=(3,))
    return np.kron(np.kron(a, b), c)


def select_labels(gap_tight, tol):
    """The np.select form of classify_gaps, kept as its reference."""
    g = np.asarray(gap_tight, dtype=np.float64)
    return np.select([np.abs(g) <= tol, g < -tol], ["saturated", "violated"], default="strict")


class TestOneRoute:
    """build_report is one row of monogamy_table, and classify_gaps is the
    np.select labelling, both bit for bit."""

    @pytest.mark.parametrize("pivot", ["A", "B", "C"])
    @given(kinds=st.lists(st.sampled_from(STATE_KINDS), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_report_is_a_table_row_bit_for_bit(self, pivot, kinds, seed):
        rng = np.random.default_rng(seed)
        psis = np.array([state_of_kind(kind, rng) for kind in kinds])
        table = inequalities.monogamy_table(psis, pivot)
        for i, psi in enumerate(psis):
            r = inequalities.build_report(psi, pivot)
            assert r.pivot == pivot
            for key in REPORT_FIELDS:
                assert getattr(r, key).hex() == float(table[key][i]).hex(), (kinds[i], key)
            raw = {k: float(table["raw_" + k][i]) for k in ("c2_ab", "c2_ac", "c2_abc", "tau")}
            want = {"c_ab": math.copysign(math.sqrt(abs(raw["c2_ab"])), raw["c2_ab"]),
                    "c_ac": math.copysign(math.sqrt(abs(raw["c2_ac"])), raw["c2_ac"]),
                    "c2_abc": raw["c2_abc"], "tau": raw["tau"]}
            assert {k: v.hex() for k, v in r.raw_unclamped.items()} == {k: v.hex() for k, v in want.items()}

    @given(gaps=st.lists(st.floats(), max_size=20), tol=st.floats(1e-300, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_classify_gaps_is_the_select_labelling(self, gaps, tol):
        edges = [tol, -tol, np.nextafter(tol, np.inf), np.nextafter(-tol, -np.inf), 0.0, -0.0, np.nan]
        g = np.array(gaps + edges)
        got, want = inequalities.classify_gaps(g, tol), select_labels(g, tol)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
        for x in g[-len(edges):]:
            for scalar in (x, float(x), np.array(x)):
                got = inequalities.classify_gaps(scalar, tol)
                assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == want.dtype
                assert got == select_labels(x, tol)


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
            t_ab, t_ac, tau = measures.pure_state_invariants(psis, pivot)
            pair1, pair2 = measures.pivot_pairs(pivot)
            for pair, t in ((pair1, t_ab), (pair2, t_ac)):
                rho = measures.partial_trace(psis, pair)
                np.testing.assert_allclose(t - tau / 2.0, measures.concurrence_mixed(rho) ** 2,
                                           atol=1e-10)
            np.testing.assert_allclose(tau, measures.residual_tangle_lambda(psis, pair1),
                                       atol=1e-9)

    def test_closure_matches_purity_route(self, rng):
        # C^2_X(YZ) = T_XY + T_XZ against the independent 2 (1 - Tr rho_X^2)
        psis = random_pure_state(rng, 8, batch=(500,))
        for pivot in ("A", "B", "C"):
            table = inequalities.monogamy_table(psis, pivot)
            np.testing.assert_allclose(table["raw_c2_abc"],
                                       measures.bipartition_c2_raw(psis, pivot), atol=1e-14)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            inequalities.monogamy_table(2.0 * states.make_ghz()[None, :], "A")


def partner_swap_symmetric(psis, pivot):
    """The states symmetrized under the swap of the pivot's two partners."""
    partners = [k for k, q in enumerate("ABC") if q != pivot]
    t = psis.reshape(-1, 2, 2, 2)
    axes = [0, 1, 2, 3]
    axes[1 + partners[0]], axes[1 + partners[1]] = axes[1 + partners[1]], axes[1 + partners[0]]
    sym = (t + np.transpose(t, axes)).reshape(-1, 8)
    return sym / np.linalg.norm(sym, axis=-1, keepdims=True)


class TestExactByConstruction:
    """Identities that hold bit for bit, from the (T_XY, T_XZ, tau) forms."""

    @pytest.mark.parametrize("family", ["w", "ghz"])
    @pytest.mark.parametrize("pivot", ["A", "B", "C"])
    def test_canonical_saturated_states_have_zero_gap(self, family, pivot):
        r = inequalities.build_report(getattr(states, f"make_{family}")(), pivot)
        assert r.gap_tight == 0.0
        assert r.gap_fei == 0.0
        assert r.rhs_tight == r.c2_abc

    @pytest.mark.parametrize("pivot", ["A", "B", "C"])
    def test_partner_symmetric_states_have_zero_gap(self, pivot):
        # C_XY = C_XZ exactly, so the tight bound is saturated exactly
        psis = partner_swap_symmetric(states.sample_haar_batch(5, 300), pivot)
        table = inequalities.monogamy_table(psis, pivot)
        np.testing.assert_array_equal(table["c2_ab"], table["c2_ac"])
        np.testing.assert_array_equal(table["gap_tight"], 0.0)
        assert np.all(inequalities.classify_gaps(table["gap_tight"]) == "saturated")

    @pytest.mark.parametrize("pivot", ["A", "B", "C"])
    def test_no_negative_gap_on_haar_states(self, pivot):
        table = inequalities.monogamy_table(states.sample_haar_batch(11, 10_000), pivot)
        assert np.all(table["gap_tight"] >= 0.0)
        assert np.all(table["gap_fei"] >= 0.0)
        assert np.all(table["gap_tight"] <= table["gap_fei"] + 1e-15)
        # the closed-form gaps are the differences they stand for
        np.testing.assert_allclose(table["gap_tight"], table["c2_abc"] - table["rhs_tight"],
                                   atol=1e-14)
        np.testing.assert_allclose(table["gap_fei"], table["c2_abc"] - table["rhs_fei"],
                                   atol=1e-14)

    @pytest.mark.parametrize("pivot", ["A", "B", "C"])
    def test_pair_trace_difference_is_partner_purity_difference(self, pivot):
        # CKW closure at each partner: T_XY - T_XZ = 2 (Tr rho_Z^2 - Tr rho_Y^2),
        # so gap_tight is 0 exactly when the two partners are equally mixed
        psis = states.sample_haar_batch(13, 10_000)
        t_xy, t_xz, _ = measures.pure_state_invariants(psis, pivot)
        (_, y), (_, z) = measures.pivot_pairs(pivot)

        def purity(q):
            rho = measures.partial_trace(psis, q)
            return np.real(np.einsum("...ij,...ji->...", rho, rho))

        np.testing.assert_allclose(t_xy - t_xz, 2.0 * (purity(z) - purity(y)), rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-6])
    def test_gaps_keep_relative_accuracy_near_saturation(self, delta):
        # a|100> + b|010> + c|001> with b = c + delta: tau = 0 exactly, and both
        # gaps equal 4 a^2 (b - c)^2 / N^2 (N = a^2 + b^2 + c^2), computed here
        # in exact rationals; a difference of two rounded values would only
        # be right to ~1e-16 absolute, far from this value's own scale
        c = 0.5656854249492381
        b = c + delta
        a = math.sqrt(1.0 - b * b - c * c)
        psi = np.zeros(8, dtype=complex)
        psi[4], psi[2], psi[1] = a, b, c
        r = inequalities.build_report(psi, "A")
        assert r.tau == 0.0
        fa, fb, fc = (Fraction(v) for v in (a, b, c))
        want = float(4 * fa**2 * (fb - fc) ** 2 / (fa**2 + fb**2 + fc**2) ** 2)
        assert r.gap_tight == pytest.approx(want, rel=1e-8, abs=0)
        assert r.gap_fei == pytest.approx(want, rel=1e-8, abs=0)

    def test_product_state_has_zero_gaps_without_division(self):
        psi = np.zeros(8, dtype=complex)
        psi[5] = 1.0
        for pivot in ("A", "B", "C"):
            r = inequalities.build_report(psi, pivot)
            assert (r.c2_abc, r.rhs_fei, r.gap_fei, r.gap_tight) == (0.0, 0.0, 0.0, 0.0)
