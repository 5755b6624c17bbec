"""Closed forms: the exact bell-product oracle and the audited candidates.

The numerical pipeline is the ground truth here.  For the candidate
formulas the tests freeze the audit's findings: which expressions agree
everywhere, which only on the theta = 0 slice, and which only after a
specific algebraic repair.
"""

import numpy as np
import pytest

from qmono import closed_forms, states
from qmono.inequalities import monogamy_table


def _sampled(family, n=60, seed=42):
    make = states.make_canonical_a if family == "canonical-a" else states.make_canonical_b
    specs = [states.sample_canonical(states.RngState(seed, i), family) for i in range(n)]
    p = np.array([s.p for s in specs])
    theta = np.array([s.theta for s in specs])
    psis = np.stack([make(s.p, s.theta) for s in specs])
    return p, theta, monogamy_table(psis, "A")


def _sampled_theta0(family, n=60, seed=42):
    make = states.make_canonical_a if family == "canonical-a" else states.make_canonical_b
    specs = [states.sample_canonical(states.RngState(seed, i), family) for i in range(n)]
    p = np.array([s.p for s in specs])
    psis = np.stack([make(s.p, 0.0) for s in specs])
    return p, monogamy_table(psis, "A")


class TestBellProduct:
    def test_matches_numerics_on_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        want = closed_forms.bell_product_closed_forms(grid)
        table = monogamy_table(np.stack([states.make_bell_product(x) for x in grid]), "A")
        for key in ("c2_ab", "c2_ac", "c2_abc", "tau"):
            np.testing.assert_allclose(table[key], want[key], atol=1e-10)

    def test_unsquared_concurrences(self):
        # C_AB = p1 and C_AC = sqrt(2 p1 p2) directly
        grid = np.linspace(0.0, 1.0, 101)
        table = monogamy_table(np.stack([states.make_bell_product(x) for x in grid]), "A")
        np.testing.assert_allclose(np.sqrt(table["c2_ab"]), grid, atol=1e-10)
        np.testing.assert_allclose(np.sqrt(table["c2_ac"]),
                                   np.sqrt(2.0 * grid * (1.0 - grid)), atol=1e-10)


class TestCanonicalA:
    def test_c2_ac_confirmed_at_any_theta(self):
        p, theta, table = _sampled("canonical-a")
        got = closed_forms.canonical_a_candidates(p, theta)
        np.testing.assert_allclose(got["c2_ac"], table["c2_ac"], atol=1e-10)

    def test_c2_ab_agrees_only_on_theta0_slice(self):
        p, theta, table = _sampled("canonical-a")
        got = closed_forms.canonical_a_candidates(p, theta)
        assert np.max(np.abs(got["c2_ab"] - table["c2_ab"])) > 1e-3
        p0, table0 = _sampled_theta0("canonical-a")
        got0 = closed_forms.canonical_a_candidates(p0, 0.0)
        np.testing.assert_allclose(got0["c2_ab"], table0["c2_ab"], atol=1e-6)

    def test_c2_abc_needs_sign_repair(self):
        p, theta, table = _sampled("canonical-a")
        got = closed_forms.canonical_a_candidates(p, theta)
        assert np.max(np.abs(got["c2_abc"] - table["c2_abc"])) > 1e-3
        np.testing.assert_allclose(got["c2_abc_sign_adjusted"], table["c2_abc"], atol=1e-10)

    def test_tau_needs_outer_square_removed(self):
        p, theta, table = _sampled("canonical-a")
        got = closed_forms.canonical_a_candidates(p, theta)
        assert np.max(np.abs(got["tau"] - table["tau"])) > 1e-3
        np.testing.assert_allclose(got["tau_unsquared"], table["tau"], atol=1e-10)

    def test_product_state_limit(self):
        # single nonzero coefficient: all quantities vanish and every
        # candidate evaluates to zero as well
        p = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        got = closed_forms.canonical_a_candidates(p, 0.0)
        table = monogamy_table(states.make_canonical_a(tuple(p), 0.0)[None, :], "A")
        for key in ("c2_ab", "c2_ac", "c2_abc", "tau"):
            assert float(np.abs(got[key])) == pytest.approx(0.0, abs=1e-15)
            assert float(table[key][0]) == pytest.approx(0.0, abs=1e-12)


class TestCanonicalB:
    def test_pair_forms_agree_only_on_theta0_slice(self):
        p, theta, table = _sampled("canonical-b")
        got = closed_forms.canonical_b_candidates(p, theta)
        assert np.max(np.abs(got["c2_ab"] - table["c2_ab"])) > 1e-3
        assert np.max(np.abs(got["c2_ac"] - table["c2_ac"])) > 1e-3
        p0, table0 = _sampled_theta0("canonical-b")
        got0 = closed_forms.canonical_b_candidates(p0, 0.0)
        np.testing.assert_allclose(got0["c2_ab"], table0["c2_ab"], atol=1e-6)
        np.testing.assert_allclose(got0["c2_ac"], table0["c2_ac"], atol=1e-6)

    def test_c2_abc_needs_exponent_repair(self):
        p, theta, table = _sampled("canonical-b")
        got = closed_forms.canonical_b_candidates(p, theta)
        assert np.max(np.abs(got["c2_abc"] - table["c2_abc"])) > 1e-3
        np.testing.assert_allclose(got["c2_abc_exponent_adjusted"], table["c2_abc"], atol=1e-10)

    def test_tau_variant_agrees_on_theta0_slice(self):
        p0, table0 = _sampled_theta0("canonical-b")
        got0 = closed_forms.canonical_b_candidates(p0, 0.0)
        np.testing.assert_allclose(got0["tau_unsquared"], table0["tau"], atol=1e-10)

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(ValueError):
            closed_forms.canonical_b_candidates(np.ones(4))

    @pytest.mark.parametrize("candidates", [closed_forms.canonical_a_candidates,
                                            closed_forms.canonical_b_candidates])
    def test_rejects_scalar_parameters(self, candidates):
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            candidates(0.5)
