"""Closed-form expressions for the parametrized state families.

The bell-product forms are exact and double as test oracles.  The
canonical-family entries are candidate formulas audited by the
discrepancy command: several of them disagree with direct numerical
evaluation (wrong powers or signs), so they are kept verbatim here and
compared, never used as ground truth.  Each candidate function also
returns algebraic variants that the audit uses to exhibit the pattern of
the disagreement (for example, the tau candidates match numerics once an
apparent extra outer square is removed).

All functions broadcast: p may be shaped (..., 5) and theta (...,).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bell_product_closed_forms",
    "canonical_a_candidates",
    "canonical_b_candidates",
]


def bell_product_closed_forms(p1):
    """Exact squared concurrences of the Bell-times-product family.

    Returns a dict with c2_ab = p1^2, c2_ac = 2 p1 p2, c2_abc =
    p1 (p2 + 1) and tau = 0, where p2 = 1 - p1.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = 1.0 - p1
    return {
        "c2_ab": p1**2,
        "c2_ac": 2.0 * p1 * p2,
        "c2_abc": p1 * (p2 + 1.0),
        "tau": np.zeros_like(p1),
    }


def _unpack(p):
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1:] != (5,):
        raise ValueError(f"need 5 parameters on the last axis, got shape {p.shape}")
    return p[..., 0], p[..., 1], p[..., 2], p[..., 3], p[..., 4]


def canonical_a_candidates(p, theta=0.0):
    """Candidate closed forms for the first canonical family.

    Keys c2_ab, c2_ac, c2_abc, tau are the expressions under audit.
    Keys tau_unsquared (outer square removed) and c2_abc_sign_adjusted
    (signs of the p1^4, p2^2, p2^4 terms flipped) are the variants the
    discrepancy report contrasts against them.
    """
    p1, p2, p3, p4, p5 = _unpack(p)
    ct = np.cos(np.asarray(theta, dtype=np.float64))
    tau_core = p2**2 * p4**2 + p1**2 * p5**2 - 2.0 * p1 * p2 * p4 * p5 * ct
    return {
        "c2_ab": 4.0 * (p2**2 * p5**2 + p1**2 * p4**2 * ct**2 + 2.0 * p1 * p2 * p4 * p5 * ct),
        "c2_ac": 4.0 * p2**2 * p3**2,
        "c2_abc": 4.0 * (p1**4 - p2**2 + p2**4 + p1**2 * (1.0 - 2.0 * p2**2 - p3**2)),
        "tau": 4.0 * tau_core**2,
        "tau_unsquared": 4.0 * tau_core,
        "c2_abc_sign_adjusted": 4.0 * (-(p1**4) + p2**2 - p2**4 + p1**2 * (1.0 - 2.0 * p2**2 - p3**2)),
    }


def canonical_b_candidates(p, theta=0.0):
    """Candidate closed forms for the second canonical family.

    Same key layout as canonical_a_candidates, except the c2_abc variant
    here raises the leading p4^2 term to p4^4 (a one-exponent repair that
    reconciles the candidate with direct evaluation).  These candidates
    carry no theta dependence, so the tau variant agrees with numerics
    only on the theta = 0 slice.
    """
    p1, p2, p3, p4, p5 = _unpack(p)
    del theta  # the audited candidates carry no theta dependence
    tau_core = 4.0 * p2 * p3 * p4 + p1**2 * p5
    return {
        "c2_ab": 4.0 * (p3 * p4 - p2 * p5) ** 2,
        "c2_ac": 4.0 * (p2 * p4 - p3 * p5) ** 2,
        "c2_abc": -4.0 * (p4**2 - p5**2 + p5**4 + p4**2 * (-1.0 + p1**2 + 2.0 * p5**2)),
        "tau": 4.0 * p5**2 * tau_core**2,
        "tau_unsquared": 4.0 * p5 * tau_core,
        "c2_abc_exponent_adjusted": -4.0 * (p4**4 - p5**2 + p5**4 + p4**2 * (-1.0 + p1**2 + 2.0 * p5**2)),
    }
