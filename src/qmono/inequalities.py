"""Monogamy relations for a pure three-qubit state.

Three bounds on the bipartition entanglement C^2_X(YZ) are evaluated for
a chosen pivot qubit X with partners Y, Z:

* sum form:            C^2_XY + C^2_XZ <= C^2_X(YZ)
* product form:        C^2_X(YZ) >= 2 sqrt(C^2_XY C^2_XZ + tau^2 / 4)
* tight product form:  C^2_X(YZ) >= 2 sqrt((C^2_XY + tau/2)(C^2_XZ + tau/2))

Every column comes from the three numbers of
measures.pure_state_invariants: the pair traces T_XY = Tr(rho_XY
rho_tilde_XY) = C^2_XY + tau/2, T_XZ, and tau from Cayley's
hyperdeterminant, with no eigensolve.  With the CKW closure C^2_X(YZ) =
T_XY + T_XZ the bounds and their gaps are, exactly,

    rhs_tight = 2 sqrt(T_XY T_XZ)
    gap_tight = (sqrt T_XY - sqrt T_XZ)^2
    gap_fei   = [(T_XY - T_XZ)^2 + 2 tau (C^2_XY + C^2_XZ)] / (C^2_X(YZ) + rhs_fei)

The sum form has no column of its own: by the closure, its gap
C^2_X(YZ) - (C^2_XY + C^2_XZ) is tau, so the tau column is that gap.
These identities hold by construction, not within a tolerance: tau is
identical at every pivot, neither gap is ever negative, and the tight gap
is exactly 0 when T_XY == T_XZ, i.e. when C_XY = C_XZ.  The CKW closure
at each partner qubit gives

    T_XY - T_XZ = 2 (Tr rho_Z^2 - Tr rho_Y^2),

so the tight bound is saturated exactly when the pivot's two partners
are equally mixed.  The tight form dominates the product form (gap_tight
<= gap_fei), and its gap obeys (C^2_X(YZ))^2 - rhs_tight^2 = (C^2_XY -
C^2_XZ)^2.

monogamy_table and build_report derive the columns in one body,
_columns, from the three invariants: on arrays for a stack, on Python
floats for one state.  Both take the complex part of the invariants
(measures.pure_state_forms) from numpy, whose complex products and
moduli carry its SIMD dispatch in their bits; everything after it is
+ - * /, sqrt and a clamp, correctly rounded on either carrier, so a
report is one row of the table bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .measures import invariants_from_forms, pure_state_forms, pure_state_invariants

__all__ = [
    "SATURATION_TOL",
    "MonogamyReport",
    "classify",
    "classify_gaps",
    "build_report",
    "monogamy_table",
]

# Default absolute tolerance on the gap for saturation / violation calls.
SATURATION_TOL = 1e-9
# The metric columns of a report, in MonogamyReport's field order.
METRIC_KEYS = ("c2_ab", "c2_ac", "c2_abc", "tau", "rhs_fei", "rhs_tight", "gap_fei", "gap_tight")
# classify_gaps labels, indexed by (|g| <= tol) + 2 (g < -tol); NaN is strict
_GAP_LABELS = np.array(["strict", "saturated", "violated"])


@dataclass(frozen=True)
class MonogamyReport:
    """Every monogamy-related quantity for one state and one pivot.

    The c2_* fields and tau are clamped to [0, 1]; the values they had
    before clamping sit in raw_unclamped: c2_abc (= T_XY + T_XZ, the sum
    of the two pair traces) and tau as they are, and c_ab, c_ac as the
    signed square root of the pre-clamp C^2 = T - tau/2 (negative when
    roundoff pushed C^2 below 0).  The one-qubit purity route,
    measures.concurrence_bipartition, is the independent check of c2_abc.
    Gaps are LHS - RHS in closed forms that are never negative.
    """

    pivot: str
    c2_ab: float
    c2_ac: float
    c2_abc: float
    tau: float
    rhs_fei: float
    rhs_tight: float
    gap_fei: float
    gap_tight: float
    raw_unclamped: dict


def _check_tol(tol):
    """Reject a gap tolerance that is not a finite positive number."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {float(tol)!r}")
    if tol <= 0:
        raise ValueError("tol must be positive")


def classify_gaps(gap_tight, tol: float = SATURATION_TOL):
    """Vectorized {saturated, strict, violated} labels for tight gaps."""
    _check_tol(tol)
    gap_tight = np.asarray(gap_tight, dtype=np.float64)
    # tol > 0, so at most one term is set; `...` keeps a 0-d gap's label an array
    return _GAP_LABELS[(np.abs(gap_tight) <= tol) + 2 * (gap_tight < -tol), ...]


def classify(report: MonogamyReport, tol: float = SATURATION_TOL) -> str:
    """Label the tight bound for one report.

    A 'violated' label means the gap is negative beyond tolerance, which
    signals a numerical or implementation bug, never physics.
    """
    return classify_gaps(report.gap_tight, tol).item()


class _Ops(NamedTuple):
    """What the column body takes from its operand type."""

    sqrt: Callable
    clip: Callable  # clip(x, lo, hi)
    divide_or_zero: Callable  # n / d where d > 0, else 0


def _array_divide_or_zero(n, d):
    return np.divide(n, d, out=np.zeros(n.shape), where=d > 0.0)


def _float_divide_or_zero(n, d):
    return n / d if d > 0.0 else 0.0


def _float_clip(x, lo, hi):
    return lo if x < lo else hi if x > hi else x


_NUMPY_OPS = _Ops(np.sqrt, np.clip, _array_divide_or_zero)
_MATH_OPS = _Ops(math.sqrt, _float_clip, _float_divide_or_zero)


def _columns(t_ab, t_ac, raw_tau, ops):
    """Every monogamy_table column from (T_XY, T_XZ, tau): one body for stacks and floats.

    ops is _NUMPY_OPS for arrays and _MATH_OPS for Python floats.  Apart
    from them the body is + - * / alone, each correctly rounded, so the two
    agree bit for bit.  Squares are x * x: numpy's ** 2 is a multiply, but
    Python's calls pow.
    """
    sqrt, clip, divide_or_zero = ops
    half_tau = raw_tau / 2.0
    raw_c2_ab = t_ab - half_tau
    raw_c2_ac = t_ac - half_tau
    raw_c2_abc = t_ab + t_ac
    c2_ab, c2_ac, c2_abc, tau = (clip(x, 0.0, 1.0) for x in (raw_c2_ab, raw_c2_ac, raw_c2_abc, raw_tau))
    # the product-form RHS, 2 sqrt(C^2_XY C^2_XZ + tau^2 / 4)
    rhs_f = 2.0 * sqrt(c2_ab * c2_ac + tau * tau / 4.0)
    # (C^2_X(YZ))^2 - rhs_fei^2 as a sum of non-negative terms; numerator
    # and denominator are 0 only together (a product state), gap 0.
    t_diff = t_ab - t_ac
    gap_f = divide_or_zero(t_diff * t_diff + 2.0 * tau * (c2_ab + c2_ac), c2_abc + rhs_f)
    root_diff = sqrt(t_ab) - sqrt(t_ac)
    return {
        "c2_ab": c2_ab,
        "c2_ac": c2_ac,
        "c2_abc": c2_abc,
        "tau": tau,
        "rhs_fei": rhs_f,
        "rhs_tight": 2.0 * sqrt(t_ab * t_ac),
        "gap_fei": gap_f,
        "gap_tight": root_diff * root_diff,
        "raw_c2_ab": raw_c2_ab,
        "raw_c2_ac": raw_c2_ac,
        "raw_c2_abc": raw_c2_abc,
        "raw_tau": raw_tau,
    }


def monogamy_table(psis, pivot: str = "A") -> dict:
    """All report quantities for a stack of states, as arrays.

    Returns a dict with keys c2_ab, c2_ac, c2_abc, tau, rhs_fei,
    rhs_tight, gap_fei, gap_tight (clamped, publication values) plus
    raw_c2_ab, raw_c2_ac, raw_c2_abc, raw_tau (pre-clamp diagnostics).
    The *_ab entries refer to the pair (pivot, first partner in label
    order), *_ac to the second partner.
    """
    return _columns(*pure_state_invariants(psis, pivot), _NUMPY_OPS)


def _signed_root(c2: float) -> float:
    return math.copysign(math.sqrt(abs(c2)), c2)


def build_report(psi, pivot: str = "A") -> MonogamyReport:
    """One row of monogamy_table as a MonogamyReport; classify labels it.

    The complex part of the invariants runs on the (1, 8) stack, as in
    the table.  Its forms, |det G| and <psi|psi> then leave numpy, and the
    real part and the column body run on Python floats: the same bits as
    the table's row, at a fraction of the numpy calls on one-element arrays.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise ValueError(f"build_report takes one state, got shape {psi.shape}")
    g_xy, g_xz, abs_det, norm2 = pure_state_forms(psi[None, :], pivot)
    invariants = invariants_from_forms(tuple(g.item() for g in g_xy), tuple(g.item() for g in g_xz),
                                       abs_det.item(), norm2.item())
    vals = _columns(*invariants, _MATH_OPS)
    return MonogamyReport(
        pivot=pivot,
        **{k: vals[k] for k in METRIC_KEYS},
        raw_unclamped={
            "c_ab": _signed_root(vals["raw_c2_ab"]),
            "c_ac": _signed_root(vals["raw_c2_ac"]),
            "c2_abc": vals["raw_c2_abc"],
            "tau": vals["raw_tau"],
        },
    )
