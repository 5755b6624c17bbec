"""Monogamy relations for a pure three-qubit state.

Three bounds on the bipartition entanglement C^2_X(YZ) are evaluated for
a chosen pivot qubit X with partners Y, Z:

* sum form:            C^2_XY + C^2_XZ <= C^2_X(YZ)
* product form:        C^2_X(YZ) >= 2 sqrt(C^2_XY C^2_XZ + tau^2 / 4)
* tight product form:  C^2_X(YZ) >= 2 sqrt((C^2_XY + tau/2)(C^2_XZ + tau/2))

The tight form dominates the product form, its gap obeys the exact
identity (C^2_X(YZ))^2 - rhs^2 = (C^2_XY - C^2_XZ)^2, and it is
saturated exactly when C_XY = C_XZ.

The inputs come from measures.pure_state_invariants: tau from Cayley's
hyperdeterminant, C^2_XY = Tr(rho_XY rho_tilde_XY) - tau/2 and C^2_X(YZ)
from the purity, with no eigensolve.  tau is therefore identical at every
pivot, and C^2_XY + tau/2 under the tight square root is a sum of squared
moduli: for a pair with no entanglement it is of the order of the squared
roundoff, not of the roundoff itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import pure_state_invariants

__all__ = [
    "SATURATION_TOL",
    "MonogamyReport",
    "fei_rhs",
    "tight_rhs",
    "fei_rhs_values",
    "tight_rhs_values",
    "ckw_holds",
    "classify",
    "classify_gaps",
    "build_report",
    "monogamy_table",
]

# Default absolute tolerance on the gap for saturation / violation calls.
SATURATION_TOL = 1e-9


@dataclass(frozen=True)
class MonogamyReport:
    """Every monogamy-related quantity for one state and one pivot.

    The c2_* fields and tau are clamped to [0, 1]; the values they had
    before clamping sit in raw_unclamped: c2_abc and tau as they are, and
    c_ab, c_ac as the signed square root of the pre-clamp C^2 (negative
    when roundoff pushed C^2 below 0).  Gaps are LHS - RHS, so
    non-negative up to numerical noise.
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
    saturated_tight: bool
    raw_unclamped: dict


def fei_rhs_values(c2_ab, c2_ac, tau):
    """2 sqrt(C^2_XY C^2_XZ + tau^2 / 4) from plain values (stacked ok)."""
    return 2.0 * np.sqrt(np.asarray(c2_ab) * np.asarray(c2_ac) + np.asarray(tau) ** 2 / 4.0)


def tight_rhs_values(c2_ab, c2_ac, tau):
    """2 sqrt((C^2_XY + tau/2)(C^2_XZ + tau/2)) from plain values (stacked ok)."""
    tau = np.asarray(tau)
    x = np.maximum(np.asarray(c2_ab) + tau / 2.0, 0.0)
    y = np.maximum(np.asarray(c2_ac) + tau / 2.0, 0.0)
    return 2.0 * np.sqrt(x * y)


def fei_rhs(report: MonogamyReport) -> float:
    """Right-hand side of the product bound for an existing report."""
    return float(fei_rhs_values(report.c2_ab, report.c2_ac, report.tau))


def tight_rhs(report: MonogamyReport) -> float:
    """Right-hand side of the tight product bound from a report's clamped values.

    report.rhs_tight itself is taken from the pre-clamp values, so the two
    differ only by roundoff, where a clamp moved C^2 or tau.
    """
    return float(tight_rhs_values(report.c2_ab, report.c2_ac, report.tau))


def ckw_holds(report: MonogamyReport, tol: float = SATURATION_TOL):
    """Sum-form check; returns (holds, margin) with margin = tau by construction."""
    margin = report.c2_abc - report.c2_ab - report.c2_ac
    return bool(margin >= -tol), float(margin)


def classify_gaps(gap_tight, tol: float = SATURATION_TOL):
    """Vectorized {saturated, strict, violated} labels for tight gaps."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    gap_tight = np.asarray(gap_tight, dtype=np.float64)
    return np.select(
        [np.abs(gap_tight) <= tol, gap_tight < -tol],
        ["saturated", "violated"],
        default="strict",
    )


def classify(report: MonogamyReport, tol: float = SATURATION_TOL) -> str:
    """Label the tight bound for one report.

    A 'violated' label means the gap is negative beyond tolerance, which
    signals a numerical or implementation bug, never physics.
    """
    return str(classify_gaps(report.gap_tight, tol))


def monogamy_table(psis, pivot: str = "A") -> dict:
    """All report quantities for a stack of states, as arrays.

    Returns a dict with keys c2_ab, c2_ac, c2_abc, tau, rhs_fei,
    rhs_tight, gap_fei, gap_tight (clamped, publication values) plus
    raw_c2_ab, raw_c2_ac, raw_c2_abc, raw_tau (pre-clamp diagnostics).
    The *_ab entries refer to the pair (pivot, first partner in label
    order), *_ac to the second partner.
    """
    raw_c2_ab, raw_c2_ac, raw_c2_abc, raw_tau = pure_state_invariants(psis, pivot)
    c2_ab = np.clip(raw_c2_ab, 0.0, 1.0)
    c2_ac = np.clip(raw_c2_ac, 0.0, 1.0)
    c2_abc = np.clip(raw_c2_abc, 0.0, 1.0)
    tau = np.clip(raw_tau, 0.0, 1.0)
    rhs_f = fei_rhs_values(c2_ab, c2_ac, tau)
    # C^2 + tau/2 is Tr(rho rho_tilde), a sum of squared moduli: taken from
    # the pre-clamp values it stays 0 for a pair with no entanglement, where
    # clamping first would leave the roundoff tau/2 under the square root.
    rhs_t = tight_rhs_values(raw_c2_ab, raw_c2_ac, raw_tau)
    return {
        "c2_ab": c2_ab,
        "c2_ac": c2_ac,
        "c2_abc": c2_abc,
        "tau": tau,
        "rhs_fei": rhs_f,
        "rhs_tight": rhs_t,
        "gap_fei": c2_abc - rhs_f,
        "gap_tight": c2_abc - rhs_t,
        "raw_c2_ab": raw_c2_ab,
        "raw_c2_ac": raw_c2_ac,
        "raw_c2_abc": raw_c2_abc,
        "raw_tau": raw_tau,
    }


def _signed_root(c2: float) -> float:
    return math.copysign(math.sqrt(abs(c2)), c2)


def build_report(psi, pivot: str = "A", tol: float = SATURATION_TOL) -> MonogamyReport:
    """Compose the measures into a single-state MonogamyReport."""
    table = monogamy_table(np.asarray(psi, dtype=np.complex128)[None, :], pivot)
    vals = {k: float(v[0]) for k, v in table.items()}
    return MonogamyReport(
        pivot=pivot,
        c2_ab=vals["c2_ab"],
        c2_ac=vals["c2_ac"],
        c2_abc=vals["c2_abc"],
        tau=vals["tau"],
        rhs_fei=vals["rhs_fei"],
        rhs_tight=vals["rhs_tight"],
        gap_fei=vals["gap_fei"],
        gap_tight=vals["gap_tight"],
        saturated_tight=bool(abs(vals["gap_tight"]) <= tol),
        raw_unclamped={
            "c_ab": _signed_root(vals["raw_c2_ab"]),
            "c_ac": _signed_root(vals["raw_c2_ac"]),
            "c2_abc": vals["raw_c2_abc"],
            "tau": vals["raw_tau"],
        },
    )
