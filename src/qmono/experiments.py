"""Batch runners behind the CLI: ensembles, parameter scans, figure data,
and the closed-form discrepancy audit.

Every runner returns plain row dicts using one fixed CSV schema so all
outputs stay interchangeable for downstream plotting.  Numbers are
serialized with 17 significant digits (round-trip exact for doubles) and
rows are re-validated against the report invariants on write.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms, states, svgplot
from .inequalities import SATURATION_TOL, classify_gaps, monogamy_table

__all__ = [
    "CSV_COLUMNS",
    "SCAN_COLUMNS",
    "EnsembleConfig",
    "InvariantViolation",
    "run_ensemble",
    "run_scan",
    "run_figure",
    "run_discrepancy",
    "summarize",
    "validate_rows",
    "write_rows",
    "format_number",
]

CSV_COLUMNS = [
    "index", "family", "p1", "p2", "p3", "p4", "p5", "theta",
    "c2_ab", "c2_ac", "c2_abc", "tau",
    "rhs_fei", "rhs_tight", "gap_fei", "gap_tight", "class",
]
SCAN_COLUMNS = CSV_COLUMNS + ["note"]

_METRIC_KEYS = ("c2_ab", "c2_ac", "c2_abc", "tau", "rhs_fei", "rhs_tight", "gap_fei", "gap_tight")

# Fixed coefficients of the canonical-a parameter-sweep slice.
SWEEP_DEFAULTS = {"p2": 0.17, "p3": 0.16, "p4": 0.15, "theta": 0.0}


class InvariantViolation(RuntimeError):
    """A computed record failed a structural report invariant."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one batch run."""

    family: str
    count: int
    seed: int
    pivot: str = "A"
    tolerance: float = SATURATION_TOL

    def __post_init__(self):
        if self.family not in states.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def format_number(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _metric_fields(table, labels, i):
    """Metric columns of row i; `labels` is classify_gaps of the whole table."""
    row = {k: float(table[k][i]) for k in _METRIC_KEYS}
    row["class"] = str(labels[i])
    return row


def _ensemble_states(config: EnsembleConfig):
    """States plus per-row parameter columns for each supported family."""
    n = config.count
    empty = {k: "" for k in ("p1", "p2", "p3", "p4", "p5", "theta")}
    if config.family == "haar":
        return states.sample_haar_batch(config.seed, n), [dict(empty) for _ in range(n)]
    if config.family in ("canonical-a", "canonical-b"):
        specs = [states.sample_canonical(states.RngState(config.seed, i), config.family)
                 for i in range(n)]
        psis = np.stack([s.build() for s in specs])
        params = [{"p1": s.p[0], "p2": s.p[1], "p3": s.p[2], "p4": s.p[3],
                   "p5": s.p[4], "theta": s.theta} for s in specs]
        return psis, params
    if config.family == "bell-product":
        p1s = [float(states.RngState(config.seed, i).uniforms(1)[0]) for i in range(n)]
        psis = np.stack([states.make_bell_product(p) for p in p1s])
        params = [dict(empty, p1=p, p2=1.0 - p) for p in p1s]
        return psis, params
    builder = states.make_ghz if config.family == "ghz" else states.make_w
    return np.stack([builder()] * n), [dict(empty) for _ in range(n)]


def run_ensemble(config: EnsembleConfig):
    """Sample the family and report every state; returns (rows, summary)."""
    psis, params = _ensemble_states(config)
    table = monogamy_table(psis, config.pivot)
    labels = classify_gaps(table["gap_tight"], config.tolerance)
    rows = []
    for i in range(config.count):
        row = {"index": i, "family": config.family, **params[i],
               **_metric_fields(table, labels, i)}
        rows.append(row)
    return rows, summarize(rows, config)


def summarize(rows, config: EnsembleConfig) -> dict:
    """Distribution summary of the gaps plus classification counts."""
    gf = np.array([r["gap_fei"] for r in rows], dtype=np.float64)
    gt = np.array([r["gap_tight"] for r in rows], dtype=np.float64)
    classes = [r["class"] for r in rows]
    return {
        "family": config.family,
        "count": len(rows),
        "seed": config.seed,
        "pivot": config.pivot,
        "tolerance": config.tolerance,
        "gap_fei": {"min": float(gf.min()), "median": float(np.median(gf)), "max": float(gf.max())},
        "gap_tight": {"min": float(gt.min()), "median": float(np.median(gt)), "max": float(gt.max())},
        "saturated": classes.count("saturated"),
        "violated": classes.count("violated"),
    }


def run_scan(family, lo, hi, steps, pivot="A", tolerance=SATURATION_TOL, fixed=None):
    """Monotone grid over p1; infeasible points keep a note and no metrics.

    For the canonical families the remaining coefficients are held fixed
    (defaults in SWEEP_DEFAULTS) and p5 is determined by normalization,
    which is the only way p1 and p5 can vary together over a rectangle
    while the states stay normalized.
    """
    if family not in ("bell-product", "canonical-a", "canonical-b"):
        raise ValueError(f"scan supports bell-product and canonical families, got {family!r}")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    fixed = {**SWEEP_DEFAULTS, **(fixed or {})}
    grid = np.linspace(float(lo), float(hi), int(steps))
    rows = []
    buildable = []
    empty = {k: "" for k in ("p1", "p2", "p3", "p4", "p5", "theta")}
    for i, p1 in enumerate(grid):
        row = {"index": i, "family": family, **empty,
               **{k: "" for k in _METRIC_KEYS}, "class": "", "note": ""}
        if family == "bell-product":
            if 0.0 <= p1 <= 1.0:
                row.update(p1=float(p1), p2=1.0 - float(p1))
                buildable.append((i, states.make_bell_product(p1)))
            else:
                row["note"] = "infeasible: p1 outside [0, 1]"
        else:
            p2, p3, p4 = fixed["p2"], fixed["p3"], fixed["p4"]
            p5sq = 1.0 - p1 * p1 - p2 * p2 - p3 * p3 - p4 * p4
            if p1 >= 0.0 and p5sq >= 0.0:
                p5 = math.sqrt(p5sq)
                p = (float(p1), p2, p3, p4, p5)
                maker = states.make_canonical_a if family == "canonical-a" else states.make_canonical_b
                row.update(p1=p[0], p2=p2, p3=p3, p4=p4, p5=p5, theta=fixed["theta"])
                buildable.append((i, maker(p, fixed["theta"])))
            else:
                row["note"] = "infeasible: no normalized state for this p1"
        rows.append(row)
    if buildable:
        table = monogamy_table(np.stack([psi for _, psi in buildable]), pivot)
        labels = classify_gaps(table["gap_tight"], tolerance)
        for j, (i, _) in enumerate(buildable):
            rows[i].update(_metric_fields(table, labels, j))
    return rows


_FIGURES = {
    1: ("canonical-a", "ensemble", ("c2_abc", "rhs_tight", "rhs_fei")),
    2: ("canonical-a", "scan", ("c2_abc", "rhs_tight", "rhs_fei")),
    3: ("canonical-a", "ensemble", ("c2_abc", "rhs_tight")),
    4: ("canonical-b", "ensemble", ("c2_abc", "rhs_tight")),
}

_SERIES_LABEL = {
    "c2_abc": "C2 pivot|(rest)  (LHS)",
    "rhs_tight": "tight product RHS",
    "rhs_fei": "product RHS",
}


def run_figure(which, seed, n=100, pivot="A", tolerance=SATURATION_TOL):
    """Rows plus SVG series for one of the four comparison figures.

    Figures 1, 3, 4 plot ensemble samples against the sample index;
    figure 2 sweeps p1 with the other coefficients fixed and p5
    determined by normalization.  Returns (rows, columns, series,
    title, xlabel).
    """
    if which not in _FIGURES:
        raise ValueError(f"figure must be one of {sorted(_FIGURES)}, got {which!r}")
    family, mode, keys = _FIGURES[which]
    if mode == "ensemble":
        rows, _ = run_ensemble(EnsembleConfig(family=family, count=n, seed=seed,
                                              pivot=pivot, tolerance=tolerance))
        xlabel, columns, kind = "sample index", CSV_COLUMNS, "scatter"
        x_key = "index"
    else:
        rows = run_scan(family, 0.4, 0.5, n, pivot=pivot, tolerance=tolerance)
        xlabel, columns, kind = "p1", SCAN_COLUMNS, "line"
        x_key = "p1"
    usable = [r for r in rows if r.get("note", "") == ""]
    xs = [r[x_key] for r in usable]
    series = [svgplot.Series(_SERIES_LABEL[k], xs, [r[k] for r in usable], kind) for k in keys]
    title = f"figure {which}: {family}, bound comparison at pivot {pivot}"
    return rows, columns, series, title, xlabel


def validate_rows(rows):
    """Re-check the report invariants on every complete row before writing.

    A row is violated when its class label says so; the label already
    carries the tolerance the row was classified with.
    """
    for row in rows:
        if row.get("note"):
            continue
        if row.get("c2_ab", "") == "":
            continue
        idx = row.get("index", "?")
        closure = abs(row["c2_abc"] - (row["c2_ab"] + row["c2_ac"] + row["tau"]))
        if closure > 1e-9:
            raise InvariantViolation(f"row {idx}: tau closure off by {closure:.3e}")
        if row["gap_tight"] > row["gap_fei"] + 1e-12:
            raise InvariantViolation(f"row {idx}: tight gap exceeds the product-form gap")
        for key in ("c2_ab", "c2_ac", "c2_abc", "tau"):
            if not -1e-12 <= row[key] <= 1.0 + 1e-12:
                raise InvariantViolation(f"row {idx}: {key} = {row[key]!r} outside [0, 1]")
        if row["class"] == "violated":
            raise InvariantViolation(
                f"row {idx}: negative tight gap {row['gap_tight']:.3e} beyond tolerance")


def write_rows(path, rows, columns, fmt="csv"):
    """Serialize rows to CSV (17 significant digits) or JSON."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if fmt == "json":
        payload = [{c: row.get(c, "") for c in columns} for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_number(row.get(c, "")) for c in columns])


def run_discrepancy(family, n=200, seed=0):
    """Audit the candidate closed forms against numerical ground truth.

    Returns rows with keys formula, max_abs_dev, note.  Alongside each
    candidate, algebraic variants and theta = 0 slices are measured so
    the pattern of any disagreement (wrong power, wrong sign, missing
    theta dependence) is visible from the numbers themselves.
    """
    if family not in ("canonical-a", "canonical-b"):
        raise ValueError(f"discrepancy supports the canonical families, got {family!r}")
    make = states.make_canonical_a if family == "canonical-a" else states.make_canonical_b
    cand = (closed_forms.canonical_a_candidates if family == "canonical-a"
            else closed_forms.canonical_b_candidates)
    specs = [states.sample_canonical(states.RngState(seed, i), family) for i in range(n)]
    p = np.array([s.p for s in specs])
    theta = np.array([s.theta for s in specs])
    truth = monogamy_table(np.stack([s.build() for s in specs]), "A")
    truth0 = monogamy_table(np.stack([make(s.p, 0.0) for s in specs]), "A")
    got = cand(p, theta)
    got0 = cand(p, 0.0)

    def dev(cand_vals, truth_vals):
        return float(np.max(np.abs(np.asarray(cand_vals) - truth_vals)))

    rows = [
        {"formula": "c2_ab", "max_abs_dev": dev(got["c2_ab"], truth["c2_ab"]),
         "note": "candidate vs numerics, sampled theta"},
        {"formula": "c2_ab (theta=0 slice)", "max_abs_dev": dev(got0["c2_ab"], truth0["c2_ab"]),
         "note": "same candidate, theta forced to 0"},
        {"formula": "c2_ac", "max_abs_dev": dev(got["c2_ac"], truth["c2_ac"]),
         "note": "candidate vs numerics, sampled theta"},
        {"formula": "c2_ac (theta=0 slice)", "max_abs_dev": dev(got0["c2_ac"], truth0["c2_ac"]),
         "note": "same candidate, theta forced to 0"},
        {"formula": "c2_abc", "max_abs_dev": dev(got["c2_abc"], truth["c2_abc"]),
         "note": "candidate vs numerics"},
        {"formula": "tau", "max_abs_dev": dev(got["tau"], truth["tau"]),
         "note": "candidate vs numerics, sampled theta"},
        {"formula": "tau (outer square removed)", "max_abs_dev": dev(got["tau_unsquared"], truth["tau"]),
         "note": "variant: candidate without its outer square"},
        {"formula": "tau (outer square removed, theta=0 slice)",
         "max_abs_dev": dev(got0["tau_unsquared"], truth0["tau"]),
         "note": "the same variant on the theta=0 slice"},
    ]
    if family == "canonical-a":
        rows.insert(5, {"formula": "c2_abc (sign-adjusted variant)",
                        "max_abs_dev": dev(got["c2_abc_sign_adjusted"], truth["c2_abc"]),
                        "note": "variant: p1^4, p2^2, p2^4 signs flipped"})
    else:
        rows.insert(5, {"formula": "c2_abc (exponent-adjusted variant)",
                        "max_abs_dev": dev(got["c2_abc_exponent_adjusted"], truth["c2_abc"]),
                        "note": "variant: leading p4^2 raised to p4^4"})
    return rows
