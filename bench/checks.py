"""Checks of qmono's outputs against the reference values in oracle.py.

Each check reads what one CLI call wrote (its files and its captured
standard output), rebuilds the inputs independently, and returns a list
of problems; an empty list means the output is right.  The checks run
after the timed region, so they cost the measured program nothing.
"""

from __future__ import annotations

import csv
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import oracle
from oracle import IDENTITY_TOL, METRICS, SATURATION_TOL, VALUE_TOL

PARAMS = ("p1", "p2", "p3", "p4", "p5", "theta")
CSV_COLUMNS = ["index", "family", *PARAMS, *METRICS, "class"]
SCAN_COLUMNS = CSV_COLUMNS + ["note"]
# Coefficients qmono's scans and figure 2 hold fixed while p1 moves.
SWEEP_FIXED = (0.17, 0.16, 0.15)
# Problems listed per check before the rest are only counted.
_SHOWN = 3


def _where(mask, what, index=None):
    """One problem line for the rows flagged in `mask`, or none."""
    bad = np.flatnonzero(mask)
    if not bad.size:
        return []
    rows = bad if index is None else np.asarray(index)[bad]
    shown = ", ".join(str(int(r)) for r in rows[:_SHOWN])
    more = f" (+{bad.size - _SHOWN} more)" if bad.size > _SHOWN else ""
    return [f"{what} at rows {shown}{more}"]


def row_properties(v: dict, classes) -> list:
    """Identities every reported row must satisfy, whatever the state.

    closure C2_X(YZ) = C2_XY + C2_XZ + tau; the gap identity
    C2_X(YZ)^2 - rhs_tight^2 = (C2_XY - C2_XZ)^2; gap_tight >= -tol;
    gap_tight <= gap_fei; every value in [0, 1]; the class label agrees
    with the tight gap.
    """
    problems = []
    closure = np.abs(v["c2_abc"] - (v["c2_ab"] + v["c2_ac"] + v["tau"]))
    problems += _where(closure > IDENTITY_TOL, "closure C2_X(YZ) = C2_XY + C2_XZ + tau broken")
    ident = np.abs(v["c2_abc"] ** 2 - v["rhs_tight"] ** 2 - (v["c2_ab"] - v["c2_ac"]) ** 2)
    problems += _where(ident > IDENTITY_TOL, "gap identity broken")
    problems += _where(v["gap_tight"] < -SATURATION_TOL, "tight bound violated")
    problems += _where(v["gap_tight"] > v["gap_fei"] + IDENTITY_TOL, "gap_tight exceeds gap_fei")
    for key in ("c2_ab", "c2_ac", "c2_abc", "tau", "rhs_fei", "rhs_tight"):
        problems += _where((v[key] < 0.0) | (v[key] > 1.0 + IDENTITY_TOL), f"{key} outside [0, 1]")
    problems += _where(np.asarray(classes) != oracle.classify(v["gap_tight"]),
                       "class label disagrees with gap_tight")
    return problems


def check_values(v: dict, classes, psi, pivot, index=None) -> list:
    """Row properties plus agreement with the reference to VALUE_TOL."""
    problems = row_properties(v, classes)
    ref = oracle.monogamy_values(psi, pivot)
    for key in METRICS:
        dev = np.abs(np.asarray(v[key]) - ref[key])
        worst = float(np.max(dev)) if dev.size else 0.0
        problems += [f"{p}; worst |dev| {worst:.3e}"
                     for p in _where(dev > VALUE_TOL, f"{key} off the reference", index)]
    return problems


def _column(rows, key):
    return np.array([float(r[key]) for r in rows], dtype=np.float64)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [dict(zip(header, rec)) for rec in reader]


def _parse_summary(stdout):
    """saturated / violated counts from `ensemble`'s summary lines."""
    last = stdout.strip().splitlines()[-1]
    counts = dict(part.split("=") for part in last.split())
    return int(counts["saturated"]), int(counts["violated"])


def check_ensemble(path, family, seed, n, pivot, stdout=None) -> list:
    """One `ensemble` CSV: parameters from the streams, values from the oracle."""
    header, rows = read_csv(path)
    if header != CSV_COLUMNS:
        return [f"{path}: header {header}"]
    if [r["index"] for r in rows] != [str(i) for i in range(n)]:
        return [f"{path}: expected indices 0..{n - 1}"]
    if any(r["family"] != family for r in rows):
        return [f"{path}: family column is not {family}"]
    problems = []
    if family == "haar":
        if any(r[k] for r in rows for k in PARAMS):
            problems.append("haar rows carry parameters")
        psi = oracle.haar_states(seed, n)
    elif family == "bell-product":
        p1 = oracle.bell_product_p1(seed, n)
        problems += _where(_column(rows, "p1") != p1, "p1 differs from its stream")
        problems += _where(_column(rows, "p2") != 1.0 - p1, "p2 is not 1 - p1")
        psi = oracle.bell_product_states(_column(rows, "p1"), _column(rows, "p2"))
    else:
        p, theta = oracle.canonical_params(seed, n)
        got = np.stack([_column(rows, k) for k in PARAMS[:5]], axis=1)
        problems += _where(np.any(got != p, axis=1), "p1..p5 differ from their stream")
        problems += _where(_column(rows, "theta") != theta, "theta differs from its stream")
        psi = oracle.canonical_states(family, got, _column(rows, "theta"))
    v = {k: _column(rows, k) for k in METRICS}
    classes = np.array([r["class"] for r in rows])
    problems += check_values(v, classes, psi, pivot)
    if stdout is not None:
        expected = (int(np.sum(classes == "saturated")), int(np.sum(classes == "violated")))
        if _parse_summary(stdout) != expected:
            problems.append(f"summary counts {_parse_summary(stdout)} != CSV counts {expected}")
    return [f"{os.path.basename(path)}: {p}" for p in problems]


def scan_grid(family, lo, hi, steps):
    """(p1 grid, feasible mask, p5 or None) of a p1 scan."""
    grid = np.linspace(float(lo), float(hi), int(steps))
    if family == "bell-product":
        return grid, (grid >= 0.0) & (grid <= 1.0), None
    p2, p3, p4 = SWEEP_FIXED
    p5sq = 1.0 - grid * grid - p2 * p2 - p3 * p3 - p4 * p4
    ok = (grid >= 0.0) & (p5sq >= 0.0)
    return grid, ok, np.sqrt(np.where(ok, p5sq, 0.0))


def check_scan(path, fmt, family, lo, hi, steps, pivot, stdout=None) -> list:
    """One `scan` output (CSV or JSON): grid, feasibility notes and values."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        rows = [{k: ("" if r[k] == "" else str(r[k])) for k in SCAN_COLUMNS} for r in rows]
    else:
        header, rows = read_csv(path)
        if header != SCAN_COLUMNS:
            return [f"{path}: header {header}"]
    grid, ok, p5 = scan_grid(family, lo, hi, steps)
    if len(rows) != len(grid):
        return [f"{path}: {len(rows)} rows for {len(grid)} grid points"]
    problems = []
    noted = np.array([r["note"] != "" for r in rows])
    problems += _where(noted != ~ok, "feasibility note disagrees with the grid")
    good = [r for r, keep in zip(rows, ok) if keep]
    idx = np.flatnonzero(ok)
    if any(r[k] != "" for r, keep in zip(rows, ok) if not keep for k in METRICS):
        problems.append("infeasible row carries values")
    if good:
        p1 = _column(good, "p1")
        problems += _where(p1 != grid[ok], "p1 differs from the grid", idx)
        if family == "bell-product":
            psi = oracle.bell_product_states(p1)
        else:
            p = np.column_stack([p1, *[np.full(len(p1), c) for c in SWEEP_FIXED], p5[ok]])
            problems += _where(_column(good, "p5") != p5[ok], "p5 differs from normalization", idx)
            psi = oracle.canonical_states(family, p, 0.0)
        v = {k: _column(good, k) for k in METRICS}
        problems += check_values(v, np.array([r["class"] for r in good]), psi, pivot, idx)
    if stdout is not None:
        first = stdout.strip().splitlines()[0]
        if f"feasible={len(good)} skipped={len(rows) - len(good)}" not in first:
            problems.append(f"summary line {first!r} disagrees with the rows")
    return [f"{os.path.basename(path)}: {p}" for p in problems]


# (family, mode, number of plotted series) of each figure
FIGURES = {1: ("canonical-a", "ensemble", 3), 2: ("canonical-a", "scan", 3),
           3: ("canonical-a", "ensemble", 2), 4: ("canonical-b", "ensemble", 2)}


def check_figure(out_dir, which, seed, n, stdout=None) -> list:
    """figN.csv against the oracle, figN.svg for one mark per plotted value."""
    family, mode, series = FIGURES[which]
    csv_path = os.path.join(out_dir, f"fig{which}.csv")
    svg_path = os.path.join(out_dir, f"fig{which}.svg")
    if mode == "ensemble":
        problems = check_ensemble(csv_path, family, seed, n, "A")
        marks, expected = "circle", series * n
    else:
        problems = check_scan(csv_path, "csv", family, 0.4, 0.5, n, "A")
        marks, expected = "polyline", series
    svg = ET.parse(svg_path).getroot()
    count = sum(1 for el in svg.iter() if el.tag.endswith(marks))
    if count != expected:
        problems.append(f"fig{which}.svg: {count} {marks} marks, expected {expected}")
    if stdout is not None and stdout.split() != [csv_path, svg_path]:
        problems.append(f"figures printed {stdout.split()}")
    return problems


def check_discrepancy(path, family, seed, n, stdout=None) -> list:
    """Each reported max |dev| against the reference recomputation."""
    header, rows = read_csv(path)
    if header != ["formula", "max_abs_dev", "note"]:
        return [f"{path}: header {header}"]
    ref = oracle.discrepancy_devs(family, seed, n)
    if sorted(r["formula"] for r in rows) != sorted(ref):
        return [f"{path}: formulas {[r['formula'] for r in rows]}"]
    problems = []
    for r in rows:
        dev = abs(float(r["max_abs_dev"]) - ref[r["formula"]])
        if dev > VALUE_TOL:
            problems.append(f"{os.path.basename(path)}: {r['formula']!r} reports "
                            f"{float(r['max_abs_dev']):.3e}, reference {ref[r['formula']]:.3e}")
    return problems


def check_analyze(stdout, psi, pivot) -> list:
    """The JSON line of one `analyze` call."""
    try:
        d = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"analyze printed no JSON line: {stdout[-200:]!r}"]
    problems = [] if d.get("pivot") == pivot else [f"pivot {d.get('pivot')!r} != {pivot!r}"]
    v = {k: np.array([float(d[k])]) for k in METRICS}
    if d["saturated_tight"] != bool(abs(d["gap_tight"]) <= SATURATION_TOL):
        problems.append("saturated_tight disagrees with gap_tight")
    problems += check_values(v, np.array([d["class"]]), psi, pivot)
    return problems


def w_plus_ghz(eps=3e-7) -> np.ndarray:
    """Normalized W + eps GHZ: tau = 6.53e-7 at eps = 3e-7, under qmono's noise floor."""
    psi = oracle.w_state() + eps * oracle.ghz_state()
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)))
