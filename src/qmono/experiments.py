"""Batch runners behind the CLI: ensembles, parameter scans, figure data,
and the closed-form discrepancy audit.

Every runner takes its parameters as plain arguments and checks them
itself: a bad value raises ValueError, an unknown name TypeError.  The
ensemble, scan and figure runners return one columnar table: a dict of
equal-length numpy arrays keyed by column name, from the sampler through
the monogamy table to the writer, with no per-row Python on the way.  A
column the table lacks is written empty in every row (the parameters of a
Haar ensemble, say).  A scan table also carries a boolean `feasible`
entry: a grid point with no state keeps only its index, family and note,
and its other cells hold placeholders (NaN, or "" in the class column).
CSV and JSON come from one block formatter, `format_rows`, over one fixed
schema so all outputs stay interchangeable for downstream plotting.  A
format is data (`_FORMATS`): the text around rows and cells, string
quoting, the float slot renderer and the empty cell.  Every block is one
`numtext.byte_rows` call over slot matrices: CSV floats carry the exact
digits of '%.17g' (`numtext.float_text`), JSON floats are as `json` writes
them: each finite double's repr (`numtext.repr_text`), else NaN, Infinity
or -Infinity.  Both kernels share Dekker's TwoProduct where
1e-4 <= |x| < 10, both round-trip exact for doubles, and the tables are
re-validated against the report invariants by array reductions.
"""

from __future__ import annotations

import json

import numpy as np

from . import closed_forms, states, svgplot
from .inequalities import METRIC_KEYS, SATURATION_TOL, _check_tol, classify_gaps, monogamy_table
from .numtext import byte_rows, float_text, int_text, repr_text
from .states import _raise_first_failure

__all__ = [
    "CSV_COLUMNS",
    "SCAN_COLUMNS",
    "InvariantViolation",
    "run_ensemble",
    "run_scan",
    "run_figure",
    "run_discrepancy",
    "validate_rows",
    "write_rows",
    "format_rows",
    "format_number",
]

CSV_COLUMNS = ["index", "family", "p1", "p2", "p3", "p4", "p5", "theta", *METRIC_KEYS, "class"]
SCAN_COLUMNS = CSV_COLUMNS + ["note"]

_PARAM_KEYS = ("p1", "p2", "p3", "p4", "p5")
# The cells an infeasible scan point keeps.
_INFEASIBLE_KEEPS = ("index", "family", "note")
# Rows per block when writing a table, a memory bound: one CSV write's tracemalloc
# peak (fresh process) is 1.11 MiB for 10^4 Haar states and 1.60 MiB for 3000
# canonical-b states, against 3.91 and 4.56 MiB with 4096 rows.
WRITE_BLOCK_ROWS = 1024
# JSON float cells per repr_text call, a speed bound that keeps its temporaries
# (32 KiB each) in cache: in paper-figures rounds the 1201-step canonical-b JSON
# scan takes 5.8-5.9 ms against 6.2-6.3 ms with one call per block (a loop of that
# write alone reads the other way).  Peak memory is 2.25 MiB against 2.31 MiB.
_REPR_CELLS = 4096
# The most rows a table may have: numpy counts an array's bytes in a signed
# 64-bit integer, so no float64 array holds more than 2**60 elements.
_MOST_ROWS = 2**60
# validate_rows: the CKW closure C2_X(YZ) = C2_XY + C2_XZ + tau a row may miss by.
CLOSURE_TOL = 1e-9
# validate_rows: roundoff slack on gap_tight <= gap_fei and on each C2 and tau in [0, 1].
BOUND_SLACK = 1e-12

# Fixed coefficients of the canonical-a parameter-sweep slice.
SWEEP_DEFAULTS = {"p2": 0.17, "p3": 0.16, "p4": 0.15, "theta": 0.0}


class InvariantViolation(RuntimeError):
    """A computed record failed a structural report invariant."""


def format_number(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _length(table) -> int:
    return len(next(iter(table.values()), ()))


def _feasible(table) -> np.ndarray:
    return table.get("feasible", np.ones(_length(table), dtype=bool))


def _metric_columns(psis, pivot, tolerance) -> dict:
    """The metric columns and the class labels of a stack of states."""
    table = monogamy_table(psis, pivot)
    cols = {k: table[k] for k in METRIC_KEYS}
    cols["class"] = classify_gaps(table["gap_tight"], tolerance)
    return cols


def _family_states(family, p, theta=None):
    """The states of a family's parameter rows, and the rows as table columns.

    Bell weights p1 (n,) give columns p1 and p2 = 1 - p1; canonical rows
    p (n, 5) with angles theta (n,) give p1..p5 and theta.  One weight, or
    one row (5,) with a scalar theta, gives one state (8,) and scalar columns.
    """
    if family == "bell-product":
        return states.make_bell_product(p), {"p1": p, "p2": 1.0 - p}
    maker = states.make_canonical_a if family == "canonical-a" else states.make_canonical_b
    return maker(p, theta), {**dict(zip(_PARAM_KEYS, p.T)), "theta": theta}


def _ensemble_states(family, n, seed):
    """n states of the family from the seed's streams, and the parameter
    columns the family has (none for haar, ghz and w)."""
    if family == "haar":
        return states.sample_haar_batch(seed, n), {}
    if family == "bell-product":
        return _family_states(family, states.uniforms(seed, n, 1)[:, 0])
    if family in ("canonical-a", "canonical-b"):
        return _family_states(family, *states.sample_canonical_batch(seed, n))
    builder = states.make_ghz if family == "ghz" else states.make_w
    return np.tile(builder(), (n, 1)), {}


def run_ensemble(family, n, seed, pivot="A", tolerance=SATURATION_TOL):
    """Sample n states of the family and report every one; returns (table, summary).

    The summary echoes the arguments (n as "count"), gives the min, median
    and max of both gaps, and counts the saturated and violated rows.
    """
    if family not in states.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    # ghz and w draw no streams, so only the array size bounds their count
    most = _MOST_ROWS if family in ("ghz", "w") else states._MOST_STREAMS
    states._check_count(n, "n", 1, most)
    # ghz and w sample nothing, but take the seeds every family takes
    states._check_seed(seed)
    _check_tol(tolerance)
    psis, params = _ensemble_states(family, n, seed)
    table = {"index": np.arange(n), "family": np.full(n, family),
             **params, **_metric_columns(psis, pivot, tolerance)}
    labels = table["class"]
    return table, {
        "family": family, "count": n, "seed": seed, "pivot": pivot, "tolerance": tolerance,
        **{k: {"min": float(table[k].min()), "median": float(np.median(table[k])),
               "max": float(table[k].max())} for k in ("gap_fei", "gap_tight")},
        "saturated": int(np.count_nonzero(labels == "saturated")),
        "violated": int(np.count_nonzero(labels == "violated")),
    }


def run_scan(family, lo, hi, steps, pivot="A", tolerance=SATURATION_TOL,
             p2=None, p3=None, p4=None, theta=None):
    """Monotone grid over p1; infeasible points keep a note and no metrics.

    For the canonical families p2, p3, p4 and theta are held fixed (each
    one not given takes its SWEEP_DEFAULTS value; a bell-product scan takes
    none, since p2 is 1 - p1) and p5 is `states.normalizing_p5`, which is
    the only way p1 and p5 can vary together over a rectangle while the
    states stay normalized.  A point is feasible exactly where the family's
    builder would accept its parameters: scan asks the builder's own check
    list, so it agrees with `analyze` by construction.  `feasible` marks
    the points with a state; at the others every column but index, family
    and note holds a placeholder (NaN, or "" in class), which no writer
    and no check reads.
    """
    if family not in ("bell-product", "canonical-a", "canonical-b"):
        raise ValueError(f"scan supports bell-product and canonical families, got {family!r}")
    states._check_count(steps, "steps", 2, _MOST_ROWS)
    # the grid steps by (to - from) / (steps - 1), so that span must be finite too
    for name, bound in (("from", lo), ("to", hi), ("to - from", float(hi) - float(lo))):
        if not np.isfinite(bound):
            raise ValueError(f"scan bound {name} = {float(bound)!r} is not finite")
    _check_tol(tolerance)
    given = {k: v for k, v in zip(SWEEP_DEFAULTS, (p2, p3, p4, theta)) if v is not None}
    if family == "bell-product" and given:
        raise ValueError(f"a bell-product scan takes no fixed coefficients, got {next(iter(given))}")
    p2, p3, p4, theta = {**SWEEP_DEFAULTS, **given}.values()
    grid = np.linspace(float(lo), float(hi), steps)
    angles = np.full(steps, theta, dtype=np.float64)
    if family == "bell-product":
        rows, checks = grid, states._bell_checks(grid)
        note = "infeasible: p1 outside [0, 1]"
    else:
        # checked here, since a grid without a feasible point builds no state to check them
        _raise_first_failure(states._entry_checks(
            np.array([p2, p3, p4], dtype=np.float64), np.asarray(theta, dtype=np.float64)))
        p5 = states.normalizing_p5(grid, p2, p3, p4)
        rows = np.stack(np.broadcast_arrays(grid, p2, p3, p4, p5), axis=-1)
        checks = states._canonical_checks(rows, angles)
        note = "infeasible: no normalized state for this p1"
    ok = ~states._failing(checks)
    psis, params = _family_states(family, rows[ok], angles[ok])
    table = {"index": np.arange(steps), "family": np.full(steps, family)}
    for key, values in {**params, **_metric_columns(psis, pivot, tolerance)}.items():
        table[key] = np.full(steps, "" if values.dtype.kind == "U" else np.nan, values.dtype)
        table[key][ok] = values
    return {**table, "note": np.where(ok, "", note), "feasible": ok}


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
    """Table plus SVG series for one of the four comparison figures.

    Figures 1, 3, 4 plot ensemble samples against the sample index;
    figure 2 sweeps p1 with the other coefficients fixed and p5
    determined by normalization.  Returns (table, columns, series,
    title, xlabel).
    """
    if which not in _FIGURES:
        raise ValueError(f"figure must be one of {sorted(_FIGURES)}, got {which!r}")
    family, mode, keys = _FIGURES[which]
    least = 1 if mode == "ensemble" else 2  # samples, or grid points of the p1 sweep
    states._check_count(n, "--n", most=states._MOST_STREAMS if mode == "ensemble" else _MOST_ROWS)
    if n < least:
        raise ValueError(f"--n must be at least {least} for figure {which}, got {n}")
    # figure 2 samples nothing, but takes the seeds every figure takes
    states._check_seed(seed)
    if mode == "ensemble":
        table, _ = run_ensemble(family, n, seed, pivot=pivot, tolerance=tolerance)
        xlabel, columns, kind = "sample index", CSV_COLUMNS, "scatter"
        x_key = "index"
    else:
        table = run_scan(family, 0.4, 0.5, n, pivot=pivot, tolerance=tolerance)
        xlabel, columns, kind = "p1", SCAN_COLUMNS, "line"
        x_key = "p1"
    usable = _feasible(table)
    xs = table[x_key][usable]
    series = [svgplot.Series(_SERIES_LABEL[k], xs, table[k][usable], kind) for k in keys]
    title = f"figure {which}: {family}, bound comparison at pivot {pivot}"
    return table, columns, series, title, xlabel


def validate_rows(table):
    """Re-check the report invariants on every row that carries metrics.

    A row is violated when its class label says so; the label already
    carries the tolerance the row was classified with.  The first
    offending row raises the message of its first failed check.
    """
    live = _feasible(table)
    c2_ab, c2_ac, c2_abc, tau = (table[k] for k in ("c2_ab", "c2_ac", "c2_abc", "tau"))
    gap_fei, gap_tight = table["gap_fei"], table["gap_tight"]
    closure = np.abs(c2_abc - (c2_ab + c2_ac + tau))
    checks = [(closure > CLOSURE_TOL, lambda i: f"tau closure off by {closure[i]:.3e}"),
              (gap_tight > gap_fei + BOUND_SLACK,
               lambda i: "tight gap exceeds the product-form gap")]
    for key in ("c2_ab", "c2_ac", "c2_abc", "tau"):
        col = table[key]
        checks.append((~((-BOUND_SLACK <= col) & (col <= 1.0 + BOUND_SLACK)),
                       lambda i, key=key, col=col: f"{key} = {float(col[i])!r} outside [0, 1]"))
    checks.append((table["class"] == "violated",
                   lambda i: f"negative tight gap {gap_tight[i]:.3e} beyond tolerance"))
    _raise_first_failure([(live & mask, message) for mask, message in checks],
                         lambda row, message: InvariantViolation(
                             f"row {int(table['index'][row])}: {message}"))


def _csv_field(text: str) -> str:
    """One string cell as the csv module's minimal quoting writes it."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _distinct(col):
    """The distinct values of a string column as str, and each row's index into them.

    One vectorized comparison per distinct value, in order of first
    appearance, and no sort: a written string column holds a family, the
    three classes, a note or the few audit formulas.
    """
    values, inverse = [], np.zeros(len(col), dtype=np.intp)
    left = np.ones(len(col), dtype=bool)
    while left.any():
        value = col[left.argmax()]
        same = col == value
        inverse[same] = len(values)
        left &= ~same
        values.append(str(value))
    return values, inverse


def _json_float_text(x):
    """Each double of x as `json` writes it, in (x.size, 24) NUL-padded slots:
    a finite double's repr, else NaN, Infinity or -Infinity."""
    x = x.reshape(-1)
    slots = np.empty((x.size, 24), dtype=np.uint8)
    for i in range(0, x.size, _REPR_CELLS):
        slots[i:i + _REPR_CELLS] = repr_text(x[i:i + _REPR_CELLS])
    for i in np.flatnonzero(~np.isfinite(x)).tolist():
        text = json.dumps(x[i].item()).encode()
        slots[i] = 0
        slots[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return slots


# A format as data: header(columns), the separator between two rows,
# prefixes(columns) (the text before each cell of a row), the row end, the
# closing text, a string cell's quoting, the float slot renderer and the
# empty cell.  A finite double's repr, which json writes, fits 24 bytes.
_FORMATS = {
    "csv": (lambda columns: ",".join(map(_csv_field, columns)) + "\n", "",
            lambda columns: [""] + [","] * (len(columns) - 1), "\n", "",
            _csv_field, float_text, ""),
    "json": (lambda columns: "[", ",",
             lambda columns: [("\n {\n" if j == 0 else ",\n") + f"  {json.dumps(c)}: "
                              for j, c in enumerate(columns)],
             "\n }", "\n]\n", json.dumps, _json_float_text, '""'),
}


def _blocks(table, columns, form):
    """The header, one str per block of rows, then the closing text.

    Blocks hold at most WRITE_BLOCK_ROWS rows and split where `feasible`
    changes; a block of infeasible rows writes the empty cell outside
    _INFEASIBLE_KEEPS.  Numbers fill slots by kind, one renderer call per
    kind and block; a string column is quoted once per distinct value.
    """
    header, separator, prefixes, row_end, closing, quote, floats, empty = form
    n, feasible = _length(table), _feasible(table)
    kinds = {c: table[c].dtype.kind for c in columns if c in table}
    strings = {}
    for c in [c for c in kinds if kinds[c] not in "fi"]:
        values, inverse = _distinct(table[c])
        quoted = np.array([quote(v).encode() for v in values], dtype=bytes)
        strings[c] = (quoted.view(np.uint8).reshape(len(values), quoted.itemsize), inverse)
    changes = (np.flatnonzero(feasible[1:] != feasible[:-1]) + 1).tolist()
    starts = sorted(set(range(0, n, WRITE_BLOCK_ROWS)).union(changes))
    before = prefixes(columns)

    def parts(a, b):
        """The strs and slot matrices of rows a..b: no slot outlives its block."""
        written = [c for c in kinds if feasible[a] or c in _INFEASIBLE_KEEPS]
        slots = {c: strings[c][0][strings[c][1][a:b]] for c in written if c in strings}
        for kind, dtype, render in (("f", np.float64, floats), ("i", np.int64, int_text)):
            names = [c for c in written if kinds[c] == kind]
            if names:
                cells = np.stack([table[c][a:b] for c in names]).astype(dtype, copy=False)
                slots.update(zip(names, render(cells).reshape(len(names), b - a, -1)))
        row = [separator]
        for prefix, c in zip(before, columns):
            row += [prefix, slots.get(c, empty)]
        return row + [row_end]

    yield header(columns)
    for a, b in zip(starts, starts[1:] + [n]):
        yield byte_rows(b - a, parts(a, b))[0 if a else len(separator):]
    yield closing


def format_rows(table, columns, fmt):
    """The text of a table in `fmt` ("csv" or "json"), as str blocks of at
    most WRITE_BLOCK_ROWS rows between the header line (or "[") and the
    closing text.  An unknown `fmt` raises ValueError at the call."""
    if fmt not in _FORMATS:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    return _blocks(table, columns, _FORMATS[fmt])


def write_rows(path, table, columns, fmt="csv"):
    """Write the blocks of format_rows to a file; the whole text never exists at once."""
    blocks = format_rows(table, columns, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(blocks)


# The rows of the closed-form audit: (formula, candidate key, truth key,
# theta forced to 0, note).  _AUDIT_VARIANT holds each family's row 5.
_AUDIT_ROWS = (
    ("c2_ab", "c2_ab", "c2_ab", False, "candidate vs numerics, sampled theta"),
    ("c2_ab (theta=0 slice)", "c2_ab", "c2_ab", True, "same candidate, theta forced to 0"),
    ("c2_ac", "c2_ac", "c2_ac", False, "candidate vs numerics, sampled theta"),
    ("c2_ac (theta=0 slice)", "c2_ac", "c2_ac", True, "same candidate, theta forced to 0"),
    ("c2_abc", "c2_abc", "c2_abc", False, "candidate vs numerics"),
    ("tau", "tau", "tau", False, "candidate vs numerics, sampled theta"),
    ("tau (outer square removed)", "tau_unsquared", "tau", False,
     "variant: candidate without its outer square"),
    ("tau (outer square removed, theta=0 slice)", "tau_unsquared", "tau", True,
     "the same variant on the theta=0 slice"),
)
_AUDIT_VARIANT = {
    "canonical-a": ("c2_abc (sign-adjusted variant)", "c2_abc_sign_adjusted", "c2_abc", False,
                    "variant: p1^4, p2^2, p2^4 signs flipped"),
    "canonical-b": ("c2_abc (exponent-adjusted variant)", "c2_abc_exponent_adjusted", "c2_abc",
                    False, "variant: leading p4^2 raised to p4^4"),
}


def run_discrepancy(family, n=200, seed=0):
    """Audit the candidate closed forms against numerical ground truth.

    Returns rows with keys formula, max_abs_dev, note.  Alongside each
    candidate, algebraic variants and theta = 0 slices are measured so
    the pattern of any disagreement (wrong power, wrong sign, missing
    theta dependence) is visible from the numbers themselves.
    """
    if family not in _AUDIT_VARIANT:
        raise ValueError(f"discrepancy supports the canonical families, got {family!r}")
    states._check_count(n, "n", 1, states._MOST_STREAMS)
    cand = (closed_forms.canonical_a_candidates if family == "canonical-a"
            else closed_forms.canonical_b_candidates)
    p, theta = states.sample_canonical_batch(seed, n)
    # (candidates, numerical truth) at the sampled theta and at theta = 0
    runs = {zero: (cand(p, th), monogamy_table(_family_states(family, p, th)[0], "A"))
            for zero, th in ((False, theta), (True, 0.0))}
    specs = [*_AUDIT_ROWS[:5], _AUDIT_VARIANT[family], *_AUDIT_ROWS[5:]]
    rows = []
    for formula, got, truth, zero, note in specs:
        candidates, table = runs[zero]
        dev = float(np.max(np.abs(np.asarray(candidates[got]) - table[truth])))
        rows.append({"formula": formula, "max_abs_dev": dev, "note": note})
    return rows
