"""Batch runners: schema, determinism, validation, and the audit table."""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qmono import experiments, numtext, states
from qmono.inequalities import METRIC_KEYS, classify_gaps, monogamy_table


HEADER = ("index,family,p1,p2,p3,p4,p5,theta,c2_ab,c2_ac,c2_abc,tau,"
          "rhs_fei,rhs_tight,gap_fei,gap_tight,class")


def same_table(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def small_config(**kw):
    base = dict(family="canonical-a", n=20, seed=5)
    base.update(kw)
    return base


class TestFormatting:
    def test_schema_is_frozen(self):
        assert ",".join(experiments.CSV_COLUMNS) == HEADER
        assert experiments.SCAN_COLUMNS == experiments.CSV_COLUMNS + ["note"]

    @pytest.mark.parametrize("x", [0.1, -3.5e-17, 2.0 / 3.0, 1e300, 123456.789])
    def test_seventeen_digits_round_trip(self, x):
        assert float(experiments.format_number(x)) == x

    def test_non_floats_pass_through(self):
        assert experiments.format_number(7) == "7"
        assert experiments.format_number("strict") == "strict"
        assert experiments.format_number("") == ""
        assert experiments.format_number(None) == ""


class TestRunEnsembleArguments:
    """run_ensemble's argument checks."""

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            experiments.run_ensemble("cluster", 5, 0)

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            experiments.run_ensemble("haar", 0, 0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            experiments.run_ensemble("haar", 5, 0, tolerance=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match="^tol must be finite"):
            experiments.run_ensemble("haar", 5, 0, tolerance=tol)


class TestRunEnsemble:
    def test_row_shape_and_indices(self):
        table, summary = experiments.run_ensemble(**small_config())
        assert table["index"].tolist() == list(range(20))
        assert all(f == "canonical-a" for f in table["family"])
        assert set(experiments.CSV_COLUMNS) <= set(table)
        assert all(len(table[c]) == 20 for c in experiments.CSV_COLUMNS)
        assert summary["count"] == 20
        assert summary["saturated"] + summary["violated"] <= 20

    def test_canonical_rows_carry_parameters(self):
        table, _ = experiments.run_ensemble(**small_config())
        total = sum(table[f"p{k}"][0] ** 2 for k in range(1, 6))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= table["theta"][0] < np.pi

    def test_haar_rows_have_empty_parameters(self):
        table, _ = experiments.run_ensemble(**small_config(family="haar"))
        assert "p1" not in table
        assert "theta" not in table
        text = "".join(experiments.format_rows(table, experiments.CSV_COLUMNS, "csv"))
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["p1"] == ""
        assert row["theta"] == ""
        text = "".join(experiments.format_rows(table, experiments.CSV_COLUMNS, "json"))
        row = json.loads(text)[0]
        assert row["p1"] == ""
        assert row["theta"] == ""

    def test_bell_product_rows(self):
        table, _ = experiments.run_ensemble(**small_config(family="bell-product"))
        for p1, p2 in zip(table["p1"], table["p2"]):
            assert 0.0 <= p1 <= 1.0
            assert p2 == pytest.approx(1.0 - p1)

    def test_fixed_states_repeat(self):
        table, _ = experiments.run_ensemble(**small_config(family="ghz", n=3))
        tau = table["tau"]
        assert tau[0] == tau[1] == tau[2] == pytest.approx(1.0)

    def test_deterministic_for_fixed_seed(self):
        a, _ = experiments.run_ensemble(**small_config())
        b, _ = experiments.run_ensemble(**small_config())
        assert same_table(a, b)

    def test_seed_changes_rows(self):
        a, _ = experiments.run_ensemble(**small_config())
        b, _ = experiments.run_ensemble(**small_config(seed=6))
        assert not same_table(a, b)

    def test_classifies_once_per_table(self, monkeypatch):
        calls = []
        real = experiments.classify_gaps

        def counting(gaps, tol):
            calls.append(np.shape(gaps))
            return real(gaps, tol)

        monkeypatch.setattr(experiments, "classify_gaps", counting)
        table, _ = experiments.run_ensemble(**small_config())
        experiments.run_scan("bell-product", -0.5, 1.0, 7)
        assert calls == [(20,), (5,)]
        want = real(table["gap_tight"], experiments.SATURATION_TOL)
        assert table["class"].tolist() == list(want)

    def test_summary_echoes_the_arguments(self):
        _, summary = experiments.run_ensemble("ghz", 3, 7, pivot="B", tolerance=1e-6)
        assert {k: summary[k] for k in ("family", "count", "seed", "pivot", "tolerance")} == {
            "family": "ghz", "count": 3, "seed": 7, "pivot": "B", "tolerance": 1e-6}
        assert summary["saturated"] == 3
        assert summary["violated"] == 0

    def test_summary_gap_stats(self):
        table, summary = experiments.run_ensemble(**small_config())
        gaps = sorted(table["gap_tight"])
        assert summary["gap_tight"]["min"] == pytest.approx(gaps[0])
        assert summary["gap_tight"]["max"] == pytest.approx(gaps[-1])


class TestValidateRows:
    def test_accepts_good_rows(self):
        table, _ = experiments.run_ensemble(**small_config())
        experiments.validate_rows(table)

    def test_rejects_broken_closure(self):
        table, _ = experiments.run_ensemble(**small_config())
        table["tau"][3] += 1e-3
        with pytest.raises(experiments.InvariantViolation, match="closure"):
            experiments.validate_rows(table)

    def test_rejects_inverted_gaps(self):
        table, _ = experiments.run_ensemble(**small_config())
        table["gap_tight"][0] = table["gap_fei"][0] + 1.0
        table["c2_abc"][0] = table["c2_ab"][0] + table["c2_ac"][0] + table["tau"][0]
        with pytest.raises(experiments.InvariantViolation):
            experiments.validate_rows(table)

    def test_rejects_violated_class(self):
        table, _ = experiments.run_ensemble(**small_config())
        table["class"][0] = "violated"
        table["gap_tight"][0] = -1e-6
        table["gap_fei"][0] = 0.0
        table["c2_abc"][0] = table["c2_ab"][0] + table["c2_ac"][0] + table["tau"][0]
        with pytest.raises(experiments.InvariantViolation):
            experiments.validate_rows(table)

    def test_skips_noted_rows(self):
        # the NaN placeholders of the infeasible points would fail every check
        table = experiments.run_scan("bell-product", 0.9, 1.1, 3)
        assert table["note"][2] != ""
        assert np.isnan(table["c2_ab"][2])
        experiments.validate_rows(table)

    def test_rejects_a_cell_just_above_1(self):
        # the closure c2_abc = 0 + 0 + tau is exact, so only the [0, 1] bound sees the row
        table = {"index": np.array([0]), **{k: np.zeros(1) for k in METRIC_KEYS},
                 "class": np.array(["saturated"])}
        table["c2_abc"] = table["tau"] = np.array([1.0 + 1e-10])
        with pytest.raises(experiments.InvariantViolation,
                           match=r"^row 0: c2_abc = 1\.0000000001 outside \[0, 1\]$"):
            experiments.validate_rows(table)

    def test_reports_first_row_and_its_first_failed_check(self):
        table, _ = experiments.run_ensemble(**small_config())
        table["tau"][7] = 2.0
        table["c2_ab"][4] = 1.5
        table["c2_abc"][4] = table["c2_ab"][4] + table["c2_ac"][4] + table["tau"][4]
        with pytest.raises(experiments.InvariantViolation,
                           match=r"^row 4: c2_ab = 1\.5 outside \[0, 1\]$"):
            experiments.validate_rows(table)


class TestRunScan:
    def test_bell_product_grid(self):
        table = experiments.run_scan("bell-product", 0.0, 1.0, 101)
        assert len(table["index"]) == 101
        assert all(table["note"] == "")
        gaps = table["gap_tight"]
        interior = min(range(1, 100), key=lambda i: abs(gaps[i]))
        assert abs(table["p1"][interior] - 2.0 / 3.0) <= 0.01 + 1e-12

    def test_out_of_range_weight_gets_note(self):
        table = experiments.run_scan("bell-product", 0.9, 1.1, 3)
        assert table["note"][0] == ""
        assert "infeasible" in table["note"][2]
        assert not table["feasible"][2]
        text = "".join(experiments.format_rows(table, experiments.SCAN_COLUMNS, "csv"))
        written = list(csv.DictReader(io.StringIO(text)))
        assert written[2]["c2_ab"] == ""
        assert written[2]["note"] == table["note"][2]
        assert written[0]["c2_ab"] != ""

    def test_canonical_slice_feasibility_boundary(self):
        table = experiments.run_scan("canonical-a", 0.9, 1.0, 6)
        notes = table["note"] != ""
        assert notes[-1]
        assert not notes[0]

    def test_canonical_slice_orders_bounds(self):
        t = experiments.run_scan("canonical-a", 0.4, 0.5, 21)
        assert t["feasible"].all()
        assert np.all(t["c2_abc"] >= t["rhs_tight"] - 1e-9)
        assert np.all(t["rhs_tight"] >= t["rhs_fei"] - 1e-12)

    def test_fixed_overrides(self):
        table = experiments.run_scan("canonical-a", 0.4, 0.5, 5, p2=0.3)
        assert table["p2"][0] == pytest.approx(0.3)

    @pytest.mark.parametrize("name", ["p5", "phi"])
    def test_rejects_unknown_coefficient_name(self, name):
        with pytest.raises(TypeError, match=name):
            experiments.run_scan("canonical-a", 0.4, 0.5, 3, **{name: 0.9})

    def test_bell_product_rejects_a_coefficient_at_its_default(self):
        with pytest.raises(ValueError, match="no fixed coefficients, got theta$"):
            experiments.run_scan("bell-product", 0, 1, 3, theta=0.0)

    def test_rejects_unsupported_family(self):
        with pytest.raises(ValueError):
            experiments.run_scan("haar", 0.0, 1.0, 5)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            experiments.run_scan("bell-product", 0.0, 1.0, 1)

    @pytest.mark.parametrize("lo,hi,name", [
        (float("nan"), 1.0, "from"), (0.0, float("nan"), "to"),
        (float("-inf"), 1.0, "from"), (0.0, float("inf"), "to"),
        (-1.7e308, 1.7e308, "to - from"),  # the span overflows a double
    ])
    def test_rejects_non_finite_bounds(self, lo, hi, name):
        with pytest.raises(ValueError, match=f"^scan bound {name} = .* is not finite$"):
            experiments.run_scan("bell-product", lo, hi, 3)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (2.0, 3.0)], ids=["feasible", "infeasible"])
    def test_rejects_non_finite_tolerance(self, lo, hi, tol):
        # checked up front, so a grid with no state rejects it too
        with pytest.raises(ValueError, match="^tol must be finite"):
            experiments.run_scan("bell-product", lo, hi, 3, tolerance=tol)

    @pytest.mark.parametrize("fixed,message", [
        ({"p2": float("nan")}, "canonical parameters must be finite and non-negative"),
        ({"p4": -0.99}, "canonical parameters must be finite and non-negative"),
        ({"theta": np.pi}, "theta must lie in"),
    ])
    def test_rejects_bad_fixed_coefficients_before_the_grid(self, fixed, message):
        # p1 > 1 leaves no point of this grid a state, so only the up-front check sees them
        with pytest.raises(ValueError, match=message):
            experiments.run_scan("canonical-b", 1.1, 1.2, 3, **fixed)


class TestRunFigure:
    def test_ensemble_figure_has_three_series(self):
        rows, columns, series, title, xlabel = experiments.run_figure(1, seed=2, n=25)
        assert columns == experiments.CSV_COLUMNS
        assert [s.name for s in series] == [
            experiments._SERIES_LABEL["c2_abc"],
            experiments._SERIES_LABEL["rhs_tight"],
            experiments._SERIES_LABEL["rhs_fei"],
        ]
        assert all(len(s.ys) == 25 for s in series)
        assert xlabel == "sample index"

    def test_scan_figure_uses_lines(self):
        rows, columns, series, title, xlabel = experiments.run_figure(2, seed=2, n=11)
        assert columns == experiments.SCAN_COLUMNS
        assert all(s.kind == "line" for s in series)
        assert xlabel == "p1"

    @pytest.mark.parametrize("which,nseries", [(3, 2), (4, 2)])
    def test_two_curve_figures(self, which, nseries):
        _, _, series, _, _ = experiments.run_figure(which, seed=2, n=10)
        assert len(series) == nseries

    def test_rejects_unknown_figure(self):
        with pytest.raises(ValueError):
            experiments.run_figure(5, seed=0)

    @pytest.mark.parametrize("which,n", [(1, 0), (2, 1), (3, -1), (4, 0)])
    def test_rejects_too_small_n(self, which, n):
        with pytest.raises(ValueError, match=f"^--n must be at least {1 + (which == 2)} "):
            experiments.run_figure(which, seed=0, n=n)


class TestWriteRows:
    def test_csv_header_and_determinism(self, tmp_path):
        table, _ = experiments.run_ensemble(**small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        experiments.write_rows(p1, table, experiments.CSV_COLUMNS)
        experiments.write_rows(p2, table, experiments.CSV_COLUMNS)
        text = p1.read_text()
        assert text.splitlines()[0] == HEADER
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trips_doubles(self, tmp_path):
        table, _ = experiments.run_ensemble(**small_config())
        path = tmp_path / "x.csv"
        experiments.write_rows(path, table, experiments.CSV_COLUMNS)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 20
        for i, rec in enumerate(back):
            assert float(rec["gap_tight"]) == table["gap_tight"][i]
            assert rec["class"] == table["class"][i]

    def test_json_output(self, tmp_path):
        table, _ = experiments.run_ensemble(**small_config(n=3))
        path = tmp_path / "x.json"
        experiments.write_rows(path, table, experiments.CSV_COLUMNS, fmt="json")
        data = json.loads(path.read_text())
        assert len(data) == 3
        assert data[0]["family"] == "canonical-a"

    @pytest.mark.parametrize("col", [
        np.array(["b", "a", "b", "c", "a"]),
        np.array(["", "violated", "", "saturated"], dtype=object),
        np.array([], dtype=str),
    ])
    def test_distinct_values_in_order_of_first_appearance(self, col):
        values, inverse = experiments._distinct(col)
        assert values == list(dict.fromkeys(col.tolist()))
        assert [values[i] for i in inverse] == col.tolist()

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            experiments.write_rows(tmp_path / "x", {}, experiments.CSV_COLUMNS, fmt="xml")

    def test_format_rows_rejects_unknown_format_at_the_call(self):
        with pytest.raises(ValueError, match="format must be csv or json, got 'xml'"):
            experiments.format_rows({}, [], "xml")

    def test_unknown_format_leaves_existing_file(self, tmp_path):
        table, _ = experiments.run_ensemble(**small_config(n=3))
        path = tmp_path / "x.csv"
        experiments.write_rows(path, table, experiments.CSV_COLUMNS)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            experiments.write_rows(path, table, experiments.CSV_COLUMNS, fmt="xml")
        assert path.read_bytes() == before


class TestDiscrepancy:
    def test_family_a_findings(self):
        rows = experiments.run_discrepancy("canonical-a", n=80, seed=1)
        by = {r["formula"]: r["max_abs_dev"] for r in rows}
        assert by["c2_ac"] <= 1e-10
        assert by["c2_ab"] > 1e-3
        assert by["c2_ab (theta=0 slice)"] <= 1e-6
        assert by["c2_abc"] > 1e-3
        assert by["c2_abc (sign-adjusted variant)"] <= 1e-10
        assert by["tau"] > 1e-3
        assert by["tau (outer square removed)"] <= 1e-10

    def test_family_b_findings(self):
        rows = experiments.run_discrepancy("canonical-b", n=80, seed=1)
        by = {r["formula"]: r["max_abs_dev"] for r in rows}
        assert by["c2_ab (theta=0 slice)"] <= 1e-10
        assert by["c2_ac (theta=0 slice)"] <= 1e-10
        assert by["c2_ab"] > 1e-3
        assert by["c2_abc (exponent-adjusted variant)"] <= 1e-10
        assert by["tau (outer square removed, theta=0 slice)"] <= 1e-10
        assert by["tau (outer square removed)"] > 1e-3

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            experiments.run_discrepancy("haar")

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            experiments.run_discrepancy("canonical-a", n=0)


@pytest.mark.parametrize("call,name", [
    (lambda n: experiments.run_ensemble("haar", n, 0), "n"),
    (lambda n: experiments.run_scan("bell-product", 0.0, 1.0, n), "steps"),
    (lambda n: experiments.run_figure(1, 0, n=n), "--n"),
    (lambda n: experiments.run_figure(2, 0, n=n), "--n"),
    (lambda n: experiments.run_discrepancy("canonical-a", n, 0), "n"),
], ids=["ensemble", "scan", "figure-1", "figure-2", "discrepancy"])
@pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4.0)])
def test_runners_reject_a_count_that_is_not_an_integer(call, name, n):
    # no runner truncates a count: each refuses it as uniforms does
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(n)


@pytest.mark.parametrize("call", [
    lambda seed: experiments.run_ensemble("haar", 3, seed),
    lambda seed: experiments.run_figure(2, seed, n=3),
    lambda seed: experiments.run_discrepancy("canonical-a", 3, seed),
], ids=["ensemble", "figure-2", "discrepancy"])
@pytest.mark.parametrize("seed", [2.7, True, "5"])
def test_runners_reject_a_seed_that_is_not_an_integer(call, seed):
    # truncated, a seed of 2.7 would report seed 2's states under 2.7
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        call(seed)


# Reference rows built one index at a time with scalar code, the way the
# row-by-row writer (csv.writer over format_number cells) consumed them; the
# columnar runners and the block writer must reproduce their bytes exactly.
_PARAMS = ("p1", "p2", "p3", "p4", "p5")


def _reference_canonical(family, p, theta):
    support = (0, 1, 4, 6, 7) if family == "canonical-a" else (0, 1, 2, 4, 7)
    psi = np.zeros(8, dtype=np.complex128)
    psi[support[0]] = np.float64(p[0]) * complex(math.cos(theta), math.sin(theta))
    for idx, amp in zip(support[1:], p[1:]):
        psi[idx] = amp
    return psi


def _reference_bell(p1):
    psi = np.zeros(8, dtype=np.complex128)
    half = math.sqrt(p1 / 2.0)
    psi[2], psi[4], psi[1] = half, -half, math.sqrt(1.0 - p1)
    return psi


def _with_metrics(rows, buildable, pivot):
    """Fill the metric cells of rows[i] for each (i, state) in buildable."""
    if buildable:
        table = monogamy_table(np.stack([psi for _, psi in buildable]), pivot)
        labels = classify_gaps(table["gap_tight"], experiments.SATURATION_TOL)
        for j, (i, _) in enumerate(buildable):
            rows[i].update({k: float(table[k][j]) for k in METRIC_KEYS},
                           **{"class": str(labels[j])})
    return rows


def _reference_ensemble(family, n, seed, pivot):
    rows, buildable = [], []
    for i in range(n):
        rng = states.RngState(seed, i)
        row = {"index": i, "family": family}
        if family == "haar":
            psi = states.sample_haar(rng)
        elif family in ("canonical-a", "canonical-b"):
            spec = states.sample_canonical(rng, family)
            row.update(dict(zip(_PARAMS, spec.p)), theta=spec.theta)
            psi = _reference_canonical(family, spec.p, spec.theta)
        elif family == "bell-product":
            p1 = float(rng.uniforms(1)[0])
            row.update(p1=p1, p2=1.0 - p1)
            psi = _reference_bell(p1)
        else:
            psi = states.make_ghz()
        rows.append(row)
        buildable.append((i, psi))
    return _with_metrics(rows, buildable, pivot)


def _reference_scan(family, lo, hi, steps, pivot):
    rows, buildable = [], []
    for i, p1 in enumerate(np.linspace(lo, hi, steps)):
        row = {"index": i, "family": family, "note": ""}
        if family == "bell-product":
            if 0.0 <= p1 <= 1.0:
                row.update(p1=float(p1), p2=1.0 - float(p1))
                buildable.append((i, _reference_bell(p1)))
            else:
                row["note"] = "infeasible: p1 outside [0, 1]"
        else:
            d = experiments.SWEEP_DEFAULTS
            p5sq = 1.0 - p1 * p1 - d["p2"] * d["p2"] - d["p3"] * d["p3"] - d["p4"] * d["p4"]
            p = (float(p1), d["p2"], d["p3"], d["p4"], math.sqrt(max(p5sq, 0.0)))
            # the builders' rule: non-negative, squares summing to 1 within the tolerance
            if p1 >= 0.0 and abs(sum(x * x for x in p) - 1.0) <= states.PARAM_NORM_TOL:
                row.update(dict(zip(_PARAMS, p)), theta=d["theta"])
                buildable.append((i, _reference_canonical(family, p, d["theta"])))
            else:
                row["note"] = "infeasible: no normalized state for this p1"
        rows.append(row)
    return _with_metrics(rows, buildable, pivot)


def _scan_with_placeholders(family, lo, hi, steps, pivot):
    """run_scan's table, checked to have some infeasible point, every column
    of the family at full length, and a placeholder (NaN, or "" in class) in
    each cell of an infeasible row outside index, family and note."""
    table = experiments.run_scan(family, lo, hi, steps, pivot=pivot)
    off = ~table["feasible"]
    assert off.any()
    bell_lacks = ["p3", "p4", "p5", "theta"] if family == "bell-product" else []
    assert [c for c in experiments.SCAN_COLUMNS if c not in table] == bell_lacks
    for c in [c for c in experiments.SCAN_COLUMNS if c in table]:
        assert len(table[c]) == steps, c
        if c not in ("index", "family", "note"):
            cells = table[c][off]
            assert (cells == "").all() if c == "class" else np.isnan(cells).all(), c
    return table


def _reference_bytes(rows, columns, fmt):
    if fmt == "json":
        payload = [{c: row.get(c, "") for c in columns} for row in rows]
        return (json.dumps(payload, indent=1) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([experiments.format_number(row.get(c, "")) for c in columns])
    return buf.getvalue().encode()


def _written(tmp_path, table, columns, fmt="csv"):
    path = tmp_path / f"out.{fmt}"
    experiments.write_rows(path, table, columns, fmt)
    return path.read_bytes()


@pytest.fixture(params=[5, experiments.WRITE_BLOCK_ROWS], ids=["blocks-of-5", "default-blocks"])
def block_rows(request, monkeypatch):
    monkeypatch.setattr(experiments, "WRITE_BLOCK_ROWS", request.param)
    return request.param


class TestByteIdentity:
    @pytest.mark.parametrize("family,n,seed,pivot", [
        ("haar", 203, 1, "A"),
        ("haar", 37, 2**64 - 1, "C"),
        ("canonical-a", 211, 7, "B"),
        ("canonical-b", 97, 2**32, "C"),
        ("bell-product", 150, 3, "A"),
        ("ghz", 12, 0, "B"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ensembles(self, tmp_path, block_rows, family, n, seed, pivot, fmt):
        table, _ = experiments.run_ensemble(family, n, seed, pivot=pivot)
        want = _reference_bytes(_reference_ensemble(family, n, seed, pivot),
                                experiments.CSV_COLUMNS, fmt)
        assert _written(tmp_path, table, experiments.CSV_COLUMNS, fmt) == want

    def test_one_row_json_ensemble(self, tmp_path, block_rows):
        table, _ = experiments.run_ensemble("haar", 1, 4)
        want = _reference_bytes(_reference_ensemble("haar", 1, 4, "A"),
                                experiments.CSV_COLUMNS, "json")
        assert _written(tmp_path, table, experiments.CSV_COLUMNS, "json") == want

    def test_large_haar_ensemble_spans_blocks(self, tmp_path):
        n = experiments.WRITE_BLOCK_ROWS + 3
        table, _ = experiments.run_ensemble("haar", n, 11)
        want = _reference_bytes(_reference_ensemble("haar", n, 11, "A"),
                                experiments.CSV_COLUMNS, "csv")
        assert _written(tmp_path, table, experiments.CSV_COLUMNS) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bell_scan_with_infeasible_points(self, tmp_path, block_rows, fmt):
        # the second grid has no feasible point
        for lo, hi, steps in ((-0.5, 1.5, 41), (1.5, 2.0, 3)):
            table = _scan_with_placeholders("bell-product", lo, hi, steps, "B")
            want = _reference_bytes(_reference_scan("bell-product", lo, hi, steps, "B"),
                                    experiments.SCAN_COLUMNS, fmt)
            assert _written(tmp_path, table, experiments.SCAN_COLUMNS, fmt) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_canonical_scan_with_infeasible_points(self, tmp_path, block_rows, fmt):
        # the second grid has no feasible point
        for family, lo, hi, steps in (("canonical-b", 0.0, 1.2, 61), ("canonical-a", 1.5, 2.0, 3)):
            table = _scan_with_placeholders(family, lo, hi, steps, "C")
            want = _reference_bytes(_reference_scan(family, lo, hi, steps, "C"),
                                    experiments.SCAN_COLUMNS, fmt)
            assert _written(tmp_path, table, experiments.SCAN_COLUMNS, fmt) == want

    def test_figure_2(self, tmp_path, block_rows):
        table, columns, _, _, _ = experiments.run_figure(2, seed=0, n=57)
        want = _reference_bytes(_reference_scan("canonical-a", 0.4, 0.5, 57, "A"), columns, "csv")
        assert _written(tmp_path, table, columns) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_quoted_string_cells(self, tmp_path, fmt):
        # the discrepancy table as `discrepancy --out` and `--format json` write it
        rows = experiments.run_discrepancy("canonical-a", n=20, seed=3)
        columns = ["formula", "max_abs_dev", "note"]
        table = {c: np.array([r[c] for r in rows]) for c in columns}
        want = _reference_bytes(rows, columns, fmt)
        assert b'"tau (outer square removed, theta=0 slice)"' in want
        assert _written(tmp_path, table, columns, fmt) == want

    def test_json_float_slots_at_their_widest(self):
        # a finite double's repr fills at most the 24-byte slot; the first two fill it.
        # The non-finite ones are written as json writes them, not as their repr
        values = [-2.2250738585072014e-308, -1.7976931348623157e308, 5e-324, -0.0, 1e16,
                  1e-5, 0.1, math.nan, math.inf, -math.inf]
        assert [len(repr(v)) for v in values[:2]] == [24, 24]
        text = "".join(experiments.format_rows({"x": np.array(values)}, ["x"], "json"))
        assert text == json.dumps([{"x": v} for v in values], indent=1) + "\n"
        # one block of 1024 rows and 14 columns, whose 14 336 stacked cells (column
        # by column) go to repr_text in pieces of 4096: non-finite cells on both
        # sides of each piece boundary and in the last cell
        columns = [f"x{j}" for j in range(14)]
        cells = np.arange(14 * 1024) / 7.0
        cells[[4095, 4096, 8191, 8192, 14_335]] = [math.nan, math.inf, -math.inf, math.nan, math.inf]
        table = dict(zip(columns, cells.reshape(14, 1024)))
        text = "".join(experiments.format_rows(table, columns, "json"))
        records = [{c: table[c][i].item() for c in columns} for i in range(1024)]
        assert text == json.dumps(records, indent=1) + "\n"


def _percent_g_lines(values):
    """The CSV lines of a one-column float table, and '%.17g' % v of its values."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    text = "".join(experiments.format_rows({"x": values}, ["x"], "csv"))
    return text.splitlines()[1:], ["%.17g" % v for v in values.tolist()]


def _csv_reference(table, columns):
    """csv.writer over format_number cells; an infeasible row keeps index, family and note."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    feasible = table.get("feasible", np.ones(len(table["index"]), dtype=bool))
    for i, live in enumerate(feasible):
        writer.writerow([experiments.format_number(table[c][i])
                         if c in table and (live or c in ("index", "family", "note")) else ""
                         for c in columns])
    return buf.getvalue()


def _ties(rng, per_decade):
    """Doubles whose 17-digit rounding is an exact tie, in every decade of [1e-4, 10).

    x = j / 2^(17-X) with odd j makes x 10^(16-X) = j 5^(16-X) / 2 an odd half.
    """
    out = []
    for X in range(-4, 1):
        lo, hi = int(np.ceil(10.0**X * 2 ** (17 - X))), int(10.0 ** (X + 1) * 2 ** (17 - X))
        j = 2 * rng.integers(lo // 2, hi // 2, per_decade) + 1
        x = j / 2.0 ** (17 - X)
        out.append(x[(x >= 10.0**X) & (x < 10.0 ** (X + 1))])
    return np.concatenate(out)


class TestCsvNumbers:
    """CSV floats must equal '%.17g' % x byte for byte, on the digit kernel's
    range [1e-4, 10) and +-0 and on the '%' route for everything else."""

    def test_decade_thresholds_are_the_rounded_up_powers(self):
        for k, t in zip(range(-4, 2), numtext._DECADES):
            assert Fraction(t) >= Fraction(10) ** k > Fraction(np.nextafter(t, 0.0))

    def test_log_uniform_values(self):
        rng = np.random.default_rng(17)
        x = 10.0 ** rng.uniform(-7.0, np.log10(20.0), 200_000)
        x[::3] *= -1.0
        got, want = _percent_g_lines(x)
        assert got == want

    def test_exact_ties_at_the_seventeenth_digit(self):
        ties = _ties(np.random.default_rng(18), 10_000)
        assert len(ties) > 45_000
        got, want = _percent_g_lines(np.concatenate([ties, -ties]))
        assert got == want

    def test_powers_and_their_neighbours(self):
        powers = [10.0 ** k for k in range(-8, 3)] + [2.0 ** k for k in range(-20, 5)]
        edges = [x for p in (1e-4, 1.0, 10.0) for x in (np.nextafter(np.nextafter(p, 0), 0),
                                                          np.nextafter(p, 0), p,
                                                          np.nextafter(p, np.inf))]
        x = np.array(powers + edges + [np.nextafter(p, d) for p in powers for d in (0, np.inf)])
        got, want = _percent_g_lines(np.concatenate([x, -x]))
        assert got == want

    def test_trailing_zero_digits(self):
        x = np.random.default_rng(19).uniform(1e-4, 10.0, 3_000)
        x = np.concatenate([np.round(x, d) for d in range(1, 17)] + [np.arange(1.0, 10.0)])
        got, want = _percent_g_lines(np.concatenate([x, -x]))
        assert got == want

    def test_zeros_and_the_percent_route(self):
        x = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1e300, -1e300, 9.99e-5, 12.5, 1e17, 123456789.125]
        got, want = _percent_g_lines(x)
        assert got == want
        assert got[:2] == ["0", "-0"]

    def test_int_cells(self):
        k = np.array([0, 7, 10, 9999, 10**4, 10**8 + 1, 10**16, 2**63 - 1, -1, -10**18])
        text = "".join(experiments.format_rows({"k": k}, ["k"], "csv"))
        assert text.splitlines()[1:] == ["%d" % v for v in k.tolist()]

    def test_one_row_table(self):
        table, _ = experiments.run_ensemble(**small_config(family="canonical-b", n=1))
        text = "".join(experiments.format_rows(table, experiments.CSV_COLUMNS, "csv"))
        assert text == _csv_reference(table, experiments.CSV_COLUMNS)

    def test_table_wholly_outside_the_fast_range(self):
        table, _ = experiments.run_ensemble(**small_config(family="canonical-a", n=50))
        for key in list(experiments._PARAM_KEYS) + ["theta"]:
            table[key] = table[key] * 1e3 + 10.0
        for key in METRIC_KEYS:
            table[key] = table[key] * 1e-9 - 1e-300
        text = "".join(experiments.format_rows(table, experiments.CSV_COLUMNS, "csv"))
        assert text == _csv_reference(table, experiments.CSV_COLUMNS)

    def test_feasible_row_holding_negative_zero(self):
        table = {"index": np.arange(3), "family": np.full(3, "bell-product"),
                 "p1": np.array([-0.0, np.nan, 0.5]), "gap_tight": np.array([0.0, np.nan, -0.0]),
                 "class": np.array(["saturated", "", "saturated"], dtype=object),
                 "note": np.array(["", "infeasible: p1 outside [0, 1]", ""]),
                 "feasible": np.array([True, False, True])}
        columns = ["index", "family", "p1", "gap_tight", "class", "note"]
        text = "".join(experiments.format_rows(table, columns, "csv"))
        assert text.splitlines()[1:] == ["0,bell-product,-0,0,saturated,",
                                         '1,bell-product,,,,"infeasible: p1 outside [0, 1]"',
                                         "2,bell-product,0.5,-0,saturated,"]
        assert text == _csv_reference(table, columns)
