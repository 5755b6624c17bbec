"""Batch runners: schema, determinism, validation, and the audit table."""

import csv
import json

import numpy as np
import pytest

from qmono import experiments


HEADER = ("index,family,p1,p2,p3,p4,p5,theta,c2_ab,c2_ac,c2_abc,tau,"
          "rhs_fei,rhs_tight,gap_fei,gap_tight,class")


def small_config(**kw):
    base = dict(family="canonical-a", count=20, seed=5)
    base.update(kw)
    return experiments.EnsembleConfig(**base)


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


class TestEnsembleConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            experiments.EnsembleConfig(family="cluster", count=5, seed=0)

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            experiments.EnsembleConfig(family="haar", count=0, seed=0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            experiments.EnsembleConfig(family="haar", count=5, seed=0, tolerance=-1.0)


class TestRunEnsemble:
    def test_row_shape_and_indices(self):
        rows, summary = experiments.run_ensemble(small_config())
        assert [r["index"] for r in rows] == list(range(20))
        assert all(r["family"] == "canonical-a" for r in rows)
        assert all(set(experiments.CSV_COLUMNS) <= set(r) for r in rows)
        assert summary["count"] == 20
        assert summary["saturated"] + summary["violated"] <= 20

    def test_canonical_rows_carry_parameters(self):
        rows, _ = experiments.run_ensemble(small_config())
        r = rows[0]
        total = sum(r[f"p{k}"] ** 2 for k in range(1, 6))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= r["theta"] < np.pi

    def test_haar_rows_have_empty_parameters(self):
        rows, _ = experiments.run_ensemble(small_config(family="haar"))
        assert rows[0]["p1"] == ""
        assert rows[0]["theta"] == ""

    def test_bell_product_rows(self):
        rows, _ = experiments.run_ensemble(small_config(family="bell-product"))
        for r in rows:
            assert 0.0 <= r["p1"] <= 1.0
            assert r["p2"] == pytest.approx(1.0 - r["p1"])

    def test_fixed_states_repeat(self):
        rows, _ = experiments.run_ensemble(small_config(family="ghz", count=3))
        assert rows[0]["tau"] == rows[1]["tau"] == rows[2]["tau"] == pytest.approx(1.0)

    def test_deterministic_for_fixed_seed(self):
        a, _ = experiments.run_ensemble(small_config())
        b, _ = experiments.run_ensemble(small_config())
        assert a == b

    def test_seed_changes_rows(self):
        a, _ = experiments.run_ensemble(small_config())
        b, _ = experiments.run_ensemble(small_config(seed=6))
        assert a != b

    def test_classifies_once_per_table(self, monkeypatch):
        calls = []
        real = experiments.classify_gaps

        def counting(gaps, tol):
            calls.append(np.shape(gaps))
            return real(gaps, tol)

        monkeypatch.setattr(experiments, "classify_gaps", counting)
        rows, _ = experiments.run_ensemble(small_config())
        experiments.run_scan("bell-product", -0.5, 1.0, 7)
        assert calls == [(20,), (5,)]
        want = real(np.array([r["gap_tight"] for r in rows]), experiments.SATURATION_TOL)
        assert [r["class"] for r in rows] == list(want)

    def test_summary_gap_stats(self):
        rows, summary = experiments.run_ensemble(small_config())
        gaps = sorted(r["gap_tight"] for r in rows)
        assert summary["gap_tight"]["min"] == pytest.approx(gaps[0])
        assert summary["gap_tight"]["max"] == pytest.approx(gaps[-1])


class TestValidateRows:
    def test_accepts_good_rows(self):
        rows, _ = experiments.run_ensemble(small_config())
        experiments.validate_rows(rows)

    def test_rejects_broken_closure(self):
        rows, _ = experiments.run_ensemble(small_config())
        rows[3] = dict(rows[3], tau=rows[3]["tau"] + 1e-3)
        with pytest.raises(experiments.InvariantViolation, match="closure"):
            experiments.validate_rows(rows)

    def test_rejects_inverted_gaps(self):
        rows, _ = experiments.run_ensemble(small_config())
        rows[0] = dict(rows[0], gap_tight=rows[0]["gap_fei"] + 1.0,
                       c2_abc=rows[0]["c2_ab"] + rows[0]["c2_ac"] + rows[0]["tau"]
                       )
        with pytest.raises(experiments.InvariantViolation):
            experiments.validate_rows(rows)

    def test_rejects_violated_class(self):
        rows, _ = experiments.run_ensemble(small_config())
        rows[0] = dict(rows[0], **{"class": "violated", "gap_tight": -1e-6,
                                   "gap_fei": 0.0,
                                   "c2_abc": rows[0]["c2_ab"] + rows[0]["c2_ac"] + rows[0]["tau"]})
        with pytest.raises(experiments.InvariantViolation):
            experiments.validate_rows(rows)

    def test_skips_noted_rows(self):
        experiments.validate_rows([{"note": "infeasible", "index": 0}])


class TestRunScan:
    def test_bell_product_grid(self):
        rows = experiments.run_scan("bell-product", 0.0, 1.0, 101)
        assert len(rows) == 101
        assert all(r["note"] == "" for r in rows)
        gaps = [r["gap_tight"] for r in rows]
        interior = min(range(1, 100), key=lambda i: abs(gaps[i]))
        assert abs(rows[interior]["p1"] - 2.0 / 3.0) <= 0.01 + 1e-12

    def test_out_of_range_weight_gets_note(self):
        rows = experiments.run_scan("bell-product", 0.9, 1.1, 3)
        assert rows[0]["note"] == ""
        assert "infeasible" in rows[2]["note"]
        assert rows[2]["c2_ab"] == ""

    def test_canonical_slice_feasibility_boundary(self):
        rows = experiments.run_scan("canonical-a", 0.9, 1.0, 6)
        notes = [r["note"] != "" for r in rows]
        assert notes[-1]
        assert not notes[0]

    def test_canonical_slice_orders_bounds(self):
        rows = experiments.run_scan("canonical-a", 0.4, 0.5, 21)
        for r in rows:
            assert r["c2_abc"] >= r["rhs_tight"] - 1e-9
            assert r["rhs_tight"] >= r["rhs_fei"] - 1e-12

    def test_fixed_overrides(self):
        rows = experiments.run_scan("canonical-a", 0.4, 0.5, 5, fixed={"p2": 0.3})
        assert rows[0]["p2"] == pytest.approx(0.3)

    def test_rejects_unsupported_family(self):
        with pytest.raises(ValueError):
            experiments.run_scan("haar", 0.0, 1.0, 5)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            experiments.run_scan("bell-product", 0.0, 1.0, 1)


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


class TestWriteRows:
    def test_csv_header_and_determinism(self, tmp_path):
        rows, _ = experiments.run_ensemble(small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        experiments.write_rows(p1, rows, experiments.CSV_COLUMNS)
        experiments.write_rows(p2, rows, experiments.CSV_COLUMNS)
        text = p1.read_text()
        assert text.splitlines()[0] == HEADER
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trips_doubles(self, tmp_path):
        rows, _ = experiments.run_ensemble(small_config())
        path = tmp_path / "x.csv"
        experiments.write_rows(path, rows, experiments.CSV_COLUMNS)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        for orig, rec in zip(rows, back):
            assert float(rec["gap_tight"]) == orig["gap_tight"]
            assert rec["class"] == orig["class"]

    def test_json_output(self, tmp_path):
        rows, _ = experiments.run_ensemble(small_config(count=3))
        path = tmp_path / "x.json"
        experiments.write_rows(path, rows, experiments.CSV_COLUMNS, fmt="json")
        data = json.loads(path.read_text())
        assert len(data) == 3
        assert data[0]["family"] == "canonical-a"

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            experiments.write_rows(tmp_path / "x", [], experiments.CSV_COLUMNS, fmt="xml")


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
