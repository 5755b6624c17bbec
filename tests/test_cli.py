"""CLI behavior: output shapes, exit codes, determinism, figure artifacts."""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

from qmono import cli, experiments, states


def run_cli(args):
    return cli.main(args)


class TestAnalyze:
    def test_ghz_human_and_json(self, capsys):
        assert run_cli(["analyze", "--family", "ghz"]) == 0
        out = capsys.readouterr().out
        assert "tau         : 1" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["tau"] == 1.0
        assert payload["class"] == "saturated"
        assert payload["raw_unclamped"]["tau"] == 1.0

    def test_bell_product_saturation(self, capsys):
        assert run_cli(["analyze", "--family", "bell-product",
                        "--p1", "0.6666666666666666"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(payload["gap_tight"]) < 1e-10

    def test_csv_format(self, capsys):
        assert run_cli(["analyze", "--family", "w", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2] == ",".join(experiments.CSV_COLUMNS)
        rec = dict(zip(experiments.CSV_COLUMNS, lines[-1].split(",")))
        assert rec["family"] == "w"
        assert float(rec["c2_ab"]) == pytest.approx(4.0 / 9.0, abs=1e-9)

    def test_state_file_all_zeros(self, tmp_path, capsys):
        path = tmp_path / "product.json"
        path.write_text(json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 7))
        assert run_cli(["analyze", "--state", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        for key in ("c2_ab", "c2_ac", "c2_abc", "tau"):
            assert payload[key] == 0.0

    def test_canonical_p5_derived_from_normalization(self, capsys):
        assert run_cli(["analyze", "--family", "canonical-a", "--p1", "0.4",
                        "--p2", "0.17", "--p3", "0.16", "--p4", "0.15"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["c2_abc"] > 0.5

    def test_pivot_selects_split(self, capsys):
        run_cli(["analyze", "--family", "bell-product", "--p1", "0.5", "--pivot", "C"])
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["pivot"] == "C"

    def test_validation_failures_exit_2(self, tmp_path, capsys):
        assert run_cli(["analyze", "--family", "bell-product", "--p1", "1.5"]) == 2
        assert run_cli(["analyze", "--family", "canonical-a", "--p1", "0.9",
                        "--p2", "0.9", "--p3", "0.1", "--p4", "0.1"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[0.5, 0.0]] * 8))
        assert run_cli(["analyze", "--state", str(bad)]) == 2
        capsys.readouterr()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["analyze"],
        ["ensemble", "--family", "canonical-a"],
        ["scan", "--family", "bell-product", "--from", "0", "--to", "1"],
        ["figures", "--which", "7", "--out-dir", "x"],
    ])
    def test_exit_code_1(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 1
        capsys.readouterr()



class TestParserReuse:
    def test_tree_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_do_not_leak_defaults(self, capsys):
        assert run_cli(["analyze", "--family", "ghz", "--pivot", "B", "--format", "csv"]) == 0
        capsys.readouterr()
        assert run_cli(["analyze", "--family", "ghz"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["pivot"] == "A"

    def test_usage_error_after_a_good_call_exits_1(self, capsys):
        assert run_cli(["analyze", "--family", "w"]) == 0
        with pytest.raises(SystemExit) as err:
            run_cli(["analyze", "--pivot", "D"])
        assert err.value.code == 1
        capsys.readouterr()
        assert run_cli(["analyze", "--family", "w", "--pivot", "C"]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["pivot"] == "C"

class TestEnsemble:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        assert run_cli(["ensemble", "--family", "haar", "--n", "50",
                        "--seed", "3", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "violated=0" in text
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert rows[0]["p1"] == ""

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["ensemble", "--family", "canonical-a", "--n", "100",
                 "--seed", "7", "--out", str(a)])
        run_cli(["ensemble", "--family", "canonical-a", "--n", "100",
                 "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "runs.json"
        run_cli(["ensemble", "--family", "ghz", "--n", "2", "--out", str(out),
                 "--format", "json"])
        assert len(json.loads(out.read_text())) == 2

    @pytest.mark.parametrize("family", ["haar", "canonical-a"])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, family):
        out = tmp_path / "runs.csv"
        assert run_cli(["ensemble", "--family", family, "--n", "3",
                        "--seed", str(2**64), "--out", str(out)]) == 2
        assert "unsigned 64-bit" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_violation_exits_3_but_writes(self, tmp_path, capsys, monkeypatch):
        def tampered(run):
            def wrapper(*args, **kwargs):
                out = run(*args, **kwargs)
                (out[0] if isinstance(out, tuple) else out)["tau"][0] = 2.0
                return out
            return wrapper

        for name in ("run_ensemble", "run_scan", "run_figure"):
            monkeypatch.setattr(experiments, name, tampered(getattr(experiments, name)))
        runs = [
            (["ensemble", "--family", "ghz", "--n", "2", "--out", str(tmp_path / "runs.csv")],
             tmp_path / "runs.csv"),
            (["scan", "--family", "bell-product", "--from", "0", "--to", "1", "--steps", "5",
              "--out", str(tmp_path / "scan.csv")], tmp_path / "scan.csv"),
            (["figures", "--which", "3", "--n", "4", "--out-dir", str(tmp_path / "figs")],
             tmp_path / "figs" / "fig3.csv"),
        ]
        for args, out in runs:
            assert run_cli(args) == 3
            assert out.exists()
            err = capsys.readouterr().err
            assert err.startswith("invariant violation: row 0: tau closure off by ")
            assert err.count("\n") == 1


class TestScan:
    def test_zero_crossing_near_two_thirds(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--family", "bell-product", "--from", "0",
                        "--to", "1", "--steps", "1001", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        interior = [r for r in rows if 0.05 < float(r["p1"]) < 0.95]
        best = min(interior, key=lambda r: abs(float(r["gap_tight"])))
        assert abs(float(best["p1"]) - 2.0 / 3.0) <= 0.001 + 1e-12
        assert abs(float(best["gap_tight"])) < 1e-5

    def test_note_column_for_infeasible_points(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--family", "canonical-a", "--from", "0.9",
                        "--to", "1.0", "--steps", "6", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["note"].startswith("infeasible")
        assert rows[-1]["gap_tight"] == ""

    def test_rejects_unsupported_parameter(self, capsys):
        assert run_cli(["scan", "--family", "bell-product", "--param", "p3",
                        "--from", "0", "--to", "1", "--steps", "3",
                        "--out", "/tmp/never-written.csv"]) == 2
        capsys.readouterr()


class TestFigures:
    @pytest.mark.parametrize("which,n_series", [(1, 3), (2, 3), (3, 2), (4, 2)])
    def test_artifacts(self, tmp_path, capsys, which, n_series):
        assert run_cli(["figures", "--which", str(which), "--seed", "4",
                        "--n", "20", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        csv_path = tmp_path / f"fig{which}.csv"
        svg_path = tmp_path / f"fig{which}.svg"
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        usable = [r for r in rows if r.get("note", "") == ""]
        if which == 2:
            lines = root.findall(".//s:polyline", ns)
            assert len(lines) == n_series
        else:
            circles = root.findall(".//s:circle", ns)
            assert len(circles) == len(usable) * n_series

    def test_svg_points_come_from_csv(self, tmp_path, capsys):
        # every plotted y value must appear in the CSV data columns
        run_cli(["figures", "--which", "3", "--seed", "4", "--n", "10",
                 "--out-dir", str(tmp_path)])
        capsys.readouterr()
        with open(tmp_path / "fig3.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _, _, series, _, _ = experiments.run_figure(3, seed=4, n=10)
        for s, key in zip(series, ("c2_abc", "rhs_tight")):
            assert s.ys == [float(r[key]) for r in rows]


class TestDiscrepancy:
    def test_text_table(self, capsys):
        assert run_cli(["discrepancy", "--family", "a", "--n", "40"]) == 0
        out = capsys.readouterr().out
        assert "formula" in out
        assert "c2_ac" in out
        assert "sign-adjusted" in out

    def test_json_and_csv_copy(self, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        assert run_cli(["discrepancy", "--family", "b", "--n", "40",
                        "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"formula", "max_abs_dev", "note"} <= set(rows[0])
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == len(rows)

    def test_long_family_names_accepted(self, capsys):
        assert run_cli(["discrepancy", "--family", "canonical-b", "--n", "20"]) == 0
        capsys.readouterr()
