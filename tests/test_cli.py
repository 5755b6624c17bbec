"""CLI behavior: output shapes, exit codes, determinism, figure artifacts."""

import csv
import dataclasses
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import cli, experiments, states
from qmono.inequalities import METRIC_KEYS, build_report

from conftest import EDGE_STATE


def run_cli(args):
    return cli.main(args)


_CANONICAL_KEYS = ("p1", "p2", "p3", "p4", "p5", "theta")


def _analyze_csv_row(out):
    """The CSV row of `analyze --format csv` output: its last two lines."""
    (row,) = csv.DictReader(out.splitlines()[-2:])
    return row


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

    def test_csv_format(self, tmp_path, capsys):
        assert run_cli(["analyze", "--family", "w", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2] == ",".join(experiments.CSV_COLUMNS)
        rec = dict(zip(experiments.CSV_COLUMNS, lines[-1].split(",")))
        assert rec["family"] == "w"
        assert float(rec["c2_ab"]) == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert [rec[k] for k in _CANONICAL_KEYS] == [""] * 6
        # a state file and a Haar state, like w, have no parameter cells to fill
        path = tmp_path / "ghz.json"
        states.write_state_file(path, states.make_ghz())
        for flags, family in ((["--state", str(path)], "file"),
                              (["--family", "haar", "--seed", "4"], "haar")):
            assert run_cli(["analyze", *flags, "--format", "csv"]) == 0
            rec = _analyze_csv_row(capsys.readouterr().out)
            assert rec["family"] == family
            assert [rec[k] for k in _CANONICAL_KEYS] == [""] * 6

    @pytest.mark.parametrize("pivot", ["A", "B", "C"])
    @pytest.mark.parametrize("family", ["bell-product", "canonical-a", "canonical-b"])
    def test_csv_row_is_the_ensemble_row(self, tmp_path, capsys, family, pivot):
        # analyze on an ensemble row's parameter cells writes that row, index aside
        path = tmp_path / "e.csv"
        assert run_cli(["ensemble", "--family", family, "--n", "5", "--seed", "11",
                        "--pivot", pivot, "--out", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        keys = ("p1",) if family == "bell-product" else _CANONICAL_KEYS
        capsys.readouterr()
        for row in rows:
            flags = [x for k in keys for x in (f"--{k}", row[k])]
            assert run_cli(["analyze", "--family", family, *flags, "--pivot", pivot,
                            "--format", "csv"]) == 0
            rec = _analyze_csv_row(capsys.readouterr().out)
            assert rec["index"] == "0"
            assert {k: v for k, v in rec.items() if k != "index"} == {
                k: v for k, v in row.items() if k != "index"}

    def test_csv_numbers_are_the_percent_17g_text(self, capsys):
        # the one-row CSV of analyze: index from the '%d' kernel, numbers from '%.17g'
        assert run_cli(["analyze", "--family", "canonical-b", "--p1", "0.5", "--p2", "0.4",
                        "--p3", "0.3", "--p4", "0.2", "--format", "csv"]) == 0
        row = _analyze_csv_row(capsys.readouterr().out)
        bad = [(key, cell) for key, cell in row.items()
               if key not in ("index", "family", "class") and cell and cell != "%.17g" % float(cell)]
        assert row["index"] == "0" and row["c2_abc"] and not bad, (row, bad)

    def test_tol_sets_printed_class(self, capsys):
        argv = ["analyze", "--family", "bell-product", "--p1", "0.6"]
        assert run_cli(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["class"] == "strict"
        assert payload["saturated_tight"] is False
        assert run_cli(argv + ["--tol", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["class"] == "saturated"
        assert payload["saturated_tight"] is True

    def test_tol_sets_csv_class(self, capsys):
        argv = ["analyze", "--family", "bell-product", "--p1", "0.6", "--format", "csv"]
        for extra, label in (([], "strict"), (["--tol", "0.5"], "saturated")):
            assert run_cli(argv + extra) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            rec = dict(zip(experiments.CSV_COLUMNS, lines[-1].split(",")))
            assert rec["class"] == label
            assert f"class       : {label}" in lines

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

    def test_canonical_p5_is_the_scan_p5(self, capsys):
        # figure 2's grid: every report equals its scan row bit for bit
        table = experiments.run_scan("canonical-a", 0.4, 0.5, 101)
        for i, p1 in enumerate(table["p1"]):
            assert run_cli(["analyze", "--family", "canonical-a", "--p1", repr(float(p1)),
                            "--p2", "0.17", "--p3", "0.16", "--p4", "0.15"]) == 0
            payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert {k: payload[k] for k in METRIC_KEYS} == {
                k: float(table[k][i]) for k in METRIC_KEYS}, (i, p1)

    def test_scan_point_is_the_analyze_state_on_unit_quadruples(self):
        # every two-decimal (p1, p2, p3, p4) in [0, 1] with squares summing to exactly 1:
        # p5 is 0 up to roundoff, and scan takes the builders' verdict on it as analyze does
        quads = []
        for a in range(101):
            for b in range(math.isqrt(10000 - a * a) + 1):
                for c in range(math.isqrt(10000 - a * a - b * b) + 1):
                    rest = 10000 - a * a - b * b - c * c
                    if math.isqrt(rest) ** 2 == rest:
                        quads.append((a, b, c, math.isqrt(rest)))
        assert len(quads) == 1217
        parser = cli.build_parser()
        for i, quad in enumerate(quads):
            family = ("canonical-a", "canonical-b")[i % 2]
            p1, p2, p3, p4 = (v / 100 for v in quad)
            table = experiments.run_scan(family, p1, p1 + 0.5, 2, p2=p2, p3=p3, p4=p4)
            args = parser.parse_args(["analyze", "--family", family, "--p1", str(p1),
                                      "--p2", str(p2), "--p3", str(p3), "--p4", str(p4)])
            psi, params = cli._state_from_args(args)
            report = build_report(psi, "A")
            assert table["feasible"][0], quad
            assert [float(table[k][0]).hex() for k in METRIC_KEYS] == [
                float(getattr(report, k)).hex() for k in METRIC_KEYS], quad
            assert {k: float(v).hex() for k, v in params.items()} == {
                k: float(table[k][0]).hex() for k in _CANONICAL_KEYS}, quad

    def test_overflowing_amplitudes_exit_2(self, tmp_path, capsys):
        # the squared norm overflows to inf without a warning and fails the norm window
        path = tmp_path / "big.json"
        path.write_text(json.dumps([[1e200, 1e200]] * 8))
        assert run_cli(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr().err == "error: state is not normalized within tolerance: norm inf\n"

    def test_overflowing_canonical_parameter_exits_2(self, capsys):
        assert run_cli(["analyze", "--family", "canonical-a", "--p1", "1e200", "--p2", "0",
                        "--p3", "0", "--p4", "0"]) == 2
        assert capsys.readouterr().err == "error: sum of squared parameters is inf, must be 1\n"

    def test_state_at_the_edge_of_the_norm_window(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(EDGE_STATE))
        assert run_cli(["analyze", "--state", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        report = build_report(states.validate([complex(*pair) for pair in EDGE_STATE]))
        assert {k: payload[k] for k in vars(report)} == vars(report)

    def test_invariant_violation_exits_3_after_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_report", lambda psi, pivot: dataclasses.replace(
            build_report(psi, pivot), gap_tight=-1.0))
        assert run_cli(["analyze", "--family", "ghz"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "invariant violation: gap_tight = -1.0\n"
        assert json.loads(captured.out.strip().splitlines()[-1])["class"] == "violated"

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

    def test_boolean_amplitudes_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps([[True, False]] + [[0, 0]] * 7))
        assert run_cli(["analyze", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entry 0 must hold two numbers\n"

    def test_oversized_integer_amplitude_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text("[[1" + "0" * 400 + ", 0]" + ", [0, 0]" * 7 + "]")
        assert run_cli(["analyze", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entry 0 must hold two numbers\n"

    @pytest.mark.parametrize("flags,message", [
        (["--family", "bell-product"], "bell-product requires --p1"),
        (["--family", "canonical-a", "--p1", "0.4"],
         "canonical-a requires --p1 --p2 --p3 --p4 (and --p5 or it is derived "
         "from normalization)"),
        (["--family", "canonical-b", "--p1", "0.9", "--p2", "0.9", "--p3", "0", "--p4", "0"],
         "sum of squared parameters is 1.62, must be 1"),
    ])
    def test_missing_family_parameters_exit_2(self, capsys, flags, message):
        assert run_cli(["analyze", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--family", "ghz", "--p1", "7", "--theta", "9", "--seed", "5"],
         "--p1 does not apply to --family ghz"),
        (["--family", "ghz", "--p1", "0.5"], "--p1 does not apply to --family ghz"),
        (["--family", "w", "--seed", "-7"], "--seed does not apply to --family w"),
        (["--state", "{state}", "--p1", "3", "--theta", "2", "--seed", "9"],
         "--p1 does not apply to --state"),
        (["--family", "bell-product", "--p1", "0.5", "--theta", "1"],
         "--theta does not apply to --family bell-product"),
        (["--family", "canonical-a", "--p1", "0.4", "--p2", "0.17", "--p3", "0.16",
          "--p4", "0.15", "--seed", "2"], "--seed does not apply to --family canonical-a"),
        (["--family", "canonical-b", "--p1", "0.5", "--p2", "0.4", "--p3", "0.3",
          "--p4", "0.2", "--theta", "1", "--seed", "0"],
         "--seed does not apply to --family canonical-b"),
        (["--family", "haar", "--p5", "0.1", "--seed", "3"],
         "--p5 does not apply to --family haar"),
    ], ids=["ghz", "ghz-p1", "w", "state-file", "bell-product", "canonical-a", "canonical-b",
            "haar"])
    def test_option_the_state_is_not_built_from_exits_2(self, tmp_path, capsys, flags,
                                                          message):
        path = tmp_path / "ghz.json"
        states.write_state_file(path, states.make_ghz())
        argv = ["analyze", *(str(path) if f == "{state}" else f for f in flags)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("absent,given", [
        (["--family", "haar"], ["--family", "haar", "--seed", "0"]),
        (["--family", "canonical-a", "--p1", "0.4", "--p2", "0.17", "--p3", "0.16", "--p4", "0.15"],
         ["--family", "canonical-a", "--p1", "0.4", "--p2", "0.17", "--p3", "0.16", "--p4", "0.15",
          "--theta", "0"]),
    ], ids=["seed", "theta"])
    def test_absent_seed_and_theta_are_zero(self, capsys, absent, given):
        outputs = []
        for flags in (absent, given):
            assert run_cli(["analyze", *flags, "--format", "csv"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_haar_report_is_the_library_report(self, capsys):
        assert run_cli(["analyze", "--family", "haar", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        report = build_report(states.sample_haar(states.RngState(3, 0)))
        assert {k: payload[k] for k in vars(report)} == vars(report)

    @pytest.mark.parametrize("family", [
        ["--family", "ghz"],
        ["--family", "w"],
        ["--family", "bell-product", "--p1", "0.6"],
        ["--family", "canonical-a", "--p1", "0.4", "--p2", "0.17", "--p3", "0.16",
         "--p4", "0.15", "--theta", "2.5"],
        ["--family", "canonical-b", "--p1", "0.5", "--p2", "0.4", "--p3", "0.3", "--p4", "0.2"],
        ["--family", "haar", "--seed", "7"],
        pytest.param(["--family", "haar"], id="haar-default-seed"),
    ], ids=lambda flags: flags[1])
    @pytest.mark.parametrize("pivot", ["A", "B", "C"])
    @pytest.mark.parametrize("tol", [[], ["--tol", "0.5"]], ids=["default-tol", "tol-0.5"])
    def test_saturated_tight_is_the_saturated_class(self, capsys, family, pivot, tol):
        assert run_cli(["analyze", *family, "--pivot", pivot, *tol]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["pivot"] == pivot
        assert payload["saturated_tight"] is (payload["class"] == "saturated")

    @pytest.mark.parametrize("tol", ["--tol=nan", "--tol=inf", "--tol=-inf"])
    def test_non_finite_tol_exits_2(self, capsys, tol):
        # NaN used to label GHZ strict, and inf every state saturated
        assert run_cli(["analyze", "--family", "ghz", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite")

    @pytest.mark.parametrize("argv,message", [
        (["--family", "canonical-a", "--p1", "-1e-3", "--p2", "0.17", "--p3", "0.16",
          "--p4", "0.15"], "canonical parameters must be finite and non-negative"),
        (["--family", "w", "--tol", "-1e-9"], "tol must be positive"),
        (["--family", "canonical-a", "--p1", "0.4", "--p2", "0.17", "--p3", "0.16",
          "--p4", "0.15", "--theta", "-5."], "theta must lie in [0, pi), got -5.0"),
    ])
    def test_negative_value_with_exponent_or_trailing_point_exits_2(self, capsys, argv, message):
        # argparse's default pattern reads -1e-3 and -5. as options (exit 1)
        assert run_cli(["analyze", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["analyze"],
        ["analyze", "--family", "ghz", "-1e-3"],
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


# Argv the subcommand dispatch of `cli._parse_args` must read as the full parse does.
_PARSED_ARGV = [
    ["analyze", "--family", "ghz"],
    ["analyze", "--fam", "w"],
    ["analyze", "--family=ghz", "--pivot", "B"],
    ["analyze", "--family", "canonical-a", "--p1", "0.4", "--p2", "0.17", "--p3", "0.16",
     "--p4", "0.15", "--theta", "-5."],
    ["analyze", "--family", "haar", "--seed", "3", "--format", "csv"],
    ["analyze", "--state", "x.json", "--tol", "1e-6"],
    ["ensemble", "--family", "haar", "--n", "5", "--out", "e.json", "--format", "json"],
    ["scan", "--family", "bell-product", "--from", "-1e-3", "--to", "1", "--steps", "3",
     "--out", "s.csv"],
    ["scan", "--family", "canonical-a", "--from", "0", "--to", "1", "--steps", "11",
     "--p2", "0.3", "--theta", "1.1", "--out", "f.csv"],
    ["figures", "--which", "2", "--n", "5", "--out-dir", "figs", "--tol", "1e-8"],
    ["discrepancy", "--family", "a", "--format", "json"],
    ["discrepancy", "--family", "b", "--n", "20", "--seed", "5", "--out", "d.csv"],
]

# Argv that end in SystemExit: help, version, and usage errors at either level.
_EXITING_ARGV = [
    [], ["-h"], ["--version"], ["bogus"], ["--version", "analyze"],
    ["analyze"], ["analyze", "-h"],
    ["analyze", "--family", "ghz", "--version"],
    ["analyze", "--family", "ghz", "extra"],
    ["analyze", "--family", "ghz", "-x"],
    ["analyze", "--family", "ghz", "--", "x"],
    ["analyze", "--family", "nope"],
    ["analyze", "--family", "ghz", "--state", "x.json"],
    ["analyze", "--family", "bell-product", "--p1", "abc"],
    ["analyze", "--family", "ghz", "--tol"],
    ["scan", "--family", "bell-product"],
]


def _exit_of(call, argv, capsys):
    with pytest.raises(SystemExit) as err:
        call(argv)
    return (err.value.code, *capsys.readouterr())


class TestDispatch:
    @pytest.mark.parametrize("argv", _PARSED_ARGV, ids=" ".join)
    def test_same_namespace_as_the_full_parse(self, argv):
        assert vars(cli._parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", _EXITING_ARGV, ids=lambda argv: " ".join(argv) or "none")
    def test_same_exit_as_the_full_parse(self, argv, capsys):
        assert _exit_of(cli.main, argv, capsys) == _exit_of(cli.build_parser().parse_args,
                                                            argv, capsys)

    def test_no_argv_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["qmono", "analyze", "--family", "ghz", "--pivot", "C"])
        assert cli.main() == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["pivot"] == "C"
        monkeypatch.setattr("sys.argv", ["qmono"])
        assert _exit_of(cli.main, None, capsys)[0] == 1
        # a subcommand's help and an option prefix go through its own parser
        monkeypatch.setattr("sys.argv", ["qmono", "analyze", "-h"])
        assert _exit_of(cli.main, None, capsys)[0] == 0
        monkeypatch.setattr("sys.argv", ["qmono", "analyze", "--fam", "ghz"])
        assert cli.main() == 0

    def test_a_subcommand_skips_the_top_level_parse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("top-level parse_args called")
        monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
        assert cli.main(["analyze", "--family", "ghz"]) == 0


class TestNegativeNumbers:
    @given(st.from_regex(r"^-\d+$|^-\d*\.\d+$"))
    @settings(max_examples=100, deadline=None)
    def test_every_token_argparse_takes_for_a_number_still_is_one(self, token):
        assert cli._NEGATIVE_NUMBER.match(token)

    @given(st.from_regex(cli._NEGATIVE_NUMBER))
    @settings(max_examples=100, deadline=None)
    def test_every_token_taken_for_a_number_is_a_float(self, token):
        assert float(token) <= 0.0


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
        for family, n in (("ghz", 2), ("haar", 5)):
            assert run_cli(["ensemble", "--family", family, "--n", str(n), "--out", str(out),
                            "--format", "json"]) == 0
            assert len(json.loads(out.read_text())) == n

    @pytest.mark.parametrize("tol", ["--tol=nan", "--tol=inf", "--tol=-inf"])
    def test_non_finite_tol_exits_2(self, tmp_path, capsys, tol):
        out = tmp_path / "runs.csv"
        assert run_cli(["ensemble", "--family", "haar", "--n", "5", tol, "--out", str(out)]) == 2
        assert "tol must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["haar", "canonical-a", "ghz", "w"])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, family):
        out = tmp_path / "runs.csv"
        assert run_cli(["ensemble", "--family", family, "--n", "3",
                        "--seed", str(2**64), "--out", str(out)]) == 2
        assert "unsigned 64-bit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_negative_seed_exits_2_for_unsampled_families(self, tmp_path, capsys, family):
        out = tmp_path / "runs.csv"
        for seed in ("-5", "-1"):
            assert run_cli(["ensemble", "--family", family, "--n", "2",
                            "--seed", seed, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: seed must fit in an unsigned 64-bit integer\n")
            assert not out.exists()

    def test_csv_numbers_are_the_percent_17g_text(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run_cli(["ensemble", "--family", "canonical-b", "--n", "50000", "--seed", "9",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [(row["index"], key, cell) for row in rows for key, cell in row.items()
               if key not in ("index", "family", "class") and cell != "%.17g" % float(cell)]
        assert len(rows) == 50000 and not bad, (len(rows), bad[:5])

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


def _scan_in_both_formats(tmp_path, capsys, family, lo, hi, steps):
    """The stdout of one scan run to CSV and to JSON, the CSV rows and the JSON records."""
    stdouts = []
    for fmt in ("csv", "json"):
        assert run_cli(["scan", "--family", family, "--from", lo, "--to", hi, "--steps", steps,
                        "--format", fmt, "--out", str(tmp_path / f"s.{fmt}")]) == 0
        stdouts.append(capsys.readouterr().out)
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return stdouts, rows, json.loads((tmp_path / "s.json").read_text())


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

    def test_boundary_point_is_the_analyze_state(self, tmp_path, capsys):
        # 0 + 0 + 0.36 + 0.64 rounds above 1, so p5 is 0 within the builders' norm window
        out = tmp_path / "scan.csv"
        coefficients = ["--p2", "0", "--p3", "0.6", "--p4", "0.8"]
        assert run_cli(["scan", "--family", "canonical-a", "--from", "0", "--to", "0.1",
                        "--steps", "2", *coefficients, "--out", str(out)]) == 0
        assert "feasible=1 skipped=1" in capsys.readouterr().out
        with open(out, newline="") as fh:
            row, last = list(csv.DictReader(fh))
        assert run_cli(["analyze", "--family", "canonical-a", "--p1", "0", *coefficients,
                        "--format", "csv"]) == 0
        (report,) = csv.DictReader(capsys.readouterr().out.strip().splitlines()[-2:])
        assert row["index"] == "0" and row["note"] == "" and row["p5"] == "0"
        assert last["note"].startswith("infeasible")
        keys = _CANONICAL_KEYS + METRIC_KEYS
        assert {k: row[k] for k in keys} == {k: report[k] for k in keys}

    def test_figure_2_grid_point_is_the_analyze_row(self, tmp_path, capsys):
        # analyze derives p5 as scan does: the scan row's parameters and metrics
        out = tmp_path / "f2.csv"
        assert run_cli(["scan", "--family", "canonical-a", "--from", "0.4", "--to", "0.5",
                        "--steps", "101", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            row = list(csv.DictReader(fh))[93]
        capsys.readouterr()
        assert run_cli(["analyze", "--family", "canonical-a", "--p1", row["p1"], "--p2", "0.17",
                        "--p3", "0.16", "--p4", "0.15", "--format", "csv"]) == 0
        report = _analyze_csv_row(capsys.readouterr().out)
        bad = [(key, row[key], report[key]) for key in _CANONICAL_KEYS + METRIC_KEYS
               if row[key] != report[key]]
        assert row["index"] == "93" and not bad, bad

    def test_fixed_coefficients_are_the_given_or_the_sweep_defaults(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run_cli(["scan", "--family", "canonical-a", "--from", "0", "--to", "1",
                        "--steps", "11", "--p2", "0.3", "--theta", "1.1", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if not row["note"]]
        want = {"p2": 0.3, "p3": 0.16, "p4": 0.15, "theta": 1.1}
        assert rows and all({k: float(row[k]) for k in want} == want for row in rows), rows

    def test_csv_and_json_hold_the_same_cells(self, tmp_path, capsys):
        # JSON "" exactly where the CSV cell is empty, the same number elsewhere
        _, rows, records = _scan_in_both_formats(tmp_path, capsys, "bell-product", "-0.5",
                                                 "1.5", "21")
        assert len(rows) == len(records) == 21 and any(row["note"] for row in rows), rows
        for row, record in zip(rows, records):
            assert list(row) == list(record), (row, record)
            for key, cell in row.items():
                value = record[key]
                same = value == cell if cell == "" or isinstance(value, str) else float(cell) == value
                assert same, (row["index"], key, cell, value)

    def test_grid_without_a_state_is_empty_in_both_formats(self, tmp_path, capsys):
        # every cell but index, family and note is empty in the CSV and "" in the JSON
        stdouts, rows, records = _scan_in_both_formats(tmp_path, capsys, "canonical-a", "1.5",
                                                       "2", "3")
        assert stdouts == ["family=canonical-a steps=3 feasible=0 skipped=3\n"] * 2
        keep = ("index", "family", "note")
        assert len(rows) == len(records) == 3 and all(row["note"] for row in rows), rows
        for row, record in zip(rows, records):
            assert list(row) == list(record), (row, record)
            assert all(row[key] == record[key] == "" for key in row if key not in keep), (
                row, record)

    def test_overflowing_grid_point_is_infeasible(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--family", "canonical-a", "--from", "0", "--to", "1e200",
                        "--steps", "3", "--out", str(out)]) == 0
        assert "feasible=1 skipped=2" in capsys.readouterr().out
        with open(out, newline="") as fh:
            notes = [row["note"] for row in csv.DictReader(fh)]
        assert notes[0] == "" and all(n.startswith("infeasible") for n in notes[1:])

    @pytest.mark.parametrize("lo,hi", [("nan", "1"), ("0", "inf"), ("-1.7e308", "1.7e308")])
    def test_non_finite_bound_exits_2(self, tmp_path, capsys, lo, hi):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--family", "bell-product", f"--from={lo}", f"--to={hi}",
                        "--steps", "3", "--out", str(out)]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_bound_with_exponent_is_a_value(self, tmp_path, capsys):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        outputs = []
        for out, bound in ((spaced, ["--from", "-1e-3"]), (joined, ["--from=-1e-3"])):
            assert run_cli(["scan", "--family", "bell-product", *bound, "--to", "1",
                            "--steps", "3", "--out", str(out)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert spaced.read_bytes() == joined.read_bytes()
        assert spaced.read_text().splitlines()[1].endswith('"infeasible: p1 outside [0, 1]"')

    @pytest.mark.parametrize("lo,hi", [("0", "1"), ("2", "3")], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("tol", ["--tol=nan", "--tol=inf"])
    def test_non_finite_tol_exits_2(self, tmp_path, capsys, lo, hi, tol):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--family", "bell-product", "--from", lo, "--to", hi,
                        "--steps", "3", tol, "--out", str(out)]) == 2
        assert "tol must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fixed,message", [
        (["--p2", "nan"], "canonical parameters must be finite and non-negative"),
        (["--p3", "inf"], "canonical parameters must be finite and non-negative"),
        (["--theta", "nan"], "theta must lie in [0, pi), got nan"),
    ])
    def test_non_finite_fixed_coefficient_exits_2(self, tmp_path, capsys, fixed, message):
        # p1 > 1 leaves no point of this grid a state that would check them
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--family", "canonical-a", "--from", "1.1", "--to", "1.2",
                        "--steps", "3", *fixed, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fixed,name", [
        (["--p2", "5", "--theta", "9"], "p2"),
        (["--p2", "nan"], "p2"),
        (["--p4", "0.1"], "p4"),
        (["--theta", "0"], "theta"),
        (["--theta", "1"], "theta"),
    ])
    def test_bell_product_takes_no_fixed_coefficient(self, tmp_path, capsys, fixed, name):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--family", "bell-product", "--from", "0", "--to", "1",
                        "--steps", "3", *fixed, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: a bell-product scan takes no fixed coefficients, got {name}\n")
        assert not out.exists()

    def test_rejects_unsupported_parameter(self, tmp_path, capsys):
        # p1 is the only swept parameter, so there is no --param option
        out = tmp_path / "scan.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["scan", "--family", "bell-product", "--param", "p3",
                     "--from", "0", "--to", "1", "--steps", "3", "--out", str(out)])
        assert err.value.code == 1
        assert "unrecognized arguments: --param p3" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("which,n,least", [(2, 1, 2), (1, 0, 1)])
    def test_too_small_n_names_the_option(self, tmp_path, capsys, which, n, least):
        assert run_cli(["figures", "--which", str(which), "--n", str(n),
                        "--out-dir", str(tmp_path / "figs")]) == 2
        assert capsys.readouterr().err == (
            f"error: --n must be at least {least} for figure {which}, got {n}\n")
        assert not (tmp_path / "figs").exists()

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", ["-4", str(2**64)])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, which, seed):
        # figure 2 samples nothing, yet takes the seeds the other figures take
        assert run_cli(["figures", "--which", str(which), "--seed", seed, "--n", "5",
                        "--out-dir", str(tmp_path / "figs")]) == 2
        assert capsys.readouterr().err == "error: seed must fit in an unsigned 64-bit integer\n"
        assert not (tmp_path / "figs").exists()

    def test_svg_slots_are_the_percent_2f_text(self, tmp_path, capsys):
        # every circle centre and polyline point of figures 1 and 2 is '%.2f' text
        for which, n in ((2, 200), (1, 300)):
            assert run_cli(["figures", "--which", str(which), "--n", str(n),
                            "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        svg = "{http://www.w3.org/2000/svg}"
        lines = ET.parse(tmp_path / "fig2.svg").findall(f".//{svg}polyline")
        assert len(lines) == 3, lines
        values = []
        for name in ("fig1.svg", "fig2.svg"):
            root = ET.parse(tmp_path / name).getroot()
            values += [c.get(k) for c in root.iter(svg + "circle") for k in ("cx", "cy")]
            values += [v for line in root.iter(svg + "polyline")
                       for v in re.split("[ ,]", line.get("points"))]
        bad = [v for v in values if v != "%.2f" % float(v)]
        assert len(values) == 2 * 3 * (300 + 200) and not bad, (len(values), bad[:5])

    def test_svg_points_come_from_csv(self, tmp_path, capsys):
        # every plotted y value must appear in the CSV data columns
        run_cli(["figures", "--which", "3", "--seed", "4", "--n", "10",
                 "--out-dir", str(tmp_path)])
        capsys.readouterr()
        with open(tmp_path / "fig3.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _, _, series, _, _ = experiments.run_figure(3, seed=4, n=10)
        for s, key in zip(series, ("c2_abc", "rhs_tight")):
            assert np.array_equal(s.ys, [float(r[key]) for r in rows])


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

    def test_json_matches_row_dicts(self, capsys):
        for flags, family, n, seed in ((["--family", "a", "--n", "30", "--seed", "4"],
                                        "canonical-a", 30, 4),
                                       (["--family", "b", "--n", "20"], "canonical-b", 20, 0)):
            assert run_cli(["discrepancy", *flags, "--format", "json"]) == 0
            rows = experiments.run_discrepancy(family, n=n, seed=seed)
            assert capsys.readouterr().out == json.dumps(rows, indent=1) + "\n"

    def test_empty_sample_exits_2(self, capsys):
        assert run_cli(["discrepancy", "--family", "a", "--n", "0"]) == 2
        assert capsys.readouterr().err == "error: n must be at least 1\n"

    def test_long_family_names_accepted(self, capsys):
        assert run_cli(["discrepancy", "--family", "canonical-b", "--n", "20"]) == 0
        capsys.readouterr()


# The argv shapes the benchmark sends, and the largest seed every sampled family
# takes; "{tmp}" stands for a scratch directory.
_CANONICAL_P = ["--p1", "0.4", "--p2", "0.17", "--p3", "0.16", "--p4", "0.15"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "ghz"],
    ["analyze", "--family", "w", "--pivot", "B"],
    ["analyze", "--family", "w", "--pivot", "B", "--format", "csv"],
    ["analyze", "--family", "bell-product", "--p1", "0.6666666666666666"],
    ["analyze", "--family", "canonical-a", *_CANONICAL_P, "--theta", "2.5"],
    ["analyze", "--family", "canonical-b", *_CANONICAL_P, "--pivot", "C"],
    ["analyze", "--family", "haar", "--seed", "18446744073709551615"],
    ["analyze", "--family", "haar", "--format", "csv"],
    ["analyze", "--state", "{tmp}/ghz.json", "--pivot", "B"],
    *(["figures", "--which", str(k), "--seed", "4", "--n", "6", "--out-dir", "{tmp}"]
      for k in (1, 2, 3, 4)),
    ["ensemble", "--family", "ghz", "--n", "2", "--seed", "18446744073709551615",
     "--out", "{tmp}/g.csv"],
    ["ensemble", "--family", "w", "--n", "2", "--seed", "9", "--out", "{tmp}/w.csv"],
    *(["ensemble", "--family", family, "--n", "3", "--seed", "18446744073709551615",
       "--out", "{tmp}/m.csv"] for family in ("haar", "bell-product", "canonical-a",
                                              "canonical-b")),
    ["scan", "--family", "bell-product", "--from", "0", "--to", "1", "--steps", "11",
     "--out", "{tmp}/b.csv"],
    ["scan", "--family", "canonical-b", "--from", "0", "--to", "1.2", "--steps", "13",
     "--pivot", "B", "--format", "json", "--out", "{tmp}/c.json"],
    ["discrepancy", "--family", "b", "--n", "20", "--seed", "5", "--out", "{tmp}/d.csv"],
], ids=lambda argv: " ".join(a for a in argv if "{tmp}" not in a))
def test_accepted_argv_exits_0(tmp_path, capsys, argv):
    states.write_state_file(tmp_path / "ghz.json", states.make_ghz())
    assert run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "ghz"],
    ["ensemble", "--family", "haar", "--n", "5", "--out", "{tmp}/e.csv"],
    ["scan", "--family", "canonical-a", "--from", "0", "--to", "1", "--steps", "3",
     "--out", "{tmp}/s.csv"],
    ["figures", "--which", "1", "--n", "5", "--out-dir", "{tmp}/figs"],
    ["figures", "--which", "2", "--n", "5", "--out-dir", "{tmp}/figs"],
], ids=lambda argv: " ".join(argv[:3]))
def test_nan_tol_gives_one_message_everywhere(tmp_path, capsys, argv):
    assert run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--tol", "nan"]) == 2
    assert capsys.readouterr() == ("", "error: tol must be finite, got nan\n")
    assert list(tmp_path.iterdir()) == []


# Every JSON float token is the repr of its double, on a scan and an ensemble
# each of more than 10 000 tokens.
@pytest.mark.parametrize("argv", [
    ["scan", "--family", "canonical-b", "--from", "0", "--to", "1.2", "--steps", "1201",
     "--pivot", "B", "--format", "json", "--out", "{tmp}/r.json"],
    ["ensemble", "--family", "haar", "--n", "2000", "--seed", "7", "--format", "json",
     "--out", "{tmp}/r.json"],
], ids=lambda argv: " ".join(argv[:3]))
def test_json_float_tokens_are_reprs(tmp_path, capsys, argv):
    assert run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    tokens = []
    with open(tmp_path / "r.json") as fh:
        json.load(fh, parse_float=lambda t: tokens.append(t) or float(t))
    bad = [t for t in tokens if t != repr(float(t))]
    assert len(tokens) > 10000 and not bad, (len(tokens), bad[:5])


# Counts past the most elements any array can hold (2**60 float64) are refused
# by name before numpy sees them; numpy itself would raise IndexError or
# OverflowError.  A command that draws streams refuses more than the 2**32
# streams `uniforms` can address, by the same name, before it samples.
@pytest.mark.parametrize("argv,message", [
    (["scan", "--family", "bell-product", "--from", "0", "--to", "1",
      "--steps", str(2**63), "--out", "{tmp}/s.csv"], f"steps must be at most {2**60}"),
    (["figures", "--which", "2", "--n", str(2**64 - 1), "--out-dir", "{tmp}/figs"],
     f"--n must be at most {2**60}"),
    (["ensemble", "--family", "ghz", "--n", str(2**63), "--out", "{tmp}/g.csv"],
     f"n must be at most {2**60}"),
    (["ensemble", "--family", "w", "--n", str(2**64), "--out", "{tmp}/w.csv"],
     f"n must be at most {2**60}"),
    (["ensemble", "--family", "haar", "--n", str(2**32 + 1), "--out", "{tmp}/h.csv"],
     f"n must be at most {2**32}"),
    (["ensemble", "--family", "bell-product", "--n", str(2**32 + 1), "--out", "{tmp}/b.csv"],
     f"n must be at most {2**32}"),
    (["ensemble", "--family", "canonical-b", "--n", str(2**32 + 1), "--out", "{tmp}/c.csv"],
     f"n must be at most {2**32}"),
    (["figures", "--which", "1", "--n", str(2**32 + 1), "--out-dir", "{tmp}/figs"],
     f"--n must be at most {2**32}"),
    (["discrepancy", "--family", "a", "--n", str(2**32 + 1)], f"n must be at most {2**32}"),
], ids=["scan-steps", "figures-n", "ensemble-ghz-n", "ensemble-w-n", "ensemble-haar-streams",
        "ensemble-bell-product-streams", "ensemble-canonical-streams", "figures-1-streams",
        "discrepancy-streams"])
def test_count_no_array_can_hold_exits_2(tmp_path, capsys, argv, message):
    assert run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}, got ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# 10^17 float64 grid points or 10^16 states of 8 complex128 amplitudes: over
# 700 PiB, beyond any address space, so numpy refuses at once.
@pytest.mark.parametrize("argv", [
    ["scan", "--family", "bell-product", "--from", "0", "--to", "1",
     "--steps", str(10**17), "--out", "{tmp}/s.csv"],
    ["figures", "--which", "2", "--n", str(10**17), "--out-dir", "{tmp}/figs"],
    ["ensemble", "--family", "ghz", "--n", str(10**16), "--out", "{tmp}/g.csv"],
], ids=lambda argv: " ".join(argv[:3]))
def test_allocation_numpy_refuses_exits_2(tmp_path, capsys, argv):
    assert run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []
