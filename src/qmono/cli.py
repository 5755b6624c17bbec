"""Command line front end.

Subcommands: analyze (one state, one pivot), ensemble (sampled batch to
CSV), scan (p1 grid to CSV), figures (CSV plus SVG for the comparison
plots), discrepancy (closed-form audit table).

Exit codes: 0 success, 1 usage error, 2 validation error, 3 invariant
violation.  On exit 3 any requested output file has already been
written so the offending records can be inspected.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import __version__, experiments, states, svgplot
from .inequalities import METRIC_KEYS, SATURATION_TOL, build_report, classify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3

_DISCREPANCY_COLUMNS = ["formula", "max_abs_dev", "note"]


# A token that reads as a negative decimal number is a value, not an option.
# argparse's default pattern, '^-\d+$|^-\d*\.\d+$', misses an exponent or a
# trailing point, and reads `--from -1e-3` or `--theta -5.` as a missing value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1.

    Negative numbers are recognised by `_NEGATIVE_NUMBER`, set once per
    parser when the tree is built, so a parse costs what the default costs.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# The options each analyze family builds its state from; ghz, w and a state
# file read none of them, and any option a state is not built from exits 2.
_CANONICAL_OPTIONS = ("p1", "p2", "p3", "p4", "p5", "theta")
_STATE_OPTIONS = _CANONICAL_OPTIONS + ("seed",)
_FAMILY_OPTIONS = {"bell-product": ("p1",), "canonical-a": _CANONICAL_OPTIONS,
                   "canonical-b": _CANONICAL_OPTIONS, "haar": ("seed",)}


def _state_from_args(args):
    """The analyze state and its parameter columns, none for a file, haar, ghz and w."""
    family = args.family
    unread = [k for k in _STATE_OPTIONS
              if getattr(args, k) is not None and k not in _FAMILY_OPTIONS.get(family, ())]
    if unread:
        source = "--state" if family is None else f"--family {family}"
        raise ValueError(f"--{unread[0]} does not apply to {source}")
    if args.state is not None:
        return states.read_state_file(args.state), {}
    if family in ("canonical-a", "canonical-b"):
        given = [args.p1, args.p2, args.p3, args.p4, args.p5]
        if any(v is None for v in given[:4]):
            raise ValueError(f"{family} requires --p1 --p2 --p3 --p4 (and --p5 or it "
                             "is derived from normalization)")
        if given[4] is None:
            # p1..p4 that overshoot leave p5 = 0 for the builder's norm check to refuse
            given[4] = states.normalizing_p5(*given[:4])
        return experiments._family_states(family, np.array(given),
                                          0.0 if args.theta is None else args.theta)
    if family == "bell-product":
        if args.p1 is None:
            raise ValueError("bell-product requires --p1")
        return experiments._family_states(family, args.p1)
    if family == "haar":
        return states.sample_haar(states.RngState(0 if args.seed is None else args.seed, 0)), {}
    return (states.make_ghz() if family == "ghz" else states.make_w()), {}


def cmd_analyze(args) -> int:
    psi, params = _state_from_args(args)
    report = build_report(psi, args.pivot)
    label = classify(report, args.tol)
    d = {**vars(report), "class": label, "saturated_tight": label == "saturated"}
    sys.stdout.write("".join(f"{key:<12}: {experiments.format_number(d[key])}\n"
                             for key in ("pivot", *METRIC_KEYS, "class")))
    if args.format == "csv":
        row = {**d, **params, "index": 0, "family": args.family if args.state is None else "file"}
        table = {k: np.array([v]) for k, v in row.items() if k in experiments.CSV_COLUMNS}
        sys.stdout.writelines(experiments.format_rows(table, experiments.CSV_COLUMNS, "csv"))
    else:
        print(json.dumps(d, sort_keys=True))
    if label == "violated":
        raise experiments.InvariantViolation(f"gap_tight = {report.gap_tight!r}")
    return EXIT_OK


def _print_summary(summary: dict) -> None:
    print(f"family={summary['family']} n={summary['count']} seed={summary['seed']} "
          f"pivot={summary['pivot']}")
    for key in ("gap_fei", "gap_tight"):
        s = summary[key]
        print(f"{key:<10} min={s['min']:.6e} median={s['median']:.6e} max={s['max']:.6e}")
    print(f"saturated={summary['saturated']} violated={summary['violated']}")


def cmd_ensemble(args) -> int:
    table, summary = experiments.run_ensemble(args.family, args.n, args.seed,
                                              pivot=args.pivot, tolerance=args.tol)
    experiments.write_rows(args.out, table, experiments.CSV_COLUMNS, args.format)
    _print_summary(summary)
    experiments.validate_rows(table)
    return EXIT_OK


def cmd_scan(args) -> int:
    table = experiments.run_scan(args.family, args.lo, args.hi, args.steps, pivot=args.pivot,
                                 tolerance=args.tol, p2=args.p2, p3=args.p3, p4=args.p4,
                                 theta=args.theta)
    experiments.write_rows(args.out, table, experiments.SCAN_COLUMNS, args.format)
    feasible = table["feasible"]
    count = int(np.count_nonzero(feasible))
    print(f"family={args.family} steps={args.steps} feasible={count} "
          f"skipped={len(feasible) - count}")
    if count:
        gaps = np.abs(table["gap_tight"][feasible])
        best = int(np.argmin(gaps))
        print(f"smallest |gap_tight| {gaps[best]:.6e} at p1="
              f"{experiments.format_number(table['p1'][feasible][best])}")
    experiments.validate_rows(table)
    return EXIT_OK


def cmd_figures(args) -> int:
    table, columns, series, title, xlabel = experiments.run_figure(
        args.which, args.seed, n=args.n, pivot=args.pivot, tolerance=args.tol)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, f"fig{args.which}.csv")
    svg_path = os.path.join(args.out_dir, f"fig{args.which}.svg")
    experiments.write_rows(csv_path, table, columns, "csv")
    svgplot.render_svg(svg_path, title, xlabel, "squared concurrence", series)
    print(csv_path)
    print(svg_path)
    experiments.validate_rows(table)
    return EXIT_OK


def cmd_discrepancy(args) -> int:
    family = {"a": "canonical-a", "b": "canonical-b"}.get(args.family, args.family)
    rows = experiments.run_discrepancy(family, n=args.n, seed=args.seed)
    table = {c: np.array([r[c] for r in rows]) for c in _DISCREPANCY_COLUMNS}
    if args.out is not None:
        experiments.write_rows(args.out, table, _DISCREPANCY_COLUMNS, "csv")
    if args.format == "json":
        sys.stdout.writelines(experiments.format_rows(table, _DISCREPANCY_COLUMNS, "json"))
        return EXIT_OK
    width = max(len(r["formula"]) for r in rows)
    print(f"{'formula':<{width}}  {'max |dev|':>11}  note")
    for r in rows:
        print(f"{r['formula']:<{width}}  {r['max_abs_dev']:>11.3e}  {r['note']}")
    return EXIT_OK


def _add_common(sub, fmt=True):
    sub.add_argument("--pivot", choices=("A", "B", "C"), default="A",
                     help="qubit treated as the single side of every split")
    sub.add_argument("--tol", type=float, default=SATURATION_TOL,
                     help="saturation/violation tolerance on the tight gap")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="machine output format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by later ones.

    Parsing leaves the tree unchanged (each call fills a fresh namespace),
    so one process pays for building it once. `commands` maps each
    subcommand name to its parser.
    """
    parser = _Parser(prog="qmono",
                     description="Concurrence monogamy bounds for pure three-qubit states.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices

    pa = sub.add_parser("analyze", help="report one state at one pivot")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", choices=states.FAMILIES)
    src.add_argument("--state", metavar="FILE", help="JSON file of 8 [re, im] amplitudes")
    for k in range(1, 6):
        pa.add_argument(f"--p{k}", type=float)
    pa.add_argument("--theta", type=float, help="phase of the canonical families (default 0)")
    pa.add_argument("--seed", type=int, help="stream seed for --family haar (default 0)")
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze, format="json")

    pe = sub.add_parser("ensemble", help="sample a family and write one CSV row per state")
    pe.add_argument("--family", choices=states.FAMILIES, required=True)
    pe.add_argument("--n", type=int, default=100)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", required=True)
    _add_common(pe)
    pe.set_defaults(func=cmd_ensemble)

    ps = sub.add_parser("scan", help="sweep p1 on a grid and write one CSV row per point")
    ps.add_argument("--family", choices=("bell-product", "canonical-a", "canonical-b"),
                    required=True)
    ps.add_argument("--from", dest="lo", type=float, required=True)
    ps.add_argument("--to", dest="hi", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    for k in (2, 3, 4):
        ps.add_argument(f"--p{k}", type=float, help="fixed coefficient for canonical scans")
    ps.add_argument("--theta", type=float, help="fixed phase for canonical scans")
    ps.add_argument("--out", required=True)
    _add_common(ps)
    ps.set_defaults(func=cmd_scan)

    pf = sub.add_parser("figures", help="write CSV data and an SVG for one figure")
    pf.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--n", type=int, default=100)
    pf.add_argument("--out-dir", dest="out_dir", required=True)
    _add_common(pf, fmt=False)
    pf.set_defaults(func=cmd_figures)

    pd = sub.add_parser("discrepancy",
                        help="audit the candidate closed forms against numerics")
    pd.add_argument("--family", choices=("a", "b", "canonical-a", "canonical-b"),
                    required=True)
    pd.add_argument("--n", type=int, default=200)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out", help="optional CSV copy of the table")
    pd.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="stdout format: json prints the table as JSON, csv (the default) "
                         "as aligned text; the CSV itself goes to --out")
    pd.set_defaults(func=cmd_discrepancy)
    return parser


def _parse_args(argv):
    """`build_parser().parse_args(argv)` without the top level's scan of each string.

    The top level passes every string after a subcommand name to that
    subcommand's parser and reports what it leaves; any other argv takes
    the full parse."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except experiments.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
