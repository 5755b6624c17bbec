"""The three workloads, each one round of `qmono` CLI calls made from a seed.

A run repeats its round until its time is up, so every run attempts the
same calls in the same proportions and the share of failed calls is the
same whatever the seed or the run length.  Each call carries the check
of its output and the number of states it reports.

Two known faults stay in the rounds on inputs that do not depend on the
seed, so a fix shows as fewer failed calls:

* F1, qmono.measures.LAMBDA_NOISE_FLOOR zeroes lambda_2 when
  lambda_1 lambda_2 < 3e-7, so tau below about 1.2e-6 reads as 0;
* F2, the roundoff tau under the square root of tight_rhs_values turns a
  zero tight bound into 3e-8 for the Bell pair with p1 = 1.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import oracle

PIVOTS = oracle.PIVOTS
HAAR_N = 10_000
PAPER_N = 3000
BELL_SCAN_STEPS = 1001
CANONICAL_B_SCAN = (0.0, 1.2, 1201)
# ghz, w and Bell-product calls take about 3-5 ms, the rest 9-10 ms; with
# a fifth of the calls in the fast group, the median call sits inside the
# slow group instead of in the gap between the two.
REPORT_KINDS = {"ghz": 20, "w": 20, "bell-product": 59, "canonical-a": 95, "canonical-b": 95,
                "haar": 95, "state-file": 93}
STATE_FILES = 20
# Canonical-a states fall within F1's reach (2e-9 < tau < 1.2e-6) at a
# rate of 3.7e-6 per sample, so a seeded canonical-a draw would fail on
# about one seed in a hundred.  Those inputs use qmono's default seed 0
# instead, where no sample of the rounds below comes near the floor.
CANONICAL_A_SEED = 0


@dataclass
class Call:
    """One CLI invocation, the check of its output and the states it reports."""

    argv: list
    check: Callable[..., list]
    states: int
    outputs: tuple = ()
    fault: str | None = None


def _seeds(rng, k):
    seeds = set()
    while len(seeds) < k:
        seeds.add(rng.randrange(2**64))
    return sorted(seeds)


def haar_ensemble(seed, out):
    """Three 10^4-state Haar ensembles, one per pivot, distinct seeds."""
    calls = []
    for pivot, s in zip(PIVOTS, _seeds(random.Random(seed), 3)):
        path = os.path.join(out, f"haar-{pivot}.csv")
        argv = ["ensemble", "--family", "haar", "--n", str(HAAR_N), "--seed", str(s),
                "--pivot", pivot, "--out", path]
        calls.append(Call(argv, functools.partial(checks.check_ensemble, path, "haar", s,
                                                  HAAR_N, pivot), HAAR_N, (path,)))
    return calls


def paper_figures(seed, out):
    """The paper's figures, README scans, small ensembles and the audit."""
    rng = random.Random(seed)
    s = _seeds(rng, 6)
    calls = []
    for which in (1, 2, 3, 4):
        fig_dir = os.path.join(out, f"fig{which}")
        fig_seed = s[0] if checks.FIGURES[which][0] == "canonical-b" else CANONICAL_A_SEED
        argv = ["figures", "--which", str(which), "--n", str(PAPER_N), "--seed", str(fig_seed),
                "--out-dir", fig_dir]
        files = tuple(os.path.join(fig_dir, f"fig{which}.{ext}") for ext in ("csv", "svg"))
        calls.append(Call(argv, functools.partial(checks.check_figure, fig_dir, which, fig_seed,
                                                  PAPER_N), PAPER_N, files))

    path = os.path.join(out, "scan-bell.csv")
    argv = ["scan", "--family", "bell-product", "--from", "0", "--to", "1",
            "--steps", str(BELL_SCAN_STEPS), "--out", path]
    calls.append(Call(argv, functools.partial(checks.check_scan, path, "csv", "bell-product",
                                              0.0, 1.0, BELL_SCAN_STEPS, "A"),
                      BELL_SCAN_STEPS, (path,), fault="F2"))

    lo, hi, steps = CANONICAL_B_SCAN
    pivot = rng.choice(PIVOTS)
    path = os.path.join(out, "scan-canonical-b.json")
    argv = ["scan", "--family", "canonical-b", "--from", str(lo), "--to", str(hi),
            "--steps", str(steps), "--pivot", pivot, "--format", "json", "--out", path]
    feasible = int(np.sum(checks.scan_grid("canonical-b", lo, hi, steps)[1]))
    calls.append(Call(argv, functools.partial(checks.check_scan, path, "json", "canonical-b",
                                              lo, hi, steps, pivot), feasible, (path,)))

    for family, pivot, fam_seed in (("canonical-b", "B", s[1]), ("canonical-b", "C", s[2]),
                                    ("bell-product", "B", s[3]), ("bell-product", "C", s[4])):
        path = os.path.join(out, f"{family}-{pivot}.csv")
        argv = ["ensemble", "--family", family, "--n", str(PAPER_N), "--seed", str(fam_seed),
                "--pivot", pivot, "--out", path]
        calls.append(Call(argv, functools.partial(checks.check_ensemble, path, family, fam_seed,
                                                  PAPER_N, pivot), PAPER_N, (path,)))

    for family, disc_seed, fault in (("a", CANONICAL_A_SEED, "F1"), ("b", s[5], None)):
        path = os.path.join(out, f"discrepancy-{family}.csv")
        argv = ["discrepancy", "--family", family, "--n", str(PAPER_N), "--seed", str(disc_seed),
                "--out", path]
        calls.append(Call(argv, functools.partial(checks.check_discrepancy, path,
                                                  f"canonical-{family}", disc_seed, PAPER_N),
                          PAPER_N, (path,), fault=fault))
    return calls


def _analyze_check(build, pivot, stdout=None):
    return checks.check_analyze(stdout, build(), pivot)


def _canonical_args(family, p, theta):
    """CLI flags for p1..p4 and theta, and the state with p5 from normalization."""
    p5 = math.sqrt(max(1.0 - sum(float(v) * float(v) for v in p[:4]), 0.0))
    flags = [f for k in range(4) for f in (f"--p{k + 1}", repr(float(p[k])))]
    build = functools.partial(oracle.canonical_states, family, [*map(float, p[:4]), p5],
                              float(theta))
    return flags + ["--theta", repr(float(theta))], build


def single_reports(seed, out):
    """About 500 one-state `analyze` calls over every family, pivots rotating."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(rng.randrange(2**64))
    files = []
    for k in range(STATE_FILES):
        psi = np_rng.normal(size=8) + 1j * np_rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        files.append((_write_state(os.path.join(out, f"state-{k}.json"), psi), psi))
    params = {"canonical-a": oracle.canonical_params(CANONICAL_A_SEED, REPORT_KINDS["canonical-a"]),
              "canonical-b": oracle.canonical_params(rng.randrange(2**64),
                                                     REPORT_KINDS["canonical-b"])}
    specs = []
    for kind, count in REPORT_KINDS.items():
        for i in range(count):
            if kind in ("ghz", "w"):
                state = oracle.ghz_state if kind == "ghz" else oracle.w_state
                specs.append((["--family", kind], state))
            elif kind == "bell-product":
                p1 = rng.random()
                specs.append((["--family", kind, "--p1", repr(p1)],
                              functools.partial(oracle.bell_product_states, p1)))
            elif kind.startswith("canonical"):
                p, theta = params[kind]
                flags, build = _canonical_args(kind, p[i], theta[i])
                specs.append((["--family", kind, *flags], build))
            elif kind == "haar":
                s = rng.randrange(2**64)
                specs.append((["--family", "haar", "--seed", str(s)],
                              functools.partial(oracle.haar_states, s, 1)))
            else:
                path, psi = files[i % STATE_FILES]
                specs.append((["--state", path], functools.partial(np.asarray, psi)))
    # The saturated golden of the Bell-product family (C_AB = C_AC).
    specs.append((["--family", "bell-product", "--p1", "0.6666666666666666"],
                  functools.partial(oracle.bell_product_states, 0.6666666666666666)))
    rng.shuffle(specs)
    calls = [Call(["analyze", *flags, "--pivot", PIVOTS[i % 3]],
                  functools.partial(_analyze_check, build, PIVOTS[i % 3]), 1)
             for i, (flags, build) in enumerate(specs)]

    f1 = checks.w_plus_ghz()
    f1_path = _write_state(os.path.join(out, "w-plus-ghz.json"), f1)
    calls.append(Call(["analyze", "--state", f1_path, "--pivot", "A"],
                      functools.partial(_analyze_check, functools.partial(np.asarray, f1), "A"),
                      1, fault="F1"))
    calls.append(Call(["analyze", "--family", "bell-product", "--p1", "1", "--pivot", "A"],
                      functools.partial(_analyze_check,
                                        functools.partial(oracle.bell_product_states, 1.0), "A"),
                      1, fault="F2"))
    return calls


def _write_state(path, psi):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[float(a.real), float(a.imag)] for a in np.asarray(psi)], fh)
    return path


# Round builder and the number of states one call typically processes,
# which sizes the host-speed reference task (see hostspeed.py).
WORKLOADS = {
    "haar-ensemble": (haar_ensemble, HAAR_N),
    "paper-figures": (paper_figures, PAPER_N),
    "single-reports": (single_reports, 1),
}
