"""Tests of the benchmark's own checks, reference values and tracer.

    python3 -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
from qmono import cli, experiments, inequalities, measures, states  # noqa: E402
from spans import Tracer  # noqa: E402

STREAM_SEEDS = (0, 1, 2**32, 2**64 - 1)


def _row(**values):
    return {k: np.array([float(v)]) for k, v in values.items()}


# Exact report values: GHZ at any pivot; W and the Bell-product family at
# p1 = 2/3 (pivot A), where C_AB = C_AC saturates the tight bound.
GOLDENS = {
    "ghz": (oracle.ghz_state(), _row(c2_ab=0, c2_ac=0, c2_abc=1, tau=1, rhs_fei=1, rhs_tight=1,
                                     gap_fei=0, gap_tight=0)),
    "w": (oracle.w_state(), _row(c2_ab=4 / 9, c2_ac=4 / 9, c2_abc=8 / 9, tau=0, rhs_fei=8 / 9,
                                 rhs_tight=8 / 9, gap_fei=0, gap_tight=0)),
    "bell-product": (oracle.bell_product_states(2 / 3)[0],
                     _row(c2_ab=4 / 9, c2_ac=4 / 9, c2_abc=8 / 9, tau=0, rhs_fei=8 / 9,
                          rhs_tight=8 / 9, gap_fei=0, gap_tight=0)),
}
SATURATED = np.array(["saturated"])


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_checks_accept_goldens(name):
    psi, values = GOLDENS[name]
    assert checks.check_values(values, SATURATED, psi, "A") == []


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_checks_accept_program_goldens(name):
    psi, _ = GOLDENS[name]
    report = inequalities.build_report(psi, "A")
    values = {k: np.array([getattr(report, k)]) for k in oracle.METRICS}
    assert checks.check_values(values, np.array([inequalities.classify(report)]), psi, "A") == []


def test_checks_reject_tau_moved_by_1e_8():
    psi, values = GOLDENS["ghz"]
    moved = dict(values, tau=values["tau"] - 1e-8, c2_ab=values["c2_ab"] + 1e-8)
    problems = checks.check_values(moved, SATURATED, psi, "A")
    # closure still holds, so only the reference comparison can catch it
    assert checks.row_properties(moved, SATURATED) == []
    assert any("tau off the reference" in p for p in problems)


def test_checks_reject_broken_closure():
    psi, values = GOLDENS["w"]
    broken = dict(values, c2_abc=values["c2_abc"] + 1e-10)
    problems = checks.check_values(broken, SATURATED, psi, "A")
    assert any("closure" in p for p in problems)


def test_checks_reject_wrong_class_label():
    psi, values = GOLDENS["w"]
    assert any("class label" in p
               for p in checks.check_values(values, np.array(["strict"]), psi, "A"))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_rebuild_is_bitwise(seed):
    n = 40
    rebuilt = oracle.haar_states(seed, n)
    assert np.array_equal(rebuilt, states.sample_haar_batch(seed, n))
    singles = np.stack([states.sample_haar(states.RngState(seed, i)) for i in range(n)])
    assert np.array_equal(rebuilt, singles)
    p, theta = oracle.canonical_params(seed, n)
    specs = [states.sample_canonical(states.RngState(seed, i), "canonical-a") for i in range(n)]
    assert np.array_equal(p, np.array([s.p for s in specs]))
    assert np.array_equal(theta, np.array([s.theta for s in specs]))
    p1 = [float(states.RngState(seed, i).uniforms(1)[0]) for i in range(n)]
    assert np.array_equal(oracle.bell_product_p1(seed, n), np.array(p1))


@pytest.mark.parametrize("pivot", oracle.PIVOTS)
def test_reference_matches_program_on_haar_states(pivot):
    psi = oracle.haar_states(7, 2000)
    table = inequalities.monogamy_table(psi, pivot)
    ref = oracle.monogamy_values(psi, pivot)
    for key in oracle.METRICS:
        assert np.max(np.abs(table[key] - ref[key])) < 1e-12, key


def test_reference_values_of_the_fault_inputs():
    # W + 3e-7 GHZ: the hyperdeterminant tangle that qmono's floor zeroes
    tau = oracle.monogamy_values(checks.w_plus_ghz(), "A")["tau"][0]
    assert math.isclose(tau, 6.532e-7, rel_tol=1e-3)
    # Bell pair with p1 = 1: the tight bound is exactly zero at pivots A and B
    for pivot in ("A", "B"):
        assert oracle.monogamy_values(oracle.bell_product_states(1.0), pivot)["rhs_tight"][0] == 0.0


def test_discrepancy_reference_matches_program():
    rows = experiments.run_discrepancy("canonical-b", n=200, seed=3)
    ref = oracle.discrepancy_devs("canonical-b", 3, 200)
    assert sorted(ref) == sorted(r["formula"] for r in rows)
    for r in rows:
        assert abs(r["max_abs_dev"] - ref[r["formula"]]) <= oracle.VALUE_TOL, r["formula"]


def test_ensemble_check_on_program_output(tmp_path):
    path = str(tmp_path / "cb.csv")
    assert cli.main(["ensemble", "--family", "canonical-b", "--n", "50", "--seed", "9",
                     "--pivot", "C", "--out", path]) == 0
    assert checks.check_ensemble(path, "canonical-b", 9, 50, "C") == []
    # the same file read as another seed's draw is caught
    assert checks.check_ensemble(path, "canonical-b", 10, 50, "C") != []


def test_tracer_self_times_add_up_and_uninstall_restores():
    original = measures.hermitian_eigensystem
    tracer = Tracer()
    tracer.install()
    try:
        assert measures.hermitian_eigensystem is not original
        assert cli.main(["analyze", "--family", "w", "--pivot", "B"]) == 0
    finally:
        tracer.uninstall()
    assert measures.hermitian_eigensystem is original
    assert tracer.self_s.sum() == pytest.approx(tracer.root_s, rel=1e-9)
    metrics = tracer.metrics(1)
    assert metrics["linalg.eigensolve_calls"][0] == 4
    assert metrics["inequalities.table_calls"][0] == 1
    assert metrics["inequalities.table_states"][0] == 1
