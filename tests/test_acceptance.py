"""Acceptance gate.

One test per criterion, in order, each emitting a single pass/fail line
(visible with -s, and through the test name under -v).  Ensembles are
shared module-scope fixtures so the whole gate stays inside the runtime
budget of the largest criterion.
"""

import math
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from qmono import experiments, inequalities, linalg, measures, states

SEED = 20240823
GRID_STEPS = 101


def emit(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d}: {status}  {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


@pytest.fixture(scope="module")
def haar():
    """10^5 Haar samples and their pivot-A monogamy table, timed."""
    t0 = time.perf_counter()
    psis = states.sample_haar_batch(SEED, 100_000)
    table = inequalities.monogamy_table(psis, "A")
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(psis=psis, table=table, elapsed=elapsed)


@pytest.fixture(scope="module")
def bell_grid():
    grid = np.linspace(0.0, 1.0, GRID_STEPS)
    psis = np.stack([states.make_bell_product(x) for x in grid])
    return grid, inequalities.monogamy_table(psis, "A")


@pytest.fixture(scope="module")
def canonical_100():
    table, _ = experiments.run_ensemble("canonical-a", 100, SEED)
    return table


def test_criterion_01_ghz_goldens():
    r = inequalities.build_report(states.make_ghz(), "A")
    errs = [abs(r.c2_abc - 1.0), r.c2_ab, r.c2_ac, abs(r.tau - 1.0),
            abs(r.rhs_tight - 1.0), abs(r.gap_tight)]
    worst = max(errs)
    emit(1, worst <= 1e-12,
         "GHZ goldens: C2_A(BC)=1, C2_AB=C2_AC=0, tau=1, tight RHS=1, |gap|<=1e-12",
         f"worst abs err {worst:.2e}")


def test_criterion_02_bell_product_family(bell_grid):
    grid, table = bell_grid
    p2 = 1.0 - grid
    errs = {
        "C_AB": np.max(np.abs(np.sqrt(table["c2_ab"]) - grid)),
        "C_AC": np.max(np.abs(np.sqrt(table["c2_ac"]) - np.sqrt(2.0 * grid * p2))),
        "C_A(BC)": np.max(np.abs(np.sqrt(table["c2_abc"]) - np.sqrt(grid * (p2 + 1.0)))),
        "tau": np.max(np.abs(table["tau"])),
    }
    worst = max(errs.values())
    interior = (grid > 0.05) & (grid < 0.95)
    gaps = np.where(interior, np.abs(table["gap_tight"]), np.inf)
    crossing = grid[int(np.argmin(gaps))]
    spacing = grid[1] - grid[0]
    ok = worst <= 1e-10 and abs(crossing - 2.0 / 3.0) <= spacing + 1e-12
    emit(2, ok,
         "bell-product closed forms within 1e-10 on 101-point grid; "
         "tight gap crosses zero at p1=2/3 (within grid spacing)",
         f"worst abs err {worst:.2e}, crossing at p1={crossing:.4f}")


def test_criterion_03_theoremhood_sweep(haar):
    table = haar.table
    min_fei = float(np.min(table["gap_fei"]))
    min_tight = float(np.min(table["gap_tight"]))
    ok = min_fei >= -1e-9 and min_tight >= -1e-9 and haar.elapsed < 30.0
    emit(3, ok,
         "10^5 Haar states: no gap_fei or gap_tight below -1e-9, under 30 s",
         f"min gap_fei {min_fei:.3e}, min gap_tight {min_tight:.3e}, "
         f"{haar.elapsed:.1f} s")


def test_criterion_04_dominance_sweep(haar):
    margin = float(np.min(haar.table["rhs_tight"] - haar.table["rhs_fei"]))
    emit(4, margin >= -1e-12,
         "same ensemble: rhs_tight >= rhs_fei - 1e-12 everywhere",
         f"min(rhs_tight - rhs_fei) {margin:.3e}")


def test_criterion_05_gap_identity(haar):
    t = {k: v[:10_000] for k, v in haar.table.items()}
    lhs = t["c2_abc"] ** 2 - t["rhs_tight"] ** 2
    rhs = (t["c2_ab"] - t["c2_ac"]) ** 2
    worst = float(np.max(np.abs(lhs - rhs)))
    emit(5, worst <= 1e-9,
         "(C2_A(BC))^2 - rhs_tight^2 = (C2_AB - C2_AC)^2 within 1e-9 on 10^4 states",
         f"worst abs err {worst:.2e}")


def test_criterion_06_tangle_consistency(haar):
    psis = haar.psis[:10_000]
    tau_def = measures.residual_tangle(psis, "A")
    dev_ab = np.abs(tau_def - measures.residual_tangle_lambda(psis, ("A", "B")))
    dev_ac = np.abs(tau_def - measures.residual_tangle_lambda(psis, ("A", "C")))
    taus = np.stack([measures.residual_tangle(psis, pv) for pv in ("A", "B", "C")])
    spread = np.max(taus, axis=0) - np.min(taus, axis=0)
    worst_route = float(max(np.max(dev_ab), np.max(dev_ac)))
    worst_spread = float(np.max(spread))
    ok = worst_route <= 1e-9 and worst_spread <= 1e-9
    emit(6, ok,
         "tau defining route vs 4*lambda1*lambda2 within 1e-9; pivot spread within "
         "1e-9 on 10^4 states",
         f"route dev {worst_route:.2e}, pivot spread {worst_spread:.2e}")


def test_criterion_07_wootters_oracle():
    g = np.random.default_rng(SEED)
    psis = g.normal(size=(1000, 4)) + 1j * g.normal(size=(1000, 4))
    psis /= np.linalg.norm(psis, axis=-1, keepdims=True)
    rhos = np.einsum("ni,nj->nij", psis, np.conj(psis))
    mixed = measures.concurrence_mixed(rhos)
    m = psis.reshape(-1, 2, 2)
    rho_a = np.einsum("nik,njk->nij", m, np.conj(m))
    det = np.real(rho_a[:, 0, 0] * rho_a[:, 1, 1] - rho_a[:, 0, 1] * rho_a[:, 1, 0])
    oracle = 2.0 * np.sqrt(np.maximum(det, 0.0))
    worst = float(np.max(np.abs(mixed - oracle)))
    emit(7, worst <= 1e-10,
         "10^3 pure two-qubit projectors: concurrence_mixed = 2 sqrt(det rho_A) "
         "within 1e-10",
         f"worst abs err {worst:.2e}")


def test_criterion_08_trace_decomposition(haar):
    psis = haar.psis[:10_000]
    total = sum(
        measures.trace_rho_rhotilde(linalg.partial_trace(psis, pair))
        for pair in measures.pivot_pairs("A"))
    c2 = measures.bipartition_c2_raw(psis, "A")
    worst = float(np.max(np.abs(total - c2)))
    emit(8, worst <= 1e-10,
         "Tr(rho_AB rho~_AB) + Tr(rho_AC rho~_AC) = C2_A(BC) within 1e-10 on "
         "10^4 states",
         f"worst abs err {worst:.2e}")


def test_criterion_09_canonical_audit(canonical_100):
    audit = {r["formula"]: r["max_abs_dev"]
             for r in experiments.run_discrepancy("canonical-a", n=100, seed=SEED)}
    confirmed = audit["c2_ac"] <= 1e-10
    t = canonical_100
    ordering = bool(np.all((t["c2_abc"] >= t["rhs_tight"] - 1e-9)
                           & (t["rhs_tight"] >= t["rhs_fei"] - 1e-12)))
    emit(9, confirmed and ordering,
         "canonical audit: C2_AC form confirmed within 1e-10; tau/C2_A(BC) "
         "deviations reported; LHS >= tight RHS >= Fei RHS on 100 samples",
         f"c2_ac dev {audit['c2_ac']:.2e}, tau dev {audit['tau']:.2e}, "
         f"c2_abc dev {audit['c2_abc']:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qmono.cli", "ensemble", "--family", "canonical-a",
             "--n", "100", "--seed", "7", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    emit(10, ok,
         "two runs of `ensemble --family canonical-a --n 100 --seed 7` are "
         "byte-identical",
         f"{len(outs[0])} bytes each")
