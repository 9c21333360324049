"""End-to-end acceptance suite.

Reproduces the reference convergence tables for the Burgers study at
sigma^2 = 0.2, T = 1 (desk-scale Monte-Carlo sizes, fixed seeds) and checks
the analytic oracles and structural identities at their stated tolerances.
Each check prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (HeatKernel, QuantileTable, flux_value, init_w1_to_m, pde_residual,
                     rank_coefficients, support, trajectory, w1_cdf_form, w_rho_empirical)
from rankflow import (BurgersSolution, FluxFunction,
                      SimulationConfig, StudySpec,
                      optimal_positions, run_study, simulate)
from rankflow.initial import Uniform

SIGMA2 = 0.2
SIGMA = float(np.sqrt(SIGMA2))
HORIZON = 1.0
BURGERS = FluxFunction.burgers()
SEED = 42

# Reference study values (Burgers, sigma^2 = 0.2, T = 1); see README.
STRONG_N_REFERENCE = {250: (0.03312361, 0.00290442), 16000: (0.00358799, 0.00028319)}
STRONG_H_REFERENCE = [0.07963922, 0.03550774, 0.01682159, 0.00817936]
WEAK_N_REFERENCE = {100: (0.01018160, 5.6947e-4)}
WEAK_H_REFERENCE = [0.07954397, 0.03546112, 0.01681185, 0.00816986]

H_SWEEP = (0.5, 0.25, 0.125, 0.0625)


def report(label: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{label}: {detail}"


def base_config(**kw):
    defaults = dict(n_particles=100, step=0.002, horizon=HORIZON, sigma=SIGMA,
                    flux=BURGERS, seed=SEED)
    defaults.update(kw)
    return SimulationConfig(**defaults)


# The long tables run on two workers, or serially on a one-core host: a
# table is bitwise the same for every worker count (criterion 8).

@pytest.fixture(scope="module")
def strong_n_table():
    spec = StudySpec("strong", base_config(seed=2024), "n", (250, 1000, 4000),
                     runs=100, threads=2)
    return run_study(spec)


@pytest.fixture(scope="module")
def strong_h_table():
    spec = StudySpec("strong", base_config(n_particles=50_000, step=0.5), "h",
                     H_SWEEP, runs=100, threads=2)
    return run_study(spec)


@pytest.fixture(scope="module")
def weak_n_table():
    spec = StudySpec("weak", base_config(), "n", (100, 200, 400), runs=5000,
                     batches=50, grid_k=5000, threads=2)
    return run_study(spec)


@pytest.fixture(scope="module")
def weak_h_table():
    spec = StudySpec("weak", base_config(n_particles=20_000, step=0.5), "h",
                     H_SWEEP, runs=1000, batches=20, grid_k=5000, threads=2)
    return run_study(spec)


# -- 1. strong error vs number of particles -----------------------------------

def test_criterion_1_strong_error_vs_n(strong_n_table):
    rows = strong_n_table
    first = rows[0].estimation
    ratios = [r.ratio for r in rows[1:]]
    ok = 0.027 <= first <= 0.040 and all(1.5 <= r <= 2.7 for r in ratios)
    report("1 strong-vs-N", ok,
           f"est(250)={first:.5f} in [0.027, 0.040]; x4 ratios "
           + ", ".join(f"{r:.2f}" for r in ratios) + " in [1.5, 2.7]")


def test_strong_error_reference_row_n16000():
    # one row with paired seeds runs the base config's own seed
    spec = StudySpec("strong", base_config(), "n", (16_000,), runs=100, paired_seeds=True,
                     threads=2)
    (row,) = run_study(spec)
    est, prec = row.estimation, row.precision
    ref_est, ref_prec = STRONG_N_REFERENCE[16000]
    ok = abs(est - ref_est) <= 3.0 * ref_prec
    report("1b strong N=16000 row", ok,
           f"est={est:.6f} vs reference {ref_est} within 3x{ref_prec}")


# -- 2. strong error vs time step ----------------------------------------------

def test_criterion_2_strong_error_vs_h(strong_h_table):
    rows = strong_h_table
    rel = [abs(r.estimation - ref) / ref for r, ref in zip(rows, STRONG_H_REFERENCE)]
    ratios = [r.ratio for r in rows[1:]]
    ok = all(e <= 0.10 for e in rel) and all(1.7 <= r <= 2.5 for r in ratios)
    report("2 strong-vs-h", ok,
           "rel.dev " + ", ".join(f"{e:.1%}" for e in rel) + " <= 10%; halving ratios "
           + ", ".join(f"{r:.2f}" for r in ratios) + " in [1.7, 2.5]")


# -- 3. weak error vs number of particles ---------------------------------------

def test_criterion_3_weak_error_vs_n(weak_n_table):
    rows = weak_n_table
    ref_est, ref_prec = WEAK_N_REFERENCE[100]
    combined = np.hypot(rows[0].precision, ref_prec)
    ratios = [r.ratio for r in rows[1:]]
    ok = (abs(rows[0].estimation - ref_est) <= 3.0 * combined
          and all(1.5 <= r <= 2.6 for r in ratios))
    report("3 weak-vs-N", ok,
           f"est(100)={rows[0].estimation:.5f} vs {ref_est} within 3x{combined:.5f}; "
           "x2 ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " in [1.5, 2.6]")


# -- 4. weak error vs time step ---------------------------------------------------

def test_criterion_4_weak_error_vs_h(weak_h_table):
    rows = weak_h_table
    rel = [abs(r.estimation - ref) / ref for r, ref in zip(rows, WEAK_H_REFERENCE)]
    ratios = [r.ratio for r in rows[1:]]
    ok = all(e <= 0.10 for e in rel) and all(1.7 <= r <= 2.3 for r in ratios)
    report("4 weak-vs-h", ok,
           "rel.dev " + ", ".join(f"{e:.1%}" for e in rel) + " <= 10%; halving ratios "
           + ", ".join(f"{r:.2f}" for r in ratios) + " in [2.0 +- 0.3]")


# -- 5. exact-solution oracle ------------------------------------------------------

def test_criterion_5_exact_solution_oracle():
    sol = BurgersSolution(SIGMA)
    worst_residual = 0.0
    for t in np.linspace(0.5, 1.0, 21):
        spread = 3.0 * SIGMA * np.sqrt(t)
        for x in np.linspace(t / 2.0 - spread, t / 2.0 + spread, 21):
            worst_residual = max(worst_residual, abs(pde_residual(sol, t, x, 1e-3)))
    center_dev = max(abs(sol.cdf(t, t / 2.0) - 0.5) for t in (0.1, 1.0, 5.0))
    round_trip = max(abs(sol.cdf(1.0, sol.quantile(1.0, u)) - u)
                     for u in (0.01, 0.3, 0.9))
    ok = worst_residual <= 1e-4 and center_dev <= 1e-12 and round_trip <= 1e-10
    report("5 exact oracle", ok,
           f"max PDE residual {worst_residual:.2e} <= 1e-4; center dev "
           f"{center_dev:.1e} <= 1e-12; round trip {round_trip:.1e} <= 1e-10")


# -- 6. heat-kernel identities -------------------------------------------------------

def test_criterion_6_heat_kernel_identities():
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        kern = HeatKernel(sigma)
        for t in (0.1, 1.0, 4.0):
            span = 12.0 * sigma * np.sqrt(t)
            checks = []
            value, _ = quad(lambda x: abs(kern.dg_dx(t, x)), -span, span,
                            points=[0.0], limit=200)
            checks.append((value, np.sqrt(2.0 / (np.pi * sigma**2 * t))))
            value, _ = quad(lambda x: kern.g(t, x) ** 2, -span, span, limit=200)
            checks.append((value, 1.0 / (2.0 * sigma * np.sqrt(np.pi * t))))
            value, _ = quad(lambda x: kern.dg_dx(t, x) ** 2, -span, span, limit=200)
            checks.append((value, 1.0 / (4.0 * sigma**3 * t**1.5 * np.sqrt(np.pi))))
            xs = np.linspace(-2.0 * sigma * np.sqrt(t), 2.0 * sigma * np.sqrt(t), 21)
            xs = xs[np.abs(xs) > 1e-9]
            lhs = kern.dg_dx(t, xs) ** 2
            rhs = xs**2 / (2.0 * sigma**5 * t**2.5 * np.sqrt(np.pi)) * kern.g(t / 2.0, xs)
            checks.append((np.max(np.abs(lhs / rhs)), 1.0))

            def inner(x, _t=t, _k=kern):
                v, _ = quad(lambda s: _k.g(_t - s, 0.37 - x) ** 2, 0.0, _t, limit=200)
                return v

            value, _ = quad(inner, 0.37 - span, 0.37 + span, points=[0.37], limit=200)
            checks.append((value, np.sqrt(t / np.pi) / sigma))
            worst = max(worst, max(abs(a / b - 1.0) for a, b in checks))
    ok = worst <= 1e-6
    report("6 heat-kernel identities", ok, f"worst relative deviation {worst:.2e} <= 1e-6")


# -- 7. structural properties -----------------------------------------------------------

def test_criterion_7_structural_properties():
    rng = np.random.default_rng(2024)
    # sorted snapshots are closer than raw snapshots (1000 pairs, rho = 1, 2)
    reorder_ok, pairs = True, 0
    for _ in range(25):
        cfg = SimulationConfig(
            n_particles=int(rng.integers(2, 30)), step=0.125, horizon=1.0,
            sigma=float(rng.uniform(0.1, 2.0)), flux=BURGERS,
            seed=int(rng.integers(2**63)))
        snaps = trajectory(cfg)
        for _ in range(40):
            i, j = sorted(rng.choice(len(snaps), size=2, replace=False))
            for rho in (1.0, 2.0):
                lhs = np.sum(np.abs(np.sort(snaps[j]) - np.sort(snaps[i])) ** rho)
                rhs = np.sum(np.abs(snaps[j] - snaps[i]) ** rho)
                reorder_ok &= lhs <= rhs * (1.0 + 1e-12) + 1e-12
            pairs += 1

    telescoping = max(
        abs(float(np.mean(rank_coefficients(f, n)))
            - (flux_value(f, 1.0) - flux_value(f, 0.0)))
        for f in (BURGERS, FluxFunction.quadratic())
        for n in (1, 100, 10**6))

    w1_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        a, b = rng.normal(size=(2, n)) * 2.0
        w1_gap = max(w1_gap, abs(w1_cdf_form(a, b) - w_rho_empirical(a, b, 1.0)))

    init_ok = True
    for law in (Uniform(-1.0, 3.0), QuantileTable((-1.0, 0.5, 2.0), (0.25, 0.5, 0.25))):
        lo, hi = support(law)
        for n in (1, 2, 10, 100):
            value = init_w1_to_m(optimal_positions(law, n), law)
            init_ok &= value <= (hi - lo) / (2.0 * n) + 1e-12

    proximity = 0.0
    for n in (10, 100):
        base = dict(n_particles=n, step=0.125, horizon=HORIZON, sigma=SIGMA,
                    flux=BURGERS, seed=17)
        gap = (simulate(SimulationConfig(scheme="rank", **base)).positions
               - simulate(SimulationConfig(scheme="frac", **base)).positions)
        proximity = max(proximity, float(np.max(np.abs(gap - HORIZON / (2.0 * n)))))

    ok = (reorder_ok and pairs >= 1000 and telescoping <= 1e-12
          and w1_gap <= 1e-12 and init_ok and proximity <= 1e-12)
    report("7 structural properties", ok,
           f"reordering {pairs} pairs ok={reorder_ok}; telescoping {telescoping:.1e}; "
           f"CDF-vs-quantile W1 gap {w1_gap:.1e}; init bound ok={init_ok}; "
           f"scheme gap dev {proximity:.1e}")


# -- 8. determinism across thread counts ----------------------------------------------

def test_criterion_8_thread_count_invariance():
    spec = StudySpec("weak", base_config(n_particles=64, step=0.125), "n",
                     (32, 64), runs=8, batches=2, grid_k=200)
    serial = run_study(spec)
    repeat = run_study(spec)
    pooled2 = run_study(replace(spec, threads=2))
    pooled3 = run_study(replace(spec, threads=3))
    ok = serial == repeat == pooled2 == pooled3
    report("8 determinism", ok,
           "bitwise identical tables for threads in {1, 1, 2, 3}")


# -- convergence rates from the tables --------------------------------------------------

def _loglog_slope(params, estimates):
    return float(np.polyfit(np.log(params), np.log(estimates), 1)[0])


def test_strong_rate_in_n(strong_n_table):
    slope = _loglog_slope([r.parameter for r in strong_n_table],
                          [r.estimation for r in strong_n_table])
    assert abs(slope - (-0.5)) <= 0.15


def test_weak_rate_in_n(weak_n_table):
    slope = _loglog_slope([r.parameter for r in weak_n_table],
                          [r.estimation for r in weak_n_table])
    assert abs(slope - (-1.0)) <= 0.2


def test_strong_rate_in_h(strong_h_table):
    slope = _loglog_slope([r.parameter for r in strong_h_table],
                          [r.estimation for r in strong_h_table])
    assert abs(slope - 1.0) <= 0.15


def test_weak_rate_in_h(weak_h_table):
    slope = _loglog_slope([r.parameter for r in weak_h_table],
                          [r.estimation for r in weak_h_table])
    assert abs(slope - 1.0) <= 0.15
