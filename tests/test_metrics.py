import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import rankflow.harness as harness
from oracles import psi_grid_free_unblocked, w1_cdf_form, w_rho_empirical
from rankflow import (BurgersSolution, ConfigError, FluxFunction, GridSpec, SimulationConfig,
                      StudySpec, empirical_cdf_at, phi_grid, psi_grid_free)
from rankflow.metrics import _BLOCK


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


# -- w_rho between empirical measures ----------------------------------------

def test_w_rho_identical_measures():
    x = np.array([3.0, -1.0, 2.0])
    assert w_rho_empirical(x, x[::-1]) == 0.0


def test_w_rho_single_atoms():
    assert w_rho_empirical([0.0], [1.0], 1.0) == 1.0


def test_w_rho_sorted_pairing():
    assert w_rho_empirical([0.0, 2.0], [1.0, 3.0], 1.0) == pytest.approx(1.0, abs=1e-15)


def test_w_rho_validation():
    with pytest.raises(ConfigError):
        w_rho_empirical([1.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        w_rho_empirical([1.0], [1.0], rho=0.5)


def test_w_rho_metric_axioms():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        a, b, c = rng.normal(size=(3, n)) * rng.uniform(0.5, 3.0)
        for rho in (1.0, 2.0):
            dab = w_rho_empirical(a, b, rho)
            assert abs(dab - w_rho_empirical(b, a, rho)) <= 1e-12
            assert dab <= w_rho_empirical(a, c, rho) + w_rho_empirical(c, b, rho) + 1e-12


# -- w1 via CDFs ---------------------------------------------------------------

def test_w1_cdf_form_identical():
    x = np.array([0.5, -2.0, 0.5])
    assert w1_cdf_form(x, x) == 0.0


def test_w1_cdf_form_two_atoms():
    assert w1_cdf_form([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0, abs=1e-15)


def test_w1_cdf_form_matches_quantile_form():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        a = rng.normal(size=n) * 2.0
        b = rng.normal(size=n) + rng.uniform(-1, 1)
        assert abs(w1_cdf_form(a, b) - w_rho_empirical(a, b, 1.0)) <= 1e-12


def test_w1_cdf_form_unequal_sizes():
    # piecewise-constant CDFs integrated by hand
    assert w1_cdf_form([0.0], [1.0, 2.0]) == pytest.approx(1.5, abs=1e-15)
    assert w1_cdf_form([0.0, 1.0], [2.0]) == pytest.approx(1.5, abs=1e-15)


# -- empirical CDF -------------------------------------------------------------

def test_empirical_cdf_at():
    pos = [1.0, 2.0, 3.0]
    assert empirical_cdf_at(pos, 2.0) == pytest.approx(2.0 / 3.0)
    assert empirical_cdf_at(pos, 0.0) == 0.0
    assert empirical_cdf_at(pos, 3.0) == 1.0
    assert empirical_cdf_at([0.0, 0.0], 0.0) == 1.0  # weak inequality
    np.testing.assert_allclose(empirical_cdf_at(pos, np.array([1.5, 9.0])),
                               [1.0 / 3.0, 1.0])


# -- grid-free estimator -------------------------------------------------------

def test_psi_two_point_hand_value():
    assert psi_grid_free([0.25, 0.75], uniform_cdf) == pytest.approx(0.125, abs=1e-15)


def test_psi_all_equal_is_zero():
    assert psi_grid_free(np.full(6, 0.4), uniform_cdf) == 0.0


def test_psi_optimal_uniform_positions_closed_form():
    # positions (2i-1)/(2n) against the uniform CDF: every deviation is
    # exactly 1/(2n), so the sum collapses to (n-1)/(2n^2)
    for n in (100, 1000, 10000):
        pos = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        expected = (n - 1) / (2.0 * n**2)
        assert psi_grid_free(pos, uniform_cdf) == pytest.approx(expected, abs=1e-12)


def test_psi_iid_matches_exact_integral_oracle():
    # independent oracle: exact piecewise integral of |F_n - F| for the
    # uniform law, including the two tail cells that the estimator omits
    n = 1000
    y = np.sort(np.random.default_rng(42).random(n))
    exact = y[0] ** 2 / 2.0 + (1.0 - y[-1]) ** 2 / 2.0
    for i in range(n - 1):
        a, b, c = y[i], y[i + 1], (i + 1) / n
        if c <= a:
            exact += ((b - c) ** 2 - (a - c) ** 2) / 2.0
        elif c >= b:
            exact += ((c - a) ** 2 - (c - b) ** 2) / 2.0
        else:
            exact += ((c - a) ** 2 + (b - c) ** 2) / 2.0
    estimate = psi_grid_free(y, uniform_cdf)
    assert abs(estimate - exact) <= 0.02 * exact


def test_psi_peak_memory_is_two_arrays_and_two_blocks():
    # the caller's sample and its sorted copy, which the terms are written
    # over, and the reference CDF of a block and two working blocks,
    # whatever the sample size: of these only the copy and the three blocks
    # are allocated in the estimate
    n = 100_000
    x = np.random.default_rng(3).permutation(n) / n
    tracemalloc.start()
    try:
        psi_grid_free(x, uniform_cdf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n * 8 < peak < n * 8 + 3 * _BLOCK * 8 + 4096


@pytest.mark.parametrize("n", [2, 2**16, 2**16 + 1, 3 * 2**16 + 5])
@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_blocked_psi_is_the_whole_array_sum_bitwise(n, order):
    # the sum has n - 1 terms: at 2**16 + 1 they fill whole blocks, at 2**16
    # the last block is one term short
    assert 2**16 % _BLOCK == 0
    x = np.random.default_rng(n).normal(0.5, 1.0, n)
    if order == "sorted":
        x.sort()
    cdf = partial(BurgersSolution(np.sqrt(0.2)).cdf, 1.0)
    assert (np.float64(psi_grid_free(x, cdf)).tobytes()
            == np.float64(psi_grid_free_unblocked(x, cdf)).tobytes())


def test_psi_writes_over_neither_its_sample_nor_a_read_only_cdf():
    # an identity CDF hands back the sorted sample itself, a cached one a
    # read-only array: the terms go to the estimator's own array
    x = np.random.default_rng(4).random(1000)
    frozen = np.sort(x)
    frozen.setflags(write=False)
    for cdf in (lambda y: y, lambda y: frozen):
        assert psi_grid_free(x, cdf) == psi_grid_free_unblocked(x, cdf)


def test_psi_single_point_is_zero_without_warning():
    # one point leaves no gap between order statistics: the sum is empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psi_grid_free([1.0], uniform_cdf) == 0.0


def test_psi_omitted_tails_are_a_small_bias_shrinking_like_one_over_n():
    # the desk strong-n preset (seed 42, 100 runs, h=0.002): the W1 mass
    # outside the extreme particles, the integrals of F below the least and
    # of 1-F above the greatest, is left out of each estimate.  At N=250 its
    # mean stays under half the row's half-width and 5% of its estimate; the
    # first 20 runs of the N=1000 row omit about a quarter as much
    cdf = partial(BurgersSolution(np.sqrt(0.2)).cdf, 1.0)
    base = SimulationConfig(n_particles=1, step=0.002, horizon=1.0, sigma=np.sqrt(0.2),
                            flux=FluxFunction.burgers(), seed=42)
    spec = StudySpec("strong", base, "n", (250, 1000), 100)

    def estimate_and_tails(y):
        tails = quad(cdf, -np.inf, y.min())[0] + quad(lambda x: 1.0 - cdf(x), y.max(), np.inf)[0]
        return psi_grid_free(y, cdf), tails

    def row(j, runs):
        return np.array([harness._run(spec.configs[j], estimate_and_tails, r)
                         for r in range(runs)]).T

    values, tails = row(0, spec.runs)
    precision = 1.96 * np.sqrt(np.var(values, ddof=1) / spec.runs)
    assert tails.mean() < 0.5 * precision
    assert tails.mean() < 0.05 * values.mean()
    assert 2.0 < tails.mean() / row(1, 20)[1].mean() < 8.0


def test_psi_validation():
    with pytest.raises(ConfigError):
        psi_grid_free([], uniform_cdf)
    # any order is a sample: the estimator sorts it
    assert psi_grid_free([1.0, 0.0], uniform_cdf) == psi_grid_free([0.0, 1.0], uniform_cdf)


@pytest.mark.parametrize("estimate", [lambda y: psi_grid_free(y, uniform_cdf),
                                      lambda y: empirical_cdf_at(y, 0.5)],
                         ids=["grid-free", "empirical-cdf"])
@pytest.mark.parametrize("sample", [[], [[0.0, 1.0], [2.0, 3.0]], [np.nan, 1.0], [1.0, np.inf]],
                         ids=["empty", "2-d", "nan", "inf"])
def test_estimators_reject_what_is_not_a_sample(estimate, sample):
    with pytest.raises(ConfigError):
        estimate(sample)


# -- grid spec and grid estimator ----------------------------------------------

def uniform_grid(k):
    return GridSpec(np.arange(1, k) / k, (2.0 * np.arange(k) + 1.0) / (2.0 * k))


def test_grid_spec_from_quantile():
    grid = GridSpec.from_quantile(lambda u: np.asarray(u), 5)
    np.testing.assert_allclose(grid.quantile_grid, [0.2, 0.4, 0.6, 0.8])
    np.testing.assert_allclose(grid.midpoint_quantiles, [0.1, 0.3, 0.5, 0.7, 0.9])


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(np.array([0.5, 0.4]), np.array([0.1, 0.5, 0.9]))
    with pytest.raises(ConfigError):
        GridSpec(np.array([0.4]), np.array([0.1, 0.5, 0.9]))
    with pytest.raises(ConfigError, match=r"^K must be an integer in \[2, 2\*\*64\), got 1$"):
        GridSpec(np.array([]), np.array([0.5]))


def test_phi_zero_when_values_hit_targets():
    k = 64
    targets = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    assert phi_grid(targets, uniform_grid(k)) == 0.0


def test_phi_hand_value_k3():
    u = np.array([1.0 / 6.0, 0.5 + 0.1, 5.0 / 6.0])
    assert phi_grid(u, uniform_grid(3)) == pytest.approx(1.0 / 30.0, abs=1e-15)


def test_phi_boundary_perturbation_is_doubled():
    eps = 0.013
    for k in (2, 10):  # at K=2 both cells are boundary cells: no interior sum
        grid = uniform_grid(k)
        targets = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
        bumped = targets.copy()
        bumped[0] += eps
        expected = 2.0 * eps * (grid.quantile_grid[0] - grid.midpoint_quantiles[0])
        assert phi_grid(bumped, grid) == pytest.approx(expected, abs=1e-15)


def test_phi_validation():
    grid = uniform_grid(4)
    with pytest.raises(ConfigError):
        phi_grid(np.array([0.1, 0.2, 0.3]), grid)
    with pytest.raises(ConfigError):
        phi_grid(np.array([0.1, 0.2, 0.3, 1.5]), grid)


@pytest.mark.parametrize("k", [50, 500, 5000])
def test_phi_approaches_quadrature_oracle(k):
    # smooth profile u(v) = v + 0.05 sin(2 pi v) on the uniform grid
    mids = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    values = mids + 0.05 * np.sin(2.0 * np.pi * mids)
    oracle, err = quad(lambda v: abs(0.05 * np.sin(2.0 * np.pi * v)), 0.0, 1.0,
                       points=[0.5], limit=200)
    assert err < 1e-10
    assert abs(phi_grid(values, uniform_grid(k)) - oracle) <= 0.5 / k
