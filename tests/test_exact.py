import numpy as np
import pytest

from oracles import burgers_cdf_unblocked, pde_residual
from rankflow import BracketError, BurgersSolution, ConfigError, DomainError
from rankflow.exact import _BLOCK

SOL = BurgersSolution(np.sqrt(0.2))


def test_cdf_half_at_symmetry_point():
    for t in (0.1, 1.0, 5.0):
        for sigma2 in (0.002, 0.2, 20.0):
            sol = BurgersSolution(np.sqrt(sigma2))
            assert sol.cdf(t, t / 2.0) == pytest.approx(0.5, abs=1e-12)


def test_cdf_tails():
    assert SOL.cdf(1.0, -10.0) < 1e-10
    assert SOL.cdf(1.0, 10.0) > 1.0 - 1e-10


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("sigma2", [0.002, 0.2, 20.0])
def test_cdf_monotone_and_bounded(t, sigma2):
    sol = BurgersSolution(np.sqrt(sigma2))
    spread = 50.0 * np.sqrt(sigma2 * t)
    xs = np.linspace(t / 2.0 - spread, t / 2.0 + spread, 10**4)
    cdf = sol.cdf(t, xs)
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert cdf[0] < 1e-10 and cdf[-1] > 1.0 - 1e-10


@pytest.mark.parametrize("n", [2, 2**16, 2**16 + 1, 3 * 2**16 + 5])
@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_blocked_cdf_is_the_whole_array_formula_bitwise(n, order):
    # sizes at and across the edges of the evaluation blocks
    assert 2**16 % _BLOCK == 0
    x = np.random.default_rng(n).normal(0.5, 1.0, n)
    if order == "sorted":
        x.sort()
    for t in (0.1, 1.0):
        assert SOL.cdf(t, x).tobytes() == burgers_cdf_unblocked(SOL, t, x).tobytes()


def test_cdf_stable_for_extreme_arguments():
    sol = BurgersSolution(np.sqrt(1e-3))
    for t in (0.1, 1.0, 5.0):
        values = sol.cdf(t, np.array([-1e4, -10.0, 0.0, 10.0, 1e4]))
        assert np.all(np.isfinite(values))
        assert np.all((values >= 0.0) & (values <= 1.0))


def test_cdf_requires_positive_time():
    with pytest.raises(DomainError):
        SOL.cdf(0.0, 0.5)
    with pytest.raises(DomainError):
        SOL.cdf(-1.0, 0.5)


def test_quantile_median():
    for t in (0.1, 1.0, 5.0):
        assert SOL.quantile(t, 0.5) == pytest.approx(t / 2.0, abs=1e-10)


def test_quantile_round_trip():
    for u in (0.01, 0.3, 0.9):
        assert SOL.cdf(1.0, SOL.quantile(1.0, u)) == pytest.approx(u, abs=1e-10)


def test_quantile_monotone():
    assert SOL.quantile(1.0, 0.2) < SOL.quantile(1.0, 0.8)
    levels = np.linspace(0.01, 0.99, 99)
    assert np.all(np.diff(SOL.quantile(1.0, levels)) > 0.0)


@pytest.mark.parametrize("sigma2", [1e-6, 1e-9])
def test_quantile_brackets_level_at_small_viscosity(sigma2):
    # the CDF is too steep for |cdf(x) - u| to reach a fixed tolerance; the
    # quantile is pinned by its bracket: cdf(x - delta) <= u <= cdf(x + delta)
    sol = BurgersSolution(np.sqrt(sigma2))
    levels = np.arange(1, 5000) / 5000
    x = sol.quantile(1.0, levels)
    delta = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x))
    assert np.all(sol.cdf(1.0, x - delta) <= levels)
    assert np.all(levels <= sol.cdf(1.0, x + delta))
    assert np.all(np.diff(x) > 0.0)


def test_quantile_bracket_failure(monkeypatch):
    # a constant CDF can never straddle the target level
    monkeypatch.setattr(BurgersSolution, "cdf", lambda self, t, x: np.zeros_like(
        np.asarray(x, dtype=float)))
    with pytest.raises(BracketError):
        SOL.quantile(1.0, 0.5)


def test_quantile_domain_errors():
    with pytest.raises(DomainError):
        SOL.quantile(1.0, 0.0)
    with pytest.raises(DomainError):
        SOL.quantile(1.0, 1.0)
    with pytest.raises(DomainError):
        SOL.quantile(0.0, 0.5)


def test_pde_residual_small():
    assert abs(pde_residual(SOL, 1.0, 0.5, 1e-3)) <= 1e-4
    assert abs(pde_residual(SOL, 1.0, 1.0 / 2.0, 1e-3)) <= 1e-4


def test_pde_residual_probe_grid():
    sigma = np.sqrt(0.2)
    for t in np.linspace(0.5, 1.0, 21):
        spread = 3.0 * sigma * np.sqrt(t)
        for x in np.linspace(t / 2.0 - spread, t / 2.0 + spread, 21):
            assert abs(pde_residual(SOL, t, x, 1e-3)) <= 1e-4


def test_pde_residual_second_order_in_delta():
    # doubling the stencil multiplies the truncation error by about 4
    r1 = pde_residual(SOL, 1.0, 0.3, 1e-3)
    r2 = pde_residual(SOL, 1.0, 0.3, 2e-3)
    assert 2.0 <= abs(r2 / r1) <= 8.0


def test_pde_residual_validation():
    with pytest.raises(DomainError):
        pde_residual(SOL, 1e-4, 0.5, 1e-3)  # t too small for the stencil
    with pytest.raises(ConfigError):
        pde_residual(SOL, 1.0, 0.5, -1e-3)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        BurgersSolution(0.0)
    with pytest.raises(ConfigError):
        BurgersSolution(-1.0)
