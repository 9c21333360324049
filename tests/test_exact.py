import re
import warnings

import numpy as np
import pytest

from oracles import burgers_cdf_unblocked, pde_residual
from rankflow import BurgersSolution, ConfigError, NumericalError

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
def test_cdf_is_the_plain_formula_bitwise(n, order):
    x = np.random.default_rng(n).normal(0.5, 1.0, n)
    if order == "sorted":
        x.sort()
    for t in (0.1, 1.0):
        assert SOL.cdf(t, x).tobytes() == burgers_cdf_unblocked(SOL, t, x).tobytes()


@pytest.mark.parametrize("method, values", [
    ("cdf", np.array([-3.0, 0.1, 0.5, 0.7, 2.0, 40.0])),
    ("quantile", np.array([1e-9, 0.1, 0.25, 0.5, 0.9, 1.0 - 1e-9])),
])
def test_cdf_and_quantile_keep_the_shape_of_their_argument(method, values):
    # a scalar gives a scalar with the bits of the one-element array's value,
    # and a 2-D array keeps its shape with the bits of the flat call (the
    # bisection stops when every value's bracket is narrow, so a value's
    # bits may depend on the others in its call)
    f = getattr(SOL, method)
    for i, value in enumerate(values):
        scalar = f(1.0, value)
        assert np.ndim(scalar) == 0 and isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == f(1.0, values[i:i + 1]).tobytes()
    square = f(1.0, values.reshape(2, 3))
    assert square.shape == (2, 3)
    assert square.tobytes() == f(1.0, values).tobytes()


def test_cdf_limits_at_the_float_range_without_warning():
    # 2x and x/scale overflow to +-inf, where the limits 0 and 1 are right
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SOL.cdf(1.0, np.array([-9e307, 9e307])).tolist() == [0.0, 1.0]


def test_cdf_stable_for_extreme_arguments():
    sol = BurgersSolution(np.sqrt(1e-3))
    for t in (0.1, 1.0, 5.0):
        values = sol.cdf(t, np.array([-1e4, -10.0, 0.0, 10.0, 1e4]))
        assert np.all(np.isfinite(values))
        assert np.all((values >= 0.0) & (values <= 1.0))


def real_error(name, value, interval="(0, inf)"):
    """The ConfigError of a real ``name`` given as ``value``, outside ``interval``."""
    message = f"{name} must be a real number in {interval}, got {value}"
    return pytest.raises(ConfigError, match=f"^{re.escape(message)}$")


def test_cdf_requires_positive_time():
    for t in (0.0, -1.0, np.inf, np.nan, 10**400, "1.0", None):
        with real_error("t", t):
            SOL.cdf(t, 0.5)


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
    with pytest.raises(NumericalError, match=r"could not bracket the quantile at t = 1, "
                       r"sigma\^2 = 0\.2 after 200 expansions"):
        SOL.quantile(1.0, 0.5)


def test_quantile_domain_errors():
    with pytest.raises(ConfigError, match=r"quantile argument must lie strictly inside \(0, 1\)"):
        SOL.quantile(1.0, 0.0)
    with pytest.raises(ConfigError, match=r"quantile argument must lie strictly inside \(0, 1\)"):
        SOL.quantile(1.0, 1.0)
    for t in (0.0, 10**400):
        with real_error("t", t):
            SOL.quantile(t, 0.5)


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
    with pytest.raises(ConfigError, match=r"need t > 2\*delta to center the time stencil"):
        pde_residual(SOL, 1e-4, 0.5, 1e-3)  # t too small for the stencil
    with pytest.raises(ConfigError):
        pde_residual(SOL, 1.0, 0.5, -1e-3)


def test_constructor_validation():
    for sigma in (0.0, -1.0, np.inf, 10**400, "0.4"):
        with real_error("sigma", sigma):
            BurgersSolution(sigma)
    # sigma^2 must be a positive finite float too: it overflows to inf at
    # 1.4e154 (where float ** raises) and underflows to 0 at 1e-170
    for sigma in (1.4e154, 1e-170):
        message = f"sigma^2 must be a positive finite float, got sigma = {sigma}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            BurgersSolution(sigma)
    # a float32 sigma is stored as the float it equals, and gives that float's bits
    narrow, wide = BurgersSolution(np.float32(0.4)), BurgersSolution(float(np.float32(0.4)))
    assert (type(narrow.sigma), narrow) == (float, wide)
    xs = np.linspace(-1.0, 2.0, 301)
    np.testing.assert_array_equal(narrow.cdf(1.0, xs), wide.cdf(1.0, xs))
