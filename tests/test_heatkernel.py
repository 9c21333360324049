import numpy as np
import pytest
from scipy.integrate import quad

from heatkernel import HeatKernel
from rankflow import ConfigError, DomainError

PROBES_T = (0.1, 1.0, 4.0)
PROBES_SIGMA = (0.5, 1.0, 2.0)


def cutoff(kern, t):
    # truncating at 12 standard deviations leaves a tail below 1e-30
    return 12.0 * kern.sigma * np.sqrt(t)


def test_density_value_at_origin():
    kern = HeatKernel(1.0)
    assert kern.g(1.0, 0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-12)


def test_density_even():
    kern = HeatKernel(0.7)
    xs = np.linspace(0.0, 5.0, 50)
    np.testing.assert_array_equal(kern.g(2.0, xs), kern.g(2.0, -xs))


def test_density_integrates_to_one():
    for sigma in PROBES_SIGMA:
        kern = HeatKernel(sigma)
        for t in PROBES_T:
            mass, _ = quad(lambda x: kern.g(t, x), -cutoff(kern, t), cutoff(kern, t),
                           limit=200)
            assert mass == pytest.approx(1.0, abs=1e-10)


def test_derivative_at_origin_and_sign():
    kern = HeatKernel(1.3)
    assert kern.dg_dx(1.0, 0.0) == 0.0
    assert kern.dg_dx(1.0, 1.0) < 0.0
    assert kern.dg_dx(1.0, -1.0) > 0.0


def test_derivative_square_identity_pointwise():
    # (dG_t/dx)^2 = x^2 / (2 sigma^5 t^(5/2) sqrt(pi)) * G_{t/2}
    for sigma in PROBES_SIGMA:
        kern = HeatKernel(sigma)
        for t in PROBES_T:
            xs = np.linspace(-3.0 * sigma * np.sqrt(t), 3.0 * sigma * np.sqrt(t), 41)
            xs = xs[np.abs(xs) > 1e-6]
            lhs = kern.dg_dx(t, xs) ** 2
            rhs = xs**2 / (2.0 * sigma**5 * t**2.5 * np.sqrt(np.pi)) * kern.g(t / 2.0, xs)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("sigma", PROBES_SIGMA)
@pytest.mark.parametrize("t", PROBES_T)
def test_l1_norm_of_derivative(sigma, t):
    kern = HeatKernel(sigma)
    value, _ = quad(lambda x: abs(kern.dg_dx(t, x)), -cutoff(kern, t), cutoff(kern, t),
                    points=[0.0], limit=200)
    assert value == pytest.approx(np.sqrt(2.0 / (np.pi * sigma**2 * t)), rel=1e-6)


@pytest.mark.parametrize("sigma", PROBES_SIGMA)
@pytest.mark.parametrize("t", PROBES_T)
def test_l2_norm_of_density(sigma, t):
    kern = HeatKernel(sigma)
    value, _ = quad(lambda x: kern.g(t, x) ** 2, -cutoff(kern, t), cutoff(kern, t),
                    limit=200)
    assert value == pytest.approx(1.0 / (2.0 * sigma * np.sqrt(np.pi * t)), rel=1e-6)


@pytest.mark.parametrize("sigma", PROBES_SIGMA)
@pytest.mark.parametrize("t", PROBES_T)
def test_l2_norm_of_derivative(sigma, t):
    kern = HeatKernel(sigma)
    value, _ = quad(lambda x: kern.dg_dx(t, x) ** 2, -cutoff(kern, t), cutoff(kern, t),
                    limit=200)
    assert value == pytest.approx(1.0 / (4.0 * sigma**3 * t**1.5 * np.sqrt(np.pi)),
                                  rel=1e-6)


def test_heat_equation_residual():
    delta = 1e-4
    for sigma in PROBES_SIGMA:
        kern = HeatKernel(sigma)
        for t in (0.5, 1.0, 4.0):
            for x in np.linspace(-2.0, 2.0, 9):
                dt = (kern.g(t + delta, x) - kern.g(t - delta, x)) / (2.0 * delta)
                dxx = (kern.g(t, x + delta) - 2.0 * kern.g(t, x)
                       + kern.g(t, x - delta)) / delta**2
                assert abs(dt - 0.5 * sigma**2 * dxx) <= 1e-5


@pytest.mark.parametrize("sigma", PROBES_SIGMA)
@pytest.mark.parametrize("t", PROBES_T)
def test_time_integrated_square_norm(sigma, t):
    # double quadrature of G^2_{t-s}(y - x) over s then x, constant path y
    kern = HeatKernel(sigma)
    y = 0.37

    def inner(x):
        value, _ = quad(lambda s: kern.g(t - s, y - x) ** 2, 0.0, t, limit=200)
        return value

    span = cutoff(kern, t)
    total, _ = quad(inner, y - span, y + span, points=[y], limit=200)
    assert total == pytest.approx(np.sqrt(t / np.pi) / sigma, rel=1e-6)


def test_validation():
    with pytest.raises(ConfigError):
        HeatKernel(0.0)
    kern = HeatKernel(1.0)
    with pytest.raises(DomainError):
        kern.g(0.0, 1.0)
    with pytest.raises(DomainError):
        kern.dg_dx(-1.0, 1.0)
