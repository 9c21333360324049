import dataclasses

import numpy as np
import pytest

from rankflow import ConfigError, DomainError, FluxFunction, parse_flux

CUBIC = FluxFunction.polynomial((0.2, -0.4, 0.1, 1.0 / 3.0))  # derivative u^2 + 0.2u - 0.4


def test_burgers_values():
    f = FluxFunction.burgers()
    assert f.value(0.0) == -0.5
    assert f.value(1.0) == 0.0
    assert f.derivative(0.0) == 1.0
    assert f.derivative(1.0) == 0.0


def test_quadratic_values():
    f = FluxFunction.quadratic()
    assert f.value(0.5) == 0.125
    assert f.derivative(0.3) == pytest.approx(0.3, abs=1e-15)


def test_domain_errors():
    f = FluxFunction.burgers()
    for bad in (-0.1, 1.1, np.array([0.2, 1.5])):
        with pytest.raises(DomainError):
            f.value(bad)
        with pytest.raises(DomainError):
            f.derivative(bad)


def test_derivative_is_exact_derivative():
    # central difference at delta = 1e-6 within 1e-6, interior probes
    delta = 1e-6
    for f in (FluxFunction.burgers(), FluxFunction.quadratic(), CUBIC):
        for u in np.linspace(0.05, 0.95, 19):
            fd = (f.value(u + delta) - f.value(u - delta)) / (2 * delta)
            assert abs(fd - f.derivative(u)) <= 1e-6


def test_rank_coefficients_burgers_closed_form():
    f = FluxFunction.burgers()
    assert f.rank_coefficients(100)[0] == pytest.approx(0.995, abs=1e-15)
    np.testing.assert_allclose(f.rank_coefficients(2), [0.75, 0.25], atol=1e-15)


def test_rank_coefficients_single_particle_telescopes():
    for f in (FluxFunction.burgers(), FluxFunction.quadratic(), CUBIC):
        expected = f.value(1.0) - f.value(0.0)
        assert f.rank_coefficients(1)[0] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
def test_rank_coefficients_mean_telescopes(n):
    for f in (FluxFunction.burgers(), FluxFunction.quadratic(), CUBIC):
        mean = float(np.mean(f.rank_coefficients(n)))
        assert abs(mean - (f.value(1.0) - f.value(0.0))) <= 1e-12


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_rank_coefficients_close_to_midpoint_speed(n):
    # cell average vs midpoint value: within the Lipschitz half-cell bound
    for f in (FluxFunction.quadratic(), CUBIC):
        mids = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        gap = np.max(np.abs(f.rank_coefficients(n) - f.derivative(mids)))
        assert gap <= f.lipschitz_speed / (2.0 * n) * 1.01


def test_rank_coefficients_bounded_by_max_speed():
    for f in (FluxFunction.burgers(), FluxFunction.quadratic()):
        for n in (1, 3, 17, 256):
            assert np.max(np.abs(f.rank_coefficients(n))) <= f.max_speed() + 1e-15


def test_rank_coefficients_cached_and_read_only():
    f = FluxFunction.burgers()
    a = f.rank_coefficients(64)
    assert f.rank_coefficients(64) is a
    with pytest.raises(ValueError):
        a[0] = 0.0


def test_polynomial_lipschitz_speed():
    # derivative of CUBIC's speed is 2u + 0.2, sup on [0,1] at u=1
    assert CUBIC.lipschitz_speed == pytest.approx(2.2, abs=1e-12)
    assert FluxFunction.burgers().lipschitz_speed == 1.0
    assert FluxFunction.quadratic().lipschitz_speed == 1.0
    assert FluxFunction.polynomial((0.3, -2.0)).lipschitz_speed == 0.0


def test_flux_is_its_coefficients():
    # kind and lipschitz_speed are derived; the coefficients are the only field
    assert [f.name for f in dataclasses.fields(FluxFunction)] == ["coefficients"]
    assert FluxFunction.burgers().kind == "burgers"
    for f in (FluxFunction.quadratic(), CUBIC, FluxFunction.polynomial((-0.5, 1.0, -0.5, 0.1))):
        assert f.kind == "polynomial"


def test_parse_flux():
    assert parse_flux("burgers").kind == "burgers"
    assert parse_flux("quadratic") == FluxFunction.polynomial((0.0, 0.0, 0.5))
    p = parse_flux("poly:0.0,0.0,0.5")
    assert p.value(0.5) == 0.125
    for bad in ("bogus", "poly:a,b", "poly:"):
        with pytest.raises(ConfigError):
            parse_flux(bad)


def test_invalid_construction():
    assert FluxFunction.polynomial((-0.5, 1.0, -0.5)) == FluxFunction.burgers()
    assert FluxFunction.polynomial((-0.5, 1.0, -0.5)).kind == "burgers"
    with pytest.raises(ConfigError):
        FluxFunction.polynomial(())
    with pytest.raises(ConfigError):
        FluxFunction.polynomial((np.inf,))
