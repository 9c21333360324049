import dataclasses

import numpy as np
import pytest

from oracles import flux_value, lipschitz_speed, max_speed, rank_coefficients
from rankflow import ConfigError, DomainError, FluxFunction, parse_flux
from rankflow.engine import _drift_table

CUBIC = FluxFunction.polynomial((0.2, -0.4, 0.1, 1.0 / 3.0))  # derivative u^2 + 0.2u - 0.4


def test_burgers_values():
    f = FluxFunction.burgers()
    assert flux_value(f, 0.0) == -0.5
    assert flux_value(f, 1.0) == 0.0
    assert f.derivative(0.0) == 1.0
    assert f.derivative(1.0) == 0.0


def test_quadratic_values():
    f = FluxFunction.quadratic()
    assert flux_value(f, 0.5) == 0.125
    assert f.derivative(0.3) == pytest.approx(0.3, abs=1e-15)


def test_domain_errors():
    f = FluxFunction.burgers()
    for bad in (-0.1, 1.1, np.array([0.2, 1.5])):
        with pytest.raises(DomainError):
            flux_value(f, bad)
        with pytest.raises(DomainError):
            f.derivative(bad)


def test_derivative_is_exact_derivative():
    # central difference at delta = 1e-6 within 1e-6, interior probes
    delta = 1e-6
    for f in (FluxFunction.burgers(), FluxFunction.quadratic(), CUBIC):
        for u in np.linspace(0.05, 0.95, 19):
            fd = (flux_value(f, u + delta) - flux_value(f, u - delta)) / (2 * delta)
            assert abs(fd - f.derivative(u)) <= 1e-6


def test_rank_coefficients_burgers_closed_form():
    f = FluxFunction.burgers()
    assert rank_coefficients(f, 100)[0] == pytest.approx(0.995, abs=1e-15)
    np.testing.assert_allclose(rank_coefficients(f, 2), [0.75, 0.25], atol=1e-15)


def test_rank_coefficients_single_particle_telescopes():
    for f in (FluxFunction.burgers(), FluxFunction.quadratic(), CUBIC):
        expected = flux_value(f, 1.0) - flux_value(f, 0.0)
        assert rank_coefficients(f, 1)[0] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
def test_rank_coefficients_mean_telescopes(n):
    for f in (FluxFunction.burgers(), FluxFunction.quadratic(), CUBIC):
        mean = float(np.mean(rank_coefficients(f, n)))
        assert abs(mean - (flux_value(f, 1.0) - flux_value(f, 0.0))) <= 1e-12


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_rank_coefficients_close_to_midpoint_speed(n):
    # cell average vs midpoint value: within the Lipschitz half-cell bound
    for f in (FluxFunction.quadratic(), CUBIC):
        mids = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        gap = np.max(np.abs(rank_coefficients(f, n) - f.derivative(mids)))
        assert gap <= lipschitz_speed(f) / (2.0 * n) * 1.01


def test_rank_coefficients_bounded_by_max_speed():
    for f in (FluxFunction.burgers(), FluxFunction.quadratic()):
        for n in (1, 3, 17, 256):
            assert np.max(np.abs(rank_coefficients(f, n))) <= max_speed(f) + 1e-15


def test_drift_table_cached_and_read_only():
    # the closed-form Burgers table and the differenced polynomial one
    for f in (FluxFunction.burgers(), CUBIC):
        # one table per (flux, n, scheme): the same object on every call
        rank = _drift_table(f, 64, "rank")
        frac = _drift_table(f, 64, "frac")
        assert _drift_table(FluxFunction(f.coefficients), 64, "rank") is rank
        assert _drift_table(f, 64, "frac") is frac
        assert frac is not rank
        assert _drift_table(f, 32, "rank") is not rank
        # rank q takes the one-based cell average of cell q; frac the speed at q/n
        np.testing.assert_array_equal(rank[1:], rank_coefficients(f, 64)[:-1])
        np.testing.assert_array_equal(frac, f.derivative(np.arange(64) / 64))
        for table in (rank, frac):
            with pytest.raises(ValueError):
                table[0] = 0.0


def test_polynomial_lipschitz_speed():
    # derivative of CUBIC's speed is 2u + 0.2, sup on [0,1] at u=1
    assert lipschitz_speed(CUBIC) == pytest.approx(2.2, abs=1e-12)
    assert lipschitz_speed(FluxFunction.burgers()) == 1.0
    assert lipschitz_speed(FluxFunction.quadratic()) == 1.0
    assert lipschitz_speed(FluxFunction.polynomial((0.3, -2.0))) == 0.0


def test_flux_is_its_coefficients():
    # is_burgers is derived; the coefficients are the only field
    assert [f.name for f in dataclasses.fields(FluxFunction)] == ["coefficients"]
    assert FluxFunction.burgers().is_burgers
    for f in (FluxFunction.quadratic(), CUBIC, FluxFunction.polynomial((-0.5, 1.0, -0.5, 0.1))):
        assert not f.is_burgers
    # trailing zero coefficients are dropped, keeping one: each polynomial is one flux
    assert FluxFunction.polynomial((1.0, 0.0, -0.0)) == FluxFunction.polynomial((1.0,))
    assert FluxFunction.polynomial((-0.5, 1.0, -0.5, 0.0)) == FluxFunction.burgers()
    assert parse_flux("poly:0,0").coefficients == (0.0,)


def test_parse_flux():
    assert parse_flux("burgers").is_burgers
    assert parse_flux("quadratic") == FluxFunction.polynomial((0.0, 0.0, 0.5))
    p = parse_flux("poly:0.0,0.0,0.5")
    assert flux_value(p, 0.5) == 0.125
    for bad in ("bogus", "poly:a,b", "poly:"):
        with pytest.raises(ConfigError):
            parse_flux(bad)


def test_invalid_construction():
    assert FluxFunction.polynomial((-0.5, 1.0, -0.5)) == FluxFunction.burgers()
    assert FluxFunction.polynomial((-0.5, 1.0, -0.5)).is_burgers
    with pytest.raises(ConfigError):
        FluxFunction.polynomial(())
    with pytest.raises(ConfigError):
        FluxFunction.polynomial((np.inf,))
