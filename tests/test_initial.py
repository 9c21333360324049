import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import QuantileTable, cdf, init_w1_to_m, support, w_rho_empirical
from rankflow import (ConfigError, DiracAtZero, Gaussian, Uniform, iid_positions,
                      optimal_positions, parse_distribution)
from rankflow.stream import derive_seed, make_generator

ALL_LAWS = [
    DiracAtZero(),
    Uniform(0.0, 1.0),
    Uniform(-1.0, 3.0),
    Gaussian(0.5, 2.0),
    QuantileTable((-1.0, 2.0), (0.5, 0.5)),
]


def test_optimal_positions_uniform_two():
    np.testing.assert_allclose(optimal_positions(Uniform(0.0, 1.0), 2), [0.25, 0.75],
                               atol=1e-15)


def test_optimal_positions_dirac():
    assert np.all(optimal_positions(DiracAtZero(), 7) == 0.0)


def test_optimal_positions_single_is_median():
    assert optimal_positions(Uniform(2.0, 6.0), 1)[0] == pytest.approx(4.0, abs=1e-12)
    assert optimal_positions(Gaussian(1.5, 3.0), 1)[0] == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
def test_optimal_positions_monotone(law):
    pos = optimal_positions(law, 17)
    assert np.all(np.diff(pos) >= 0.0)


def test_iid_dirac_all_zero():
    rng = make_generator(5)
    assert np.all(iid_positions(DiracAtZero(), 3, rng) == 0.0)


def test_iid_uniform_mean():
    # 3 sigma / sqrt(n) with sigma^2 = 1/12
    rng = make_generator(11)
    pos = iid_positions(Uniform(0.0, 1.0), 10**5, rng)
    assert abs(pos.mean() - 0.5) <= 0.005


def test_iid_deterministic_given_seed():
    a = iid_positions(Uniform(0.0, 1.0), 5, make_generator(77))
    b = iid_positions(Uniform(0.0, 1.0), 5, make_generator(77))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("law", [Uniform(-1.0, 3.0), Gaussian(0.5, 2.0)],
                         ids=["uniform", "gaussian"])
def test_iid_start_holds_the_uniforms_and_one_more_array(law):
    # the quantile is formed in place in one array beside the uniforms; at
    # this size numpy does not reuse an expression's temporaries for it
    n = 20_000
    tracemalloc.start()
    try:
        iid_positions(law, n, make_generator(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 8 + 4096


def test_iid_quantile_table_hits_atoms():
    law = QuantileTable((-1.0, 2.0), (0.5, 0.5))
    pos = iid_positions(law, 1000, make_generator(3))
    assert set(np.unique(pos)) == {-1.0, 2.0}
    assert abs(np.mean(pos == -1.0) - 0.5) < 0.06


def test_quantile_domain_errors():
    for law in ALL_LAWS:
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ConfigError,
                               match=r"quantile argument must lie strictly inside \(0, 1\)"):
                law.quantile(bad)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
def test_cdf_shape(law):
    # nondecreasing with limits 0 and 1 on a wide probe grid
    xs = np.linspace(-60.0, 60.0, 2001)
    values = cdf(law, xs)
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
def test_quantile_cdf_consistency(law):
    for u in np.linspace(0.01, 0.99, 25):
        assert cdf(law, law.quantile(u)) >= u - 1e-12
    for x in np.linspace(-5.0, 5.0, 41):
        fx = cdf(law, x)
        if 0.0 < fx < 1.0:
            assert law.quantile(fx) <= x + 1e-9


def test_quantile_table_values():
    law = QuantileTable((-1.0, 2.0), (0.5, 0.5))
    assert law.quantile(0.5) == -1.0
    assert law.quantile(0.5 + 1e-12) == 2.0
    assert cdf(law, -1.0) == 0.5
    assert cdf(law, 0.0) == 0.5
    assert cdf(law, 2.0) == 1.0
    assert cdf(law, -1.5) == 0.0


def test_gaussian_quantile_accuracy():
    law = Gaussian(0.0, 1.0)
    assert law.quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    for u in (0.01, 0.3, 0.9, 0.999):
        assert cdf(law, law.quantile(u)) == pytest.approx(u, abs=1e-9)


def test_init_w1_dirac_zero():
    assert init_w1_to_m(np.zeros(4), DiracAtZero()) == pytest.approx(0.0, abs=1e-15)


def test_init_w1_uniform_optimal_two():
    # |empirical - uniform CDF| forms four triangles of area 1/32
    law = Uniform(0.0, 1.0)
    pos = optimal_positions(law, 2)
    assert init_w1_to_m(pos, law) == pytest.approx(0.125, abs=1e-10)


@pytest.mark.parametrize("law", [Uniform(0.0, 1.0), Uniform(-1.0, 3.0),
                                 QuantileTable((-1.0, 0.5, 2.0), (0.25, 0.5, 0.25))],
                         ids=["unif01", "unif-13", "table"])
@pytest.mark.parametrize("n", [1, 2, 10, 100])
def test_init_w1_compact_support_bound(law, n):
    lo, hi = support(law)
    value = init_w1_to_m(optimal_positions(law, n), law)
    assert value <= (hi - lo) / (2.0 * n) + 1e-12


def test_init_w1_rejects_unsorted():
    with pytest.raises(ConfigError):
        init_w1_to_m(np.array([1.0, 0.0]), Uniform(0.0, 1.0))


def quadrature_w1(positions, law):
    """Reference W1: adaptive quadrature of |x_i - quantile| on each cell."""
    n = positions.size
    total = 0.0
    for i, x in enumerate(positions):
        lo, hi = i / n, (i + 1) / n
        crossing = float(cdf(law, x))
        total += quad(lambda u: abs(x - law.quantile(u)), lo, hi,
                      points=[crossing] if lo < crossing < hi else None,
                      epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    return total


def placements(law, n):
    """Optimal, shifted optimal and sorted i.i.d. positions."""
    optimal = optimal_positions(law, n)
    return (optimal, optimal + 0.3, np.sort(iid_positions(law, n, make_generator(n))))


@pytest.mark.parametrize("law", [Uniform(0.0, 1.0), Uniform(-1.0, 3.0), Gaussian(0.5, 2.0)],
                         ids=["unif01", "unif-13", "gauss"])
@pytest.mark.parametrize("n", [1, 10, 100])
def test_init_w1_matches_quadrature(law, n):
    for pos in placements(law, n):
        assert init_w1_to_m(pos, law) == pytest.approx(quadrature_w1(pos, law), rel=1e-9)


@pytest.mark.parametrize("n", [1, 10, 100])
def test_init_w1_equal_weight_table_matches_empirical_w1(n):
    rng = make_generator(derive_seed(7, n))
    atoms = np.sort(rng.normal(size=n))
    law = QuantileTable(tuple(atoms), (1.0 / n,) * n)
    for pos in placements(Gaussian(0.2, 1.5), n):
        assert init_w1_to_m(pos, law) == pytest.approx(w_rho_empirical(pos, atoms), rel=1e-9)


def test_iid_empirical_cdf_unbiased():
    # mean empirical CDF at fixed x over many seeds matches the CDF within
    # 3 binomial standard errors (n = 5 samples per seed)
    law = Uniform(0.0, 1.0)
    n, seeds = 5, 10**5
    x = 0.3
    hits = 0
    for s in range(seeds):
        pos = iid_positions(law, n, make_generator(derive_seed(1234, s)))
        hits += int(np.count_nonzero(pos <= x))
    mc_mean = hits / (n * seeds)
    f = cdf(law, x)
    assert abs(mc_mean - f) <= 3.0 * np.sqrt(f * (1.0 - f) / (n * seeds))


def test_quantile_table_validation():
    with pytest.raises(ConfigError):
        QuantileTable((2.0, -1.0), (0.5, 0.5))
    with pytest.raises(ConfigError):
        QuantileTable((0.0, 1.0), (0.7, 0.7))
    with pytest.raises(ConfigError):
        QuantileTable((), ())


@pytest.mark.parametrize("make, reason", [
    (lambda: Uniform(0.0, np.inf), "upper must be a real number in (0, inf), got inf"),
    (lambda: Uniform(-np.inf, 0.0), "lower must be a real number in (-inf, inf), got -inf"),
    (lambda: Uniform(np.nan, 1.0), "lower must be a real number in (-inf, inf), got nan"),
    (lambda: Gaussian(np.nan, 1.0), "mean must be a real number in (-inf, inf), got nan"),
    (lambda: Gaussian(0.0, np.inf), "stddev must be a real number in (0, inf), got inf"),
    (lambda: QuantileTable((0.0, np.inf), (0.5, 0.5)), "atoms and probabilities must be finite"),
    (lambda: QuantileTable((np.nan, 1.0), (0.5, 0.5)), "atoms and probabilities must be finite"),
    (lambda: QuantileTable((0.0, 1.0), (np.nan, np.nan)),
     "atoms and probabilities must be finite"),
    # an int beyond the float range, a string, and a bound not above the other
    (lambda: Uniform(0, 10**400), f"upper must be a real number in (0, inf), got {10**400}"),
    (lambda: Gaussian(0, 10**400), f"stddev must be a real number in (0, inf), got {10**400}"),
    (lambda: Gaussian("0", 1.0), "mean must be a real number in (-inf, inf), got 0"),
    (lambda: Uniform(3, 3.0), "upper must be a real number in (3, inf), got 3.0"),
], ids=["uniform-upper-inf", "uniform-lower-inf", "uniform-nan", "gauss-mean-nan",
        "gauss-stddev-inf", "table-atom-inf", "table-atom-nan", "table-probabilities-nan",
        "uniform-upper-huge-int", "gauss-stddev-huge-int", "gauss-mean-str", "uniform-empty"])
def test_law_parameters_must_be_finite(make, reason):
    with pytest.raises(ConfigError, match=f"^{re.escape(reason)}$"):
        make()


def test_parse_distribution():
    assert isinstance(parse_distribution("dirac0"), DiracAtZero)
    u = parse_distribution("uniform:-1,3")
    assert (u.lower, u.upper) == (-1.0, 3.0)
    g = parse_distribution("gauss:0.5,2")
    assert (g.mean, g.stddev) == (0.5, 2.0)
    for bad in ("bogus", "uniform:3,-1", "gauss:0", "uniform:a,b"):
        with pytest.raises(ConfigError):
            parse_distribution(bad)
