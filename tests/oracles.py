"""Test oracles: quantities that check rankflow's tables but do not produce them.

The package holds what the CLI and the studies run.  What only checks that
code lives here: the exact W1 of a placement to its initial law (with each
law's CDF, integrated quantile and support), W_rho and the CDF form of W1
between two samples, weak-inequality rank counts, the PDE residual of the
exact Burgers solution, the one-based rank coefficients and the speed
bounds of a flux, the Gaussian heat kernel with its analytic identities,
the uniform lattice built from ``Generator.random``, and the exact CDF
and the grid-free estimate computed over whole arrays, which the
package's block-by-block versions must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, singledispatch

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import erfc, expit, log_ndtr, ndtri

from rankflow.errors import ConfigError, DomainError
from rankflow.exact import BurgersSolution
from rankflow.flux import FluxFunction
from rankflow.initial import DiracAtZero, Gaussian, InitialDistribution, Uniform

_SQRT2 = np.sqrt(2.0)


# -- random streams ----------------------------------------------------------

def lattice_uniforms(rng: np.random.Generator, size) -> np.ndarray:
    """The open-interval lattice ``(j + 0.5) / 2**52`` from ``rng.random``.

    ``j`` is the top 52 bits of each 53-bit double.  This is the reference
    that ``rankflow.stream.open_uniforms``, built from raw 64-bit outputs,
    must equal bit for bit while consuming the same stream.
    """
    return (np.floor(rng.random(size) * 2.0**52) + 0.5) / 2.0**52


# -- ranks -------------------------------------------------------------------

def rank_counts(positions: np.ndarray) -> np.ndarray:
    """Weak-inequality count r_i = #{j : x_j <= x_i}, values in 1..n.

    A permutation of 1..n when positions are distinct; tied particles share
    the count of their group's top member.
    """
    x = np.asarray(positions, dtype=float)
    return np.searchsorted(np.sort(x), x, side="right")


# -- W1 between samples ------------------------------------------------------

def w_rho_empirical(a, b, rho: float = 1.0) -> float:
    """Wasserstein-rho distance between two equal-size empirical measures.

    For equal sizes the optimal coupling pairs order statistics, so the
    distance is a mean of sorted differences.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ConfigError("need two non-empty vectors of equal length")
    if rho < 1.0:
        raise ConfigError("rho must be >= 1")
    diff = np.abs(np.sort(a) - np.sort(b))
    return float(np.mean(diff**rho) ** (1.0 / rho))


def w1_cdf_form(a, b) -> float:
    """W1 as the exact L1 norm of the empirical CDF difference.

    Event sweep over the merged atoms; sizes may differ (each empirical
    measure weights its own atoms by 1/size).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ConfigError("need two non-empty vectors")
    grid = np.unique(np.concatenate([a, b]))
    if grid.size == 1:
        return 0.0
    cdf_a = np.searchsorted(np.sort(a), grid[:-1], side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * np.diff(grid)))


# -- flux --------------------------------------------------------------------

def flux_value(flux: FluxFunction, u):
    """Flux value at ``u`` in [0, 1] (scalar or array)."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DomainError("flux argument must lie in [0, 1]")
    return npoly.polyval(u[()], flux.coefficients)


def _sup_abs_on_unit_interval(coeffs: tuple[float, ...]) -> float:
    """sup of |polynomial| on [0, 1], via the critical points."""
    deriv = npoly.polyder(coeffs)
    candidates = [0.0, 1.0]
    roots = npoly.polyroots(deriv) if len(deriv) > 1 else []
    for r in np.atleast_1d(roots):
        if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0:
            candidates.append(float(r.real))
    return float(max(abs(npoly.polyval(c, coeffs)) for c in candidates))


def max_speed(flux: FluxFunction) -> float:
    """sup of |derivative| on [0, 1]; bounds every drift coefficient."""
    return _sup_abs_on_unit_interval(tuple(npoly.polyder(flux.coefficients)))


def lipschitz_speed(flux: FluxFunction) -> float:
    """Lipschitz constant of the derivative on [0, 1]."""
    return _sup_abs_on_unit_interval(tuple(npoly.polyder(flux.coefficients, 2)))


def rank_coefficients(flux: FluxFunction, n: int) -> np.ndarray:
    """One-based cell averages n * (flux(i/n) - flux((i-1)/n)), i = 1..n.

    Their mean telescopes to flux(1) - flux(0).  The engine's ``rank``
    scheme reads the same cells one lower.  The Burgers flux takes the
    closed form 1 - (2i-1)/(2n).
    """
    if flux.is_burgers:
        return 1.0 - (2.0 * np.arange(1, n + 1, dtype=float) - 1.0) / (2.0 * n)
    return n * np.diff(npoly.polyval(np.arange(n + 1, dtype=float) / n, flux.coefficients))


# -- exact solution ----------------------------------------------------------

def pde_residual(solution: BurgersSolution, t: float, x: float, delta: float) -> float:
    """Centered finite-difference residual of the conservation law.

    Estimates d_t F + d_x flux(F) - (sigma^2/2) d_xx F with a stencil of
    width delta; the closed form solves the PDE, so the value is the
    O(delta^2) truncation error.
    """
    if not delta > 0.0:
        raise ConfigError("delta must be > 0")
    if not t > 2.0 * delta:
        raise DomainError("need t > 2*delta to center the time stencil")
    flux = FluxFunction.burgers()
    dt_term = (solution.cdf(t + delta, x) - solution.cdf(t - delta, x)) / (2.0 * delta)
    f_mid = solution.cdf(t, x)
    f_left = solution.cdf(t, x - delta)
    f_right = solution.cdf(t, x + delta)
    dx_flux = (flux_value(flux, f_right) - flux_value(flux, f_left)) / (2.0 * delta)
    dxx_term = (f_right - 2.0 * f_mid + f_left) / delta**2
    return float(dt_term + dx_flux - 0.5 * solution.sigma**2 * dxx_term)


def burgers_cdf_unblocked(solution: BurgersSolution, t: float, x: np.ndarray) -> np.ndarray:
    """The closed-form CDF of ``solution`` over the whole of ``x`` at once,
    in the operation order of ``rankflow.exact``'s formula."""
    x = np.asarray(x, dtype=float)
    scale = solution.sigma * np.sqrt(t)
    g = (2.0 * x - t) / (2.0 * solution.sigma**2)
    g += log_ndtr(x / scale)
    g -= log_ndtr((t - x) / scale)
    return expit(g)


# -- estimators ----------------------------------------------------------------

def psi_grid_free_unblocked(positions, exact_cdf) -> float:
    """The grid-free W1 estimate with every trapezoid term in one array,
    in the operation order of ``rankflow.metrics.psi_grid_free``."""
    y = np.sort(np.asarray(positions, dtype=float))
    n = y.size
    ref = np.asarray(exact_cdf(y), dtype=float)
    levels = np.arange(1, n) / n
    terms = np.abs(ref[1:] - levels)
    terms += np.abs(ref[:-1] - levels)
    terms *= (y[1:] - y[:-1]) * 0.5
    return float(np.sum(terms))


# -- initial laws ------------------------------------------------------------

@dataclass(frozen=True)
class QuantileTable(InitialDistribution):
    """Finite atomic law: sorted atom positions with their probabilities."""

    atoms: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if atoms.size == 0 or atoms.size != probs.size:
            raise ConfigError("atoms and probabilities must be non-empty and equal length")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(probs))):
            raise ConfigError("atoms and probabilities must be finite")
        if np.any(np.diff(atoms) <= 0.0):
            raise ConfigError("atoms must be strictly increasing")
        if np.any(probs <= 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ConfigError("probabilities must be positive and sum to 1")

    def _cumulative(self) -> np.ndarray:
        cum = np.cumsum(self.probabilities)
        cum[-1] = 1.0
        return cum

    def _quantile(self, u):
        idx = np.searchsorted(self._cumulative(), u, side="left")
        return np.asarray(self.atoms, dtype=float)[idx]


def _like(x, out):
    """``out`` as a float when ``x`` is a scalar."""
    return float(out) if np.ndim(x) == 0 else out


@singledispatch
def cdf(law: InitialDistribution, x):
    """Right-continuous CDF of the law at ``x`` (scalar or array)."""
    raise TypeError(f"no CDF for {type(law).__name__}")


@cdf.register
def _(law: DiracAtZero, x):
    return _like(x, (np.asarray(x, dtype=float) >= 0.0).astype(float))


@cdf.register
def _(law: Uniform, x):
    a = np.asarray(x, dtype=float)
    return _like(x, np.clip((a - law.lower) / (law.upper - law.lower), 0.0, 1.0))


@cdf.register
def _(law: Gaussian, x):
    a = np.asarray(x, dtype=float)
    return _like(x, 0.5 * erfc(-(a - law.mean) / (law.stddev * _SQRT2)))


@cdf.register
def _(law: QuantileTable, x):
    cum = np.concatenate(([0.0], law._cumulative()))
    return _like(x, cum[np.searchsorted(law.atoms, np.asarray(x, dtype=float), side="right")])


@singledispatch
def integrated_quantile(law: InitialDistribution, u: np.ndarray) -> np.ndarray:
    """G(u) = integral of the quantile over (0, u), for u in [0, 1]."""
    raise TypeError(f"no integrated quantile for {type(law).__name__}")


@integrated_quantile.register
def _(law: DiracAtZero, u):
    return np.zeros_like(u)


@integrated_quantile.register
def _(law: Uniform, u):
    return u * (law.lower + (law.upper - law.lower) * u / 2.0)


@integrated_quantile.register
def _(law: Gaussian, u):
    # the substitution v = Phi(z) turns the integral of ndtri into -phi(ndtri(u))
    return law.mean * u - law.stddev * np.exp(-ndtri(u) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


@integrated_quantile.register
def _(law: QuantileTable, u):
    # G is linear between the cumulative probabilities
    cum = np.concatenate(([0.0], law._cumulative()))
    mass = np.concatenate(([0.0], np.cumsum(np.multiply(law.atoms, law.probabilities))))
    return np.interp(u, cum, mass)


@singledispatch
def support(law: InitialDistribution) -> tuple[float, float] | None:
    """Closed support [lo, hi] of the law when compact, else None."""
    raise TypeError(f"no support for {type(law).__name__}")


@support.register
def _(law: DiracAtZero):
    return (0.0, 0.0)


@support.register
def _(law: Uniform):
    return (law.lower, law.upper)


@support.register
def _(law: Gaussian):
    return None


@support.register
def _(law: QuantileTable):
    return (law.atoms[0], law.atoms[-1])


def init_w1_to_m(positions: np.ndarray, law: InitialDistribution) -> float:
    """Exact W1 distance between an empirical measure and the law.

    The empirical quantile is the constant x = positions[i-1] on the cell
    (lo, hi) = ((i-1)/n, i/n).  With c = clip(cdf(x), lo, hi), the law's
    quantile is <= x below c and >= x above it, so the integral of
    |x - quantile| over the cell is x (2c - lo - hi) + G(lo) + G(hi) - 2 G(c),
    where G is the integrated quantile of the law.
    """
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("positions must be a non-empty 1-D vector")
    if np.any(np.diff(x) < 0.0):
        raise ConfigError("positions must be sorted nondecreasing")
    edges = np.arange(x.size + 1) / x.size
    lo, hi = edges[:-1], edges[1:]
    crossing = np.clip(cdf(law, x), lo, hi)
    g = partial(integrated_quantile, law)
    return float(np.sum(x * (2.0 * crossing - lo - hi) + g(lo) + g(hi) - 2.0 * g(crossing)))


# -- heat kernel -------------------------------------------------------------

@dataclass(frozen=True)
class HeatKernel:
    """Density of a centered normal with variance sigma^2 * t.

    Pins a set of analytic identities (L1/L2 norms of the kernel and its
    derivative, the heat equation itself, and a time-integrated square norm).
    """

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ConfigError("sigma must be > 0")

    def g(self, t: float, x):
        if not t > 0.0:
            raise DomainError("the kernel requires t > 0")
        x = np.asarray(x, dtype=float)
        var = self.sigma**2 * t
        out = np.exp(-(x**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
        return float(out) if out.ndim == 0 else out

    def dg_dx(self, t: float, x):
        if not t > 0.0:
            raise DomainError("the kernel requires t > 0")
        x = np.asarray(x, dtype=float)
        out = -x / (self.sigma**2 * t) * self.g(t, x)
        return float(out) if out.ndim == 0 else out
