"""Initial laws for the particle system: CDF, quantile, and placement rules.

Particles are placed either by i.i.d. inverse-transform sampling or by the
deterministic rule that puts particle i at the quantile of (2i-1)/(2n),
which minimizes the Wasserstein-1 distance of the empirical measure to the
law.  ``init_w1_to_m`` evaluates that distance exactly, in closed form, from
the integrated quantile of the law.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

from .errors import ConfigError, DomainError
from .stream import open_uniforms

_SQRT2 = np.sqrt(2.0)


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, a.ndim == 0


class InitialDistribution(abc.ABC):
    """A one-dimensional law given by its CDF and quantile function."""

    #: closed support [lo, hi] when compact, else None
    support: tuple[float, float] | None = None

    @abc.abstractmethod
    def cdf(self, x):
        """Right-continuous CDF (scalar or array)."""

    def quantile(self, u):
        """Generalized inverse inf{x : cdf(x) >= u}, defined for u in (0, 1)."""
        a, scalar = _as_array(u)
        if np.any(a <= 0.0) or np.any(a >= 1.0):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")
        out = self._quantile(a)
        return float(out) if scalar else out

    @abc.abstractmethod
    def _quantile(self, u: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _integrated_quantile(self, u: np.ndarray) -> np.ndarray:
        """G(u) = integral of the quantile over (0, u), for u in [0, 1]."""


@dataclass(frozen=True)
class DiracAtZero(InitialDistribution):
    """Unit mass at the origin."""

    support = (0.0, 0.0)

    def cdf(self, x):
        a, scalar = _as_array(x)
        out = (a >= 0.0).astype(float)
        return float(out) if scalar else out

    def _quantile(self, u):
        return np.zeros_like(u)

    def _integrated_quantile(self, u):
        return np.zeros_like(u)


@dataclass(frozen=True)
class Uniform(InitialDistribution):
    lower: float
    upper: float

    def __post_init__(self):
        if not -np.inf < self.lower < self.upper < np.inf:
            raise ConfigError("uniform law needs finite lower < upper")

    @property
    def support(self):
        return (self.lower, self.upper)

    def cdf(self, x):
        a, scalar = _as_array(x)
        out = np.clip((a - self.lower) / (self.upper - self.lower), 0.0, 1.0)
        return float(out) if scalar else out

    def _quantile(self, u):
        return self.lower + (self.upper - self.lower) * u

    def _integrated_quantile(self, u):
        return u * (self.lower + (self.upper - self.lower) * u / 2.0)


@dataclass(frozen=True)
class Gaussian(InitialDistribution):
    mean: float
    stddev: float

    support = None

    def __post_init__(self):
        if not (np.isfinite(self.mean) and 0.0 < self.stddev < np.inf):
            raise ConfigError("gaussian law needs a finite mean and a finite stddev > 0")

    def cdf(self, x):
        a, scalar = _as_array(x)
        out = 0.5 * erfc(-(a - self.mean) / (self.stddev * _SQRT2))
        return float(out) if scalar else out

    def _quantile(self, u):
        return self.mean + self.stddev * ndtri(u)

    def _integrated_quantile(self, u):
        # the substitution v = Phi(z) turns the integral of ndtri into -phi(ndtri(u))
        return self.mean * u - self.stddev * np.exp(-ndtri(u) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


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

    @property
    def support(self):
        return (self.atoms[0], self.atoms[-1])

    def _cumulative(self) -> np.ndarray:
        cum = np.cumsum(self.probabilities)
        cum[-1] = 1.0
        return cum

    def cdf(self, x):
        a, scalar = _as_array(x)
        cum = np.concatenate(([0.0], self._cumulative()))
        out = cum[np.searchsorted(self.atoms, a, side="right")]
        return float(out) if scalar else out

    def _quantile(self, u):
        idx = np.searchsorted(self._cumulative(), u, side="left")
        return np.asarray(self.atoms, dtype=float)[idx]

    def _integrated_quantile(self, u):
        # G is linear between the cumulative probabilities
        cum = np.concatenate(([0.0], self._cumulative()))
        mass = np.concatenate(([0.0], np.cumsum(np.multiply(self.atoms, self.probabilities))))
        return np.interp(u, cum, mass)


# -- placement rules -------------------------------------------------------

def optimal_positions(law: InitialDistribution, n: int) -> np.ndarray:
    """Deterministic positions at the quantiles of (2i-1)/(2n), i = 1..n.

    Each position is the median of the law restricted to its own quantile
    cell, which minimizes the W1 distance of the empirical measure to the
    law.  The output is nondecreasing by monotonicity of the quantile.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    u = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return np.asarray(law.quantile(u), dtype=float)


def iid_positions(law: InitialDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. samples by inverse transform of the seeded uniform stream."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    return np.asarray(law.quantile(open_uniforms(rng, n)), dtype=float)


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
    crossing = np.clip(law.cdf(x), lo, hi)
    g = law._integrated_quantile
    return float(np.sum(x * (2.0 * crossing - lo - hi) + g(lo) + g(hi) - 2.0 * g(crossing)))


def parse_distribution(text: str) -> InitialDistribution:
    """Parse a CLI law spec: ``dirac0``, ``uniform:c,d`` or ``gauss:mu,sd``."""
    if text == "dirac0":
        return DiracAtZero()
    try:
        if text.startswith("uniform:"):
            c, d = (float(v) for v in text[len("uniform:"):].split(","))
            return Uniform(c, d)
        if text.startswith("gauss:"):
            mu, sd = (float(v) for v in text[len("gauss:"):].split(","))
            return Gaussian(mu, sd)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad distribution spec {text!r}") from err
    raise ConfigError(f"unknown distribution spec {text!r} (want dirac0|uniform:c,d|gauss:mu,sd)")
