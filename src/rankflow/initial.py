"""Initial laws for the particle system: quantile functions and placement rules.

Particles are placed either by i.i.d. inverse-transform sampling or by the
deterministic rule that puts particle i at the quantile of (2i-1)/(2n),
which minimizes the Wasserstein-1 distance of the empirical measure to the
law.  Both rules need only the law's quantile function; the CDFs, and the
exact W1 of a placement to its law, are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, checked_count, checked_real
from .stream import open_uniforms


class InitialDistribution(abc.ABC):
    """A one-dimensional law given by its quantile function."""

    def quantile(self, u):
        """Generalized inverse inf{x : cdf(x) >= u}, defined for u in (0, 1)."""
        a = np.asarray(u, dtype=float)
        if np.any(a <= 0.0) or np.any(a >= 1.0):
            raise ConfigError("quantile argument must lie strictly inside (0, 1)")
        with np.errstate(over="ignore"):  # a law near the float range gives +-inf
            out = self._quantile(a)
        return float(out) if a.ndim == 0 else out

    @abc.abstractmethod
    def _quantile(self, u: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class DiracAtZero(InitialDistribution):
    """Unit mass at the origin."""

    def _quantile(self, u):
        return np.zeros_like(u)


@dataclass(frozen=True)
class Uniform(InitialDistribution):
    """The uniform law on [lower, upper]; both are reals, stored as float."""
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", checked_real("lower", self.lower, -np.inf))
        object.__setattr__(self, "upper", checked_real("upper", self.upper, self.lower))

    def _quantile(self, u):
        x = u * (self.upper - self.lower)
        x += self.lower
        return x


@dataclass(frozen=True)
class Gaussian(InitialDistribution):
    """The normal law of ``mean`` and ``stddev``; both are reals, stored as float."""
    mean: float
    stddev: float

    def __post_init__(self):
        object.__setattr__(self, "mean", checked_real("mean", self.mean, -np.inf))
        object.__setattr__(self, "stddev", checked_real("stddev", self.stddev, 0.0))

    def _quantile(self, u):
        x = ndtri(u)
        x *= self.stddev
        x += self.mean
        return x


# -- placement rules -------------------------------------------------------

def optimal_positions(law: InitialDistribution, n: int) -> np.ndarray:
    """Deterministic positions at the quantiles of (2i-1)/(2n), i = 1..n.

    Each position is the median of the law restricted to its own quantile
    cell, which minimizes the W1 distance of the empirical measure to the
    law.  The output is nondecreasing by monotonicity of the quantile.
    """
    n = checked_count("n", n, 1)
    u = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return np.asarray(law.quantile(u), dtype=float)


def iid_positions(law: InitialDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. samples by inverse transform of the seeded uniform stream."""
    n = checked_count("n", n, 1)
    return np.asarray(law.quantile(open_uniforms(rng, n)), dtype=float)


def parse_distribution(text: str) -> InitialDistribution:
    """Parse a CLI law spec: ``dirac0``, ``uniform:c,d`` or ``gauss:mu,sd``."""
    if text == "dirac0":
        return DiracAtZero()
    for prefix, law in (("uniform:", Uniform), ("gauss:", Gaussian)):
        if text.startswith(prefix):
            try:
                first, second = (float(v) for v in text[len(prefix):].split(","))
            except ValueError as err:
                raise ConfigError(f"bad distribution spec {text!r}") from err
            return law(first, second)
    raise ConfigError(f"unknown distribution spec {text!r} (want dirac0|uniform:c,d|gauss:mu,sd)")
