"""Gaussian heat-kernel density and its spatial derivative.

Exists to pin a set of analytic identities (L1/L2 norms of the kernel and
its derivative, the heat equation itself, and a time-integrated square
norm) as executable oracles for the test suite.  Not on any hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rankflow.errors import ConfigError, DomainError


@dataclass(frozen=True)
class HeatKernel:
    """Density of a centered normal with variance sigma^2 * t."""

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
