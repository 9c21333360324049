"""Flux functions of the conservation law.

A flux is a C^1 function on [0, 1] stored by its monomial coefficients; its
derivative is the speed field that drives the particles.  The drift table
built from it lives in :mod:`rankflow.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, DomainError

#: monomial coefficients of the Burgers flux -(1-u)^2 / 2
_BURGERS_COEFFICIENTS = (-0.5, 1.0, -0.5)


@dataclass(frozen=True)
class FluxFunction:
    """A C^1 flux on [0, 1] with exact polynomial derivative.

    ``coefficients`` are the monomial coefficients of the flux in ascending
    degree, and the flux's only stored value; the derivative coefficients
    are obtained symbolically so the derivative is exact, not a finite
    difference.  ``is_burgers`` is derived from them.  Trailing zero coefficients
    are dropped (one is kept), so every spelling of a polynomial is one flux.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ConfigError("flux needs at least one coefficient")
        if not all(np.isfinite(self.coefficients)):
            raise ConfigError("flux coefficients must be finite")
        coefficients = tuple(self.coefficients)
        while len(coefficients) > 1 and coefficients[-1] == 0.0:
            coefficients = coefficients[:-1]
        object.__setattr__(self, "coefficients", coefficients)

    # -- constructors ------------------------------------------------------

    @classmethod
    def burgers(cls) -> "FluxFunction":
        """flux(u) = -(1-u)^2 / 2, speed(u) = 1 - u."""
        return cls(_BURGERS_COEFFICIENTS)

    @classmethod
    def quadratic(cls) -> "FluxFunction":
        """flux(u) = u^2 / 2, speed(u) = u."""
        return cls.polynomial((0.0, 0.0, 0.5))

    @classmethod
    def polynomial(cls, coefficients) -> "FluxFunction":
        return cls(tuple(float(c) for c in coefficients))

    # -- derived values ----------------------------------------------------

    @property
    def is_burgers(self) -> bool:
        """True exactly for the Burgers coefficients: the closed-form drift
        table, and the flux with an exact reference solution."""
        return self.coefficients == _BURGERS_COEFFICIENTS

    # -- evaluation --------------------------------------------------------

    @property
    def derivative_coefficients(self) -> tuple[float, ...]:
        return tuple(npoly.polyder(self.coefficients))

    def derivative(self, u):
        """Characteristic speed, the exact derivative of the flux."""
        u = self._check_domain(u)
        return npoly.polyval(u, self.derivative_coefficients)

    @staticmethod
    def _check_domain(u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise DomainError("flux argument must lie in [0, 1]")
        return u[()] if u.ndim == 0 else u


def parse_flux(text: str) -> FluxFunction:
    """Parse a CLI flux spec: ``burgers``, ``quadratic`` or ``poly:c0,c1,...``."""
    if text == "burgers":
        return FluxFunction.burgers()
    if text == "quadratic":
        return FluxFunction.quadratic()
    if text.startswith("poly:"):
        try:
            coeffs = [float(c) for c in text[len("poly:"):].split(",")]
        except ValueError as err:
            raise ConfigError(f"bad polynomial coefficients in {text!r}") from err
        return FluxFunction.polynomial(coeffs)
    raise ConfigError(f"unknown flux spec {text!r} (want burgers|quadratic|poly:c0,c1,...)")
