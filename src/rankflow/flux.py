"""Flux functions of the conservation law.

A flux is a C^1 function on [0, 1] stored by its monomial coefficients; its
derivative is the speed field that drives the particles.  The drift table
built from it lives in :mod:`rankflow.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, checked_real

#: monomial coefficients of the Burgers flux -(1-u)^2 / 2
_BURGERS_COEFFICIENTS = (-0.5, 1.0, -0.5)


@dataclass(frozen=True)
class FluxFunction:
    """A C^1 flux on [0, 1] with exact polynomial derivative.

    ``coefficients`` are the monomial coefficients of the flux in ascending
    degree, and the flux's only stored value; the derivative coefficients
    are obtained symbolically so the derivative is exact, not a finite
    difference.  ``is_burgers`` is derived from them.  They are stored as floats,
    without trailing zeros (one is kept), so every spelling of a polynomial is one flux.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        try:  # any iterable of reals
            coefficients = tuple(checked_real("coefficient", c, -np.inf) for c in self.coefficients)
        except TypeError:  # not an iterable
            raise ConfigError(f"coefficients must be reals, got {self.coefficients!r}") from None
        if not coefficients:
            raise ConfigError("flux needs at least one coefficient")
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
        return cls((0.0, 0.0, 0.5))

    @classmethod
    def polynomial(cls, coefficients) -> "FluxFunction":
        return cls(coefficients)

    # -- derived values ----------------------------------------------------

    @property
    def is_burgers(self) -> bool:
        """True exactly for the Burgers coefficients: the closed-form drift
        table, and the flux with an exact reference solution."""
        return self.coefficients == _BURGERS_COEFFICIENTS

    # -- evaluation --------------------------------------------------------

    def derivative(self, u):
        """Characteristic speed, the exact derivative of the flux, at ``u``
        (scalar or array).  The polynomial is evaluated wherever it is
        asked: the drift tables take it at rank fractions in [0, 1)."""
        return npoly.polyval(u, npoly.polyder(self.coefficients))


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
