"""Flux functions of the conservation law and their rank-drift coefficients.

A flux is a C^1 function on [0, 1] stored by its monomial coefficients; its
derivative is the speed field that drives the particles.  The discrete
drift coefficient of the particle of rank ``i`` among ``n`` is the cell
average of the speed,

    n * (flux(i/n) - flux((i-1)/n)),

whose mean over ``i`` telescopes to ``flux(1) - flux(0)`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, DomainError

BURGERS = "burgers"
POLYNOMIAL = "polynomial"

#: monomial coefficients of the Burgers flux -(1-u)^2 / 2
_BURGERS_COEFFICIENTS = (-0.5, 1.0, -0.5)


@dataclass(frozen=True)
class FluxFunction:
    """A C^1 flux on [0, 1] with exact polynomial derivative.

    ``coefficients`` are the monomial coefficients of the flux in ascending
    degree, and the flux's only stored value; the derivative coefficients
    are obtained symbolically so the derivative is exact, not a finite
    difference.  ``kind`` is derived from them.  Trailing zero coefficients
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
    def kind(self) -> str:
        """``burgers`` exactly for the Burgers coefficients (closed-form drift
        table and exact reference), else ``polynomial``."""
        return BURGERS if self.coefficients == _BURGERS_COEFFICIENTS else POLYNOMIAL

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


@lru_cache(maxsize=64)
def cell_average_speeds(flux: FluxFunction, n: int, first_cell: int) -> np.ndarray:
    """Speed averaged over the n cells [(i-1)/n, i/n], i = first_cell+1..first_cell+n.

    Each entry is n * (flux(i/n) - flux((i-1)/n)); cells outside [0, 1]
    extend the polynomial flux naturally.  The Burgers case uses the closed
    form 1 - (2i-1)/(2n), which avoids the cancellation of differencing the
    flux at large n.  Cached per (flux, n, first_cell) and read-only.
    """
    if flux.kind == BURGERS:
        i = np.arange(first_cell + 1, first_cell + n + 1, dtype=float)
        coeffs = 1.0 - (2.0 * i - 1.0) / (2.0 * n)
    else:
        edges = np.arange(first_cell, first_cell + n + 1, dtype=float) / n
        coeffs = n * np.diff(npoly.polyval(edges, flux.coefficients))
    coeffs.setflags(write=False)
    return coeffs


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
