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
QUADRATIC = "quadratic"
POLYNOMIAL = "polynomial"


def _sup_abs_on_unit_interval(coeffs: tuple[float, ...]) -> float:
    """sup of |polynomial| on [0, 1], via the critical points."""
    if len(coeffs) <= 1:
        return abs(coeffs[0]) if coeffs else 0.0
    deriv = npoly.polyder(coeffs)
    candidates = [0.0, 1.0]
    roots = npoly.polyroots(deriv) if len(deriv) > 1 else []
    for r in np.atleast_1d(roots):
        if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0:
            candidates.append(float(r.real))
    return float(max(abs(npoly.polyval(c, coeffs)) for c in candidates))


@dataclass(frozen=True)
class FluxFunction:
    """A C^1 flux on [0, 1] with exact polynomial derivative.

    ``coefficients`` are the monomial coefficients of the flux in ascending
    degree; the derivative coefficients are obtained symbolically so the
    derivative is exact, not a finite difference.  ``lipschitz_speed`` is
    the Lipschitz constant of the derivative on [0, 1] (informational).
    """

    kind: str
    coefficients: tuple[float, ...]
    lipschitz_speed: float

    def __post_init__(self):
        if self.kind not in (BURGERS, QUADRATIC, POLYNOMIAL):
            raise ConfigError(f"unknown flux kind {self.kind!r}")
        if not self.coefficients:
            raise ConfigError("flux needs at least one coefficient")
        if not all(np.isfinite(self.coefficients)):
            raise ConfigError("flux coefficients must be finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def burgers(cls) -> "FluxFunction":
        """flux(u) = -(1-u)^2 / 2, speed(u) = 1 - u."""
        return cls(BURGERS, (-0.5, 1.0, -0.5), 1.0)

    @classmethod
    def quadratic(cls) -> "FluxFunction":
        """flux(u) = u^2 / 2, speed(u) = u."""
        return cls(QUADRATIC, (0.0, 0.0, 0.5), 1.0)

    @classmethod
    def polynomial(cls, coefficients) -> "FluxFunction":
        coeffs = tuple(float(c) for c in coefficients)
        curvature = npoly.polyder(coeffs, 2) if len(coeffs) > 2 else (0.0,)
        return cls(POLYNOMIAL, coeffs, _sup_abs_on_unit_interval(tuple(curvature)))

    # -- evaluation --------------------------------------------------------

    @property
    def derivative_coefficients(self) -> tuple[float, ...]:
        return tuple(npoly.polyder(self.coefficients)) if len(self.coefficients) > 1 else (0.0,)

    def value(self, u):
        """Flux value at ``u`` in [0, 1] (scalar or array)."""
        u = self._check_domain(u)
        return npoly.polyval(u, self.coefficients)

    def derivative(self, u):
        """Characteristic speed, the exact derivative of the flux."""
        u = self._check_domain(u)
        return npoly.polyval(u, self.derivative_coefficients)

    def max_speed(self) -> float:
        """sup of |derivative| on [0, 1]; bounds every drift coefficient."""
        return _sup_abs_on_unit_interval(self.derivative_coefficients)

    @staticmethod
    def _check_domain(u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise DomainError("flux argument must lie in [0, 1]")
        return u[()] if u.ndim == 0 else u

    def rank_coefficients(self, n_particles: int) -> np.ndarray:
        """Drift coefficients for ranks 1..n, cached per (flux, n).

        These are the cell averages over [(i-1)/n, i/n], i = 1..n; see
        :func:`cell_average_speeds`.  The returned array is read-only
        because it is shared by all callers.
        """
        if n_particles < 1:
            raise ConfigError("n_particles must be >= 1")
        return cell_average_speeds(self, int(n_particles), 0)


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
