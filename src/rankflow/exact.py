"""Closed-form solution of the viscous Burgers-type conservation law.

For flux(u) = -(1-u)^2/2 and a unit step initial profile, the Cole-Hopf
transformation gives the CDF at time t > 0 in closed form in terms of the
standard normal CDF.  The raw formula overflows the exponential for
moderate x/sigma^2, so it is evaluated as a logistic function of

    g = (2x - t)/(2 sigma^2) + log Phi(x/(sigma sqrt t))
                             - log Phi((t - x)/(sigma sqrt t)),

which is stable for |x| up to 1e4 and sigma^2 down to 1e-3 and beyond
(log Phi switches to an asymptotic tail expansion internally for very
negative arguments).  The profile is symmetric about x = t/2, where the
value is exactly 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, expit, log_ndtr

from .errors import BracketError, ConfigError, DomainError
from .flux import FluxFunction

_SQRT2 = np.sqrt(2.0)

_BISECTION_ROUNDS = 200
_BRACKET_EXPANSIONS = 200


def normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class BurgersSolution:
    """Exact CDF/quantile of the Burgers conservation law at viscosity sigma^2."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0 or not np.isfinite(self.sigma):
            raise ConfigError("sigma must be finite and > 0")

    def cdf(self, t: float, x):
        """F(t, x) for finite t > 0; vectorized in x, nondecreasing, in [0, 1].

        The t = 0 profile is the unit step at the origin and is not
        representable by the closed form; query the Dirac initial law for it.
        """
        if not 0.0 < t < np.inf:
            raise DomainError("the closed form requires a finite t > 0")
        x = np.asarray(x, dtype=float)
        scale = self.sigma * np.sqrt(t)
        g = (
            (2.0 * x - t) / (2.0 * self.sigma**2)
            + log_ndtr(x / scale)
            - log_ndtr((t - x) / scale)
        )
        out = expit(g)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t: float, u):
        """Generalized inverse of cdf(t, .) at u, by bracketing bisection.

        The bracket starts at t/2 +- 1 and is widened geometrically until it
        straddles u; failure to straddle after 200 doublings signals a
        sigma/t pathology.  Bisection keeps cdf(lo) <= u <= cdf(hi) and stops
        on the bracket width, not on |cdf - u| (at small sigma one ulp of x
        moves the CDF by more than any fixed tolerance), so the result x has
        cdf(t, x - d) <= u <= cdf(t, x + d) with d = 4 eps max(1, |x|).
        """
        if not 0.0 < t < np.inf:
            raise DomainError("the closed form requires a finite t > 0")
        uu = np.asarray(u, dtype=float)
        scalar = uu.ndim == 0
        uu = np.atleast_1d(uu)
        if np.any(uu <= 0.0) or np.any(uu >= 1.0):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")

        lo = np.full_like(uu, t / 2.0 - 1.0)
        hi = np.full_like(uu, t / 2.0 + 1.0)
        width = 1.0
        for _ in range(_BRACKET_EXPANSIONS):
            need_lo = self.cdf(t, lo) > uu
            need_hi = self.cdf(t, hi) < uu
            if not (need_lo.any() or need_hi.any()):
                break
            width *= 2.0
            lo[need_lo] -= width
            hi[need_hi] += width
        else:
            raise BracketError("could not bracket the quantile after 200 expansions")

        for _ in range(_BISECTION_ROUNDS):
            mid = 0.5 * (lo + hi)
            below = self.cdf(t, mid) < uu
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(hi - lo <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(mid))):
                break
        x = 0.5 * (lo + hi)
        return float(x[0]) if scalar else x

    def pde_residual(self, t: float, x: float, delta: float) -> float:
        """Centered finite-difference residual of the conservation law.

        Estimates d_t F + d_x flux(F) - (sigma^2/2) d_xx F with a stencil of
        width delta; the closed form solves the PDE, so the value is the
        O(delta^2) truncation error.  Used as a self-validation oracle.
        """
        if not delta > 0.0:
            raise ConfigError("delta must be > 0")
        if not t > 2.0 * delta:
            raise DomainError("need t > 2*delta to center the time stencil")
        flux = FluxFunction.burgers()
        dt_term = (self.cdf(t + delta, x) - self.cdf(t - delta, x)) / (2.0 * delta)
        f_mid = self.cdf(t, x)
        f_left = self.cdf(t, x - delta)
        f_right = self.cdf(t, x + delta)
        dx_flux = (flux.value(f_right) - flux.value(f_left)) / (2.0 * delta)
        dxx_term = (f_right - 2.0 * f_mid + f_left) / delta**2
        return float(dt_term + dx_flux - 0.5 * self.sigma**2 * dxx_term)
