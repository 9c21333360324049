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
value is exactly 1/2.  The finite-difference PDE residual that checks this
closed form is a test oracle, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr

from .errors import ConfigError, NumericalError, checked_real

_BISECTION_ROUNDS = 200
_BRACKET_EXPANSIONS = 200


@dataclass(frozen=True)
class BurgersSolution:
    """Exact CDF/quantile of the Burgers law at viscosity sigma^2, sigma stored as float."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", checked_real("sigma", self.sigma, 0.0))

    def cdf(self, t: float, x):
        """F(t, x) for finite t > 0; vectorized in x, nondecreasing, in [0, 1].

        The t = 0 profile is the unit step at the origin and is not
        representable by the closed form; query the Dirac initial law for it.
        """
        t = checked_real("t", t, 0.0)
        x = np.asarray(x, dtype=float)
        scale = self.sigma * np.sqrt(t)
        # g in place, in the operation order of the formula in the module
        # docstring, so the bits are those of the plain expression; one work
        # buffer holds each log Phi argument in turn.  2x or x/scale may
        # overflow to +-inf, where the limits 0 and 1 are right
        with np.errstate(over="ignore"):
            g = np.multiply(2.0, x, out=np.empty_like(x))
            g -= t
            g /= 2.0 * self.sigma**2
            work = np.divide(x, scale, out=np.empty_like(x))
            g += log_ndtr(work, out=work)
            np.subtract(t, x, out=work)
            work /= scale
            g -= log_ndtr(work, out=work)
            return expit(g, out=g)[()]

    def quantile(self, t: float, u):
        """Generalized inverse of cdf(t, .) at u, by bracketing bisection.

        The bracket starts at t/2 +- 1 and is widened geometrically until it
        straddles u; failure to straddle after 200 doublings signals a
        sigma/t pathology.  Bisection keeps cdf(lo) <= u <= cdf(hi) and stops
        on the bracket width, not on |cdf - u| (at small sigma one ulp of x
        moves the CDF by more than any fixed tolerance), so the result x has
        cdf(t, x - d) <= u <= cdf(t, x + d) with d = 4 eps max(1, |x|).
        """
        t = checked_real("t", t, 0.0)
        uu = np.asarray(u, dtype=float)
        if np.any(uu <= 0.0) or np.any(uu >= 1.0):
            raise ConfigError("quantile argument must lie strictly inside (0, 1)")

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
            raise NumericalError(f"could not bracket the quantile at t = {t:.6g}, sigma^2 = "
                                 f"{self.sigma ** 2:.6g} after 200 expansions")

        for _ in range(_BISECTION_ROUNDS):
            mid = 0.5 * (lo + hi)
            below = self.cdf(t, mid) < uu
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(hi - lo <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(mid))):
                break
        return (0.5 * (lo + hi))[()]
