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

from .errors import BracketError, ConfigError, DomainError

_BISECTION_ROUNDS = 200
_BRACKET_EXPANSIONS = 200

#: values per block of the loops over a sample (the exact CDF here, the
#: grid-free trapezoid sum in rankflow.metrics): a block array takes 256 KB
#: whatever the sample size, so from about N=58000 on the estimator, with
#: three sample arrays and two blocks, peaks below the step kernel's four
#: sample arrays
_BLOCK = 2**15


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
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        flat = x.reshape(-1)
        g = np.empty(flat.size)
        two_variance = 2.0 * self.sigma**2
        scale = self.sigma * np.sqrt(t)
        # g in place, block by block, in the operation order of the formula
        # in the module docstring, so the bits are those of the plain
        # expression; one block buffer holds each log Phi argument in turn
        work = np.empty(min(flat.size, _BLOCK))
        for start in range(0, flat.size, _BLOCK):
            xs = flat[start:start + _BLOCK]
            gs = g[start:start + _BLOCK]
            np.multiply(2.0, xs, out=gs)
            gs -= t
            gs /= two_variance
            below = np.divide(xs, scale, out=work[:xs.size])
            gs += log_ndtr(below, out=below)
            above = np.subtract(t, xs, out=below)
            above /= scale
            gs -= log_ndtr(above, out=above)
            expit(gs, out=gs)
        return float(g[0]) if scalar else g.reshape(x.shape)

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
