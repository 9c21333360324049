"""Euler-discretized rank-based interacting particle system.

Between grid times, particle i moves with a constant drift determined by
its zero-based rank q_i at the last grid time (the number of strictly
smaller particles, ties broken by original index order), plus independent
Brownian increments.  Two drift variants are supported:

* rank coefficient (default): the cell average of the flux derivative,
  ``n * (flux(q/n) - flux((q-1)/n))``, one cell below the one-based cell
  averages; the lowest cell reaches below the unit interval, where the
  polynomial flux extends naturally;
* fractional rank: the flux derivative evaluated at q/n.

:func:`_drift_table` is the one definition of both tables.

For the Burgers flux the two variants differ by exactly 1/(2n) in every
coefficient.  With all particles tied (the Dirac start) the stable
tie-break hands out all n coefficients, so the ensemble immediately
develops the rarefaction fan of the limiting profile.

Positions leave the engine in original index order: the per-step ranking
is its only sort, and :mod:`rankflow.metrics` sorts a final sample.  A
step scatters its drift table through that sort order, so the ranks are
never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, NumericalError
from .flux import FluxFunction
from .initial import DiracAtZero, InitialDistribution, iid_positions, optimal_positions
from .stream import derive_seed, make_generator, standard_normals

RANK_COEFFICIENT = "rank"
FRACTIONAL_RANK = "frac"

OPTIMAL = "optimal"
IID = "iid"

#: final partial step shorter than this fraction of h is treated as roundoff
_STEP_SLACK = 1e-9

#: most Euler steps one run may take (horizon / step); more is a config error
MAX_STEPS = 10**9

#: most increments drawn at once: a block holds whole steps of n values
_DRAW_BLOCK = 2**16

#: below this many particles the stable sort alone ranks faster than the
#: SIMD sort plus its tie check.  The break-even lies between N=125 and
#: N=150 on the positions of successive simulation steps; timing one array
#: sorted over and over puts it near N=700 instead, because the branch
#: predictor learns the stable sort's branches for a repeated input.
_STABLE_BELOW = 128

#: from this many particles on the order comes from one sort of packed
#: key|index words.  On the positions of successive simulation steps it
#: breaks even with the SIMD argsort between N=1900 and N=2048 and is about
#: 10% faster at N=2500, 20% at N=4000.
_PACKED_FROM = 2048


@dataclass(frozen=True)
class InitRule:
    """How to place the particles at time zero."""

    rule: str = OPTIMAL
    distribution: InitialDistribution = field(default_factory=DiracAtZero)

    def __post_init__(self):
        if self.rule not in (OPTIMAL, IID):
            raise ConfigError(f"unknown init rule {self.rule!r}")

    def positions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.rule == OPTIMAL:
            return optimal_positions(self.distribution, n)
        return iid_positions(self.distribution, n, rng)


@dataclass(frozen=True)
class SimulationConfig:
    """Full specification of one particle-system run.

    ``sigma`` is the diffusion coefficient (so ``sigma**2`` is the viscosity
    parameter of the limiting conservation law).  ``sigma = 0`` is accepted
    for the deterministic degenerate checks; the horizon need not be an
    integer multiple of the step, in which case a final shorter step covers
    the remainder.
    """

    n_particles: int
    step: float
    horizon: float
    sigma: float
    flux: FluxFunction
    scheme: str = RANK_COEFFICIENT
    init: InitRule = field(default_factory=InitRule)
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigError("n_particles must be >= 1")
        if not 0.0 < self.step <= self.horizon:
            raise ConfigError("need 0 < step <= horizon")
        if not np.isfinite(self.horizon):
            raise ConfigError("horizon must be finite")
        if self.horizon / self.step > MAX_STEPS:
            raise ConfigError(f"horizon/step exceeds {MAX_STEPS:.0e} Euler steps")
        if self.sigma < 0.0 or not np.isfinite(self.sigma):
            raise ConfigError("sigma must be finite and >= 0")
        if self.scheme not in (RANK_COEFFICIENT, FRACTIONAL_RANK):
            raise ConfigError(f"unknown drift scheme {self.scheme!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ParticleEnsemble:
    """A run's final positions, at its config's horizon, in original index order."""

    positions: np.ndarray


def _strictly_increasing(xs: np.ndarray) -> bool:
    """True when every value is below the next; False at a tie or a NaN."""
    return np.count_nonzero(xs[:-1] < xs[1:]) == xs.size - 1


def _fixed_point(x: np.ndarray, lo: float, scale: float, out: np.ndarray) -> np.ndarray:
    """``(x - lo) * scale`` truncated to uint64, formed in ``out``: monotone in x.

    The product is taken in ``out`` read as float64, then cast in place,
    which numpy does as if from a copy: the bits of ``astype(np.uint64)``.
    """
    keys = np.subtract(x, lo, out=out.view(np.float64))
    keys *= scale
    np.copyto(out, keys, casting="unsafe")
    return out


def _packed_order(x: np.ndarray, scratch: np.ndarray) -> np.ndarray | slice | None:
    """The stable sort order of ``x`` from one value sort of uint64 words.

    Word i holds the fixed-point key ``(x[i] - min) * 2**(63-b) / (max - min)``
    (truncated) in its high bits and i in its low ``b`` bits.  The key is
    monotone in x, so the sorted words order x correctly except inside a
    run of equal keys, where they fall back to index order.  When the
    sorted keys are strictly increasing, ``key(a) < key(b)`` implies
    ``a < b`` and the order is the unique sorting permutation, so no value
    is gathered to check it.  Else the values of every run of equal keys,
    and only those, are gathered and re-sorted stably; values under
    distinct keys are strictly ordered, so that gives the stable order,
    ties included.  ``slice(None)``, the identity order, when every value
    is equal (``-0.0`` and ``+0.0`` among them); None when the span is not
    finite (a NaN, an infinity or an overflowing difference).

    The words, which start as the index ramp, are the one array of n
    values this allocates.  ``scratch``, n uint64 values that must not
    overlap ``x`` and whose contents are not kept, holds the fixed-point
    keys, then the sorted keys.
    """
    n = x.size
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:  # a NaN makes both NaN, which is never equal
        return slice(None)
    b = (n - 1).bit_length()
    span = hi - lo
    # the scale overflows for a span below 2**(63-b) / 1.8e308
    scale = 2.0 ** (63 - b) / span if span < np.inf else np.inf
    if scale == np.inf:
        return None
    words = np.arange(n, dtype=np.uint64)
    keys = _fixed_point(x, lo, scale, scratch)
    keys <<= np.uint64(b)
    words |= keys
    words.sort()
    keys = np.right_shift(words, np.uint64(b), out=keys)
    words &= np.uint64((1 << b) - 1)
    order = words.view(np.intp)
    collided = keys[:-1] == keys[1:]
    if not np.count_nonzero(collided):
        return order
    # all runs at once: the runs lie in key order, and so in value order
    shared = np.flatnonzero(collided)
    runs = np.union1d(shared, shared + 1)
    order[runs] = order[runs[x[order[runs]].argsort(kind="stable")]]
    return order


def zero_based_ranks(positions: np.ndarray, table: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """``table[rank]`` for each particle, written into ``out``.

    The rank selects the drift coefficient: it is the number of strictly
    smaller particles, and tied particles get distinct consecutive ranks in
    original index order.  The ranks are never stored: the n values of
    ``table`` are scattered through the sort order (``out[order] = table``),
    so ``table = arange(n)`` gives the ranks themselves.  ``table`` holds
    8-byte values (float64 drift, or intp ranks).  ``out``, an array of n
    values of ``table``'s dtype that does not overlap ``positions``, is
    written over and returned; without it a new array is.

    Below ``_STABLE_BELOW`` values the order comes from the stable sort.
    From ``_PACKED_FROM`` on it comes from one value sort of packed
    key|index words (:func:`_packed_order`), which is exact, or is the
    identity slice when every value ties (the Dirac step), so the scatter
    is a plain copy.  The packed path forms its keys in ``out`` before the
    scatter writes over them, so its words are the one array of n values a
    call allocates.  In between, and when the packed
    words cannot be formed, the order comes from numpy's default (SIMD,
    unstable) sort, which is faster there.  Without ties every correct
    sort yields the same permutation; only when the sorted values are not
    strictly increasing (an exact tie, which includes ``-0.0`` against
    ``+0.0``, or a NaN) is the order redone with the stable sort, so the
    ranks are those of the stable sort in every case.
    """
    x = np.asarray(positions, dtype=float)
    n = x.size
    if out is None:
        out = np.empty(n, table.dtype)
    if n < _STABLE_BELOW:
        order = x.argsort(kind="stable")
    elif n < _PACKED_FROM or (order := _packed_order(x, out.view(np.uint64))) is None:
        order = x.argsort()
        if not _strictly_increasing(x[order]):
            order = x.argsort(kind="stable")
    out[order] = table
    return out


@lru_cache(maxsize=64)
def _drift_table(flux: FluxFunction, n: int, scheme: str) -> np.ndarray:
    """Drift coefficient per zero-based rank q, cached per (flux, n, scheme)
    and read-only: the flux derivative at q/n for the fractional scheme,
    else the cell average over [(q-1)/n, q/n], in closed form for Burgers
    (differencing the flux cancels at large n)."""
    if scheme == FRACTIONAL_RANK:
        table = np.asarray(flux.derivative(np.arange(n, dtype=float) / n), dtype=float)
    elif flux.is_burgers:
        table = 1.0 - (2.0 * np.arange(n, dtype=float) - 1.0) / (2.0 * n)
    else:
        table = n * np.diff(npoly.polyval(np.arange(-1, n, dtype=float) / n, flux.coefficients))
    table.setflags(write=False)
    return table


def _advance(x: np.ndarray, drift: np.ndarray, sigma: float, h: float, n_full: int,
             last: float, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The Euler step kernel: yields the positions after every step.

    Takes ``n_full`` steps of length ``h``, then one of length ``last`` when
    ``last > 0``.  A step ranks its input first: :func:`zero_based_ranks`
    scatters the step's drift through the input's sort order into the
    output, so no ranks array is built.  Only then does it draw: increments
    come whole steps at a time, one ``(rows, n)`` block per draw of at most
    ``_DRAW_BLOCK`` values (one row when n is larger), so particle i at
    step k still consumes position k*n + i of ``rng``'s stream, and a
    block's draws are dropped before the next block ranks.

    The positions live in two buffers used in turn: a step writes over the
    input of the step before it, and never over the caller's input, so a
    yielded array is overwritten two steps later.  With one row per draw
    the drift table itself is scattered and the result multiplied by the
    step length in place, so a step holds four arrays of n values at its
    peak: the cached drift table, its input, its output, and the packed
    sort words while it ranks or the increments after.  Smaller runs
    scatter a per-run product ``drift * h`` (``drift * last`` for a partial
    step), which saves a pass per step.

    A step gives the bits of ``drift[r]*dt + x + z*(sigma*sqrt(dt))``,
    added in that order; each block's rows are scaled by their step's
    ``sigma*sqrt(dt)`` as soon as they are drawn.
    """
    n = x.size
    n_steps = n_full + (last > 0.0)
    rows = max(1, _DRAW_BLOCK // n)
    table = drift if rows == 1 else drift * h
    spare = None
    for first in range(0, n_steps, rows):
        noise = None
        for k in range(first, min(first + rows, n_steps)):
            if k == n_full and rows > 1:
                table = drift * last
            moved = zero_based_ranks(x, table, out=spare)
            if rows == 1:
                moved *= h if k < n_full else last
            if noise is None:
                noise = standard_normals(rng, (min(rows, n_steps - first), n))
                full = min(len(noise), n_full - first)
                noise[:full] *= sigma * np.sqrt(h)
                noise[full:] *= sigma * np.sqrt(last)  # the partial last step, if any
            moved += x
            moved += noise[k - first]
            spare = x if k else None
            x = moved
            yield x


def simulate(config: SimulationConfig,
             snapshot: Optional[Callable[[float, np.ndarray], None]] = None) -> ParticleEnsemble:
    """Run the particle system to the horizon; fully determined by the config.

    Takes floor(horizon/step) full steps plus one shorter final step when the
    horizon is not a multiple of the step.  Initial positions come from the
    init rule; particle i's increment at step k consumes position k*n + i of
    the run's increment stream (see :mod:`rankflow.stream` for the seed
    layout).  When given, ``snapshot(time, positions)`` gets a copy of the
    positions at time 0 and after every step; no trajectory is stored.

    Returns the final ensemble at the horizon.  Overflow does not warn; a
    non-finite final position raises NumericalError.
    """
    n, h, horizon = config.n_particles, config.step, config.horizon
    init_rng = make_generator(derive_seed(config.seed, 0))
    steps_rng = make_generator(derive_seed(config.seed, 1))

    x = config.init.positions(n, init_rng)
    if snapshot is not None:
        snapshot(0.0, x.copy())

    n_full = int(np.floor(horizon / h + _STEP_SLACK))
    remainder = horizon - n_full * h
    if remainder < _STEP_SLACK * h:
        remainder = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        drift = _drift_table(config.flux, n, config.scheme)
        steps = _advance(x, drift, config.sigma, h, n_full, remainder, steps_rng)
        for k, x in enumerate(steps, 1):
            if snapshot is not None:
                snapshot(k * h if k <= n_full else horizon, x.copy())
    if not np.isfinite(x).all():
        raise NumericalError("positions overflowed: not every final position is finite")
    return ParticleEnsemble(x)
