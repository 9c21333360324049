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

:func:`_drift` is the one definition of both, for any block of ranks.

For the Burgers flux the two variants differ by exactly 1/(2n) in every
coefficient.  With all particles tied (the Dirac start) the stable
tie-break hands out all n coefficients, so the ensemble immediately
develops the rarefaction fan of the limiting profile.

Positions leave the engine in original index order: the per-step ranking
is its only sort, and :mod:`rankflow.metrics` sorts a final sample.  A
step adds each rank's drift to the particle at that place of the sort
order, so the ranks are never stored.  A run holds its positions in one
array, updated in place by every step, and keeps nothing once it ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, NumericalError, checked_count, checked_real
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

#: ranks per block of a step's drift update and of the packed words' keys:
#: a block array takes 64 KB whatever the particle count
_BLOCK = 2**13

#: most increments drawn at once: a block holds whole steps of n values
_DRAW_BLOCK = 2**16

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

    def positions(self, n: int, seed: int) -> np.ndarray:
        """The n positions at time zero of a run with this seed: the i.i.d.
        rule draws them from the stream ``(seed, 0)``, the optimal rule
        opens no stream."""
        if self.rule == OPTIMAL:
            return optimal_positions(self.distribution, n)
        return iid_positions(self.distribution, n, make_generator(derive_seed(seed, 0)))


@dataclass(frozen=True)
class SimulationConfig:
    """Full specification of one particle-system run.

    ``sigma`` is the diffusion coefficient (so ``sigma**2`` is the viscosity
    parameter of the limiting conservation law); ``sigma = 0`` is accepted for
    the deterministic degenerate checks.  A final shorter step covers a horizon
    that is not a multiple of the step.  Counts are stored as int, reals as float.
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
        object.__setattr__(self, "n_particles", checked_count("n_particles", self.n_particles, 1))
        object.__setattr__(self, "horizon", checked_real("horizon", self.horizon, 0.0))
        object.__setattr__(self, "step", checked_real("step", self.step, 0.0))
        if self.step > self.horizon:
            raise ConfigError("need 0 < step <= horizon")
        if self.horizon / self.step > MAX_STEPS:
            raise ConfigError(f"horizon/step exceeds {MAX_STEPS:.0e} Euler steps")
        object.__setattr__(self, "sigma", checked_real("sigma", self.sigma, -np.inf))
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be a real number in [0, inf), got {self.sigma}")
        if self.scheme not in (RANK_COEFFICIENT, FRACTIONAL_RANK):
            raise ConfigError(f"unknown drift scheme {self.scheme!r}")
        object.__setattr__(self, "seed", checked_count("seed", self.seed, 0))


@dataclass(frozen=True)
class ParticleEnsemble:
    """A run's final positions, at its config's horizon, in original index order."""

    positions: np.ndarray


def _strictly_increasing(xs: np.ndarray) -> bool:
    """True when every value is below the next; False at a tie or a NaN."""
    return np.count_nonzero(xs[:-1] < xs[1:]) == xs.size - 1


def _fixed_point(x: np.ndarray, lo: float, scale: float, out: np.ndarray) -> np.ndarray:
    """``(x - lo) * scale`` truncated to uint64, formed in the first
    ``x.size`` values of ``out``: monotone in x.

    The product is taken in ``out`` read as float64, then cast in place,
    which numpy does as if from a copy: the bits of ``astype(np.uint64)``.
    """
    out = out[:x.size]
    keys = np.subtract(x, lo, out=out.view(np.float64))
    keys *= scale
    np.copyto(out, keys, casting="unsafe")
    return out


def _packed_order(x: np.ndarray) -> np.ndarray | slice | None:
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
    values this allocates: the keys are formed, and after the sort
    compared, ``_BLOCK`` words at a time.
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
    shift = np.uint64(b)
    words = np.arange(n, dtype=np.uint64)
    keys = np.empty(min(n, _BLOCK + 1), np.uint64)
    for start in range(0, n, _BLOCK):
        block = _fixed_point(x[start:start + _BLOCK], lo, scale, keys)
        block <<= shift
        words[start:start + _BLOCK] |= block
    words.sort()
    shared = []
    for start in range(0, n - 1, _BLOCK):  # consecutive blocks share a word
        block = words[start:start + _BLOCK + 1]
        block = np.right_shift(block, shift, out=keys[:block.size])
        collided = block[:-1] == block[1:]
        if np.count_nonzero(collided):
            shared.append(np.flatnonzero(collided) + start)
    words &= np.uint64((1 << b) - 1)
    order = words.view(np.intp)
    if not shared:
        return order
    shared = np.concatenate(shared)
    # all runs at once: the runs lie in key order, and so in value order
    runs = np.union1d(shared, shared + 1)
    order[runs] = order[runs[x[order[runs]].argsort(kind="stable")]]
    return order


def zero_based_ranks(positions: np.ndarray) -> np.ndarray | slice:
    """The stable sort order of ``positions``: particle ``order[q]`` has
    zero-based rank q.

    The rank selects the drift coefficient: it is the number of strictly
    smaller particles, and tied particles get distinct consecutive ranks in
    original index order.  The ranks themselves are never stored: the step
    kernel adds coefficient q to particle ``order[q]``.  The order is an
    intp array of n values, or the slice ``slice(None)`` when it is the
    identity.

    From ``_PACKED_FROM`` values on the order comes from one value sort of
    packed key|index words (:func:`_packed_order`), which is exact, or is
    the identity slice when every value ties (the Dirac step); its words
    are the one array of n values a call allocates.  Below it, and when
    the packed words cannot be formed, the order comes from numpy's
    default (SIMD, unstable) sort.  Without ties every correct sort
    gives the same permutation; only when the sorted values are not
    strictly increasing (an exact tie, which includes ``-0.0`` against
    ``+0.0``, or a NaN) is the order redone with the stable sort, so the
    ranks are those of the stable sort in every case.
    """
    x = np.asarray(positions, dtype=float)
    if x.size >= _PACKED_FROM and (order := _packed_order(x)) is not None:
        return order
    order = x.argsort()
    if not _strictly_increasing(x[order]):
        order = x.argsort(kind="stable")
    return order


def _drift(flux: FluxFunction, n: int, scheme: str, start: int, stop: int) -> np.ndarray:
    """Drift coefficients of the zero-based ranks ``start..stop-1`` of n
    particles: the flux derivative at q/n for the fractional scheme, else
    the cell average over [(q-1)/n, q/n], in closed form for Burgers
    (differencing the flux cancels at large n).  Each coefficient has the
    same bits whatever ``start`` and ``stop``."""
    if scheme == FRACTIONAL_RANK:
        return np.asarray(flux.derivative(np.arange(start, stop, dtype=float) / n), dtype=float)
    if flux.is_burgers:
        # 1 - (2q - 1) / (2n), formed in place
        table = np.arange(start, stop, dtype=float)
        table *= 2.0
        table -= 1.0
        table /= 2.0 * n
        return np.subtract(1.0, table, out=table)
    edges = np.arange(start - 1, stop, dtype=float) / n
    return n * np.diff(npoly.polyval(edges, flux.coefficients))


def _add_through(x: np.ndarray, at: np.ndarray | slice, values: np.ndarray) -> None:
    """``x[at] += values`` for an index array ``at`` without repeats, or a
    slice, which ``np.add.at`` would add value by value."""
    if isinstance(at, slice):
        x[at] += values
    else:
        np.add.at(x, at, values)


def _add_drift(x: np.ndarray, order: np.ndarray | slice, flux: FluxFunction, scheme: str,
               dt: float) -> None:
    """Adds the drift coefficient of rank q times ``dt`` to ``x[order[q]]``,
    ``_BLOCK`` ranks at a time: each block of coefficients is formed by
    :func:`_drift` and dropped before the next."""
    n = x.size
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        moved = _drift(flux, n, scheme, start, stop)
        moved *= dt
        _add_through(x, slice(start, stop) if isinstance(order, slice) else order[start:stop],
                     moved)
        del moved


def _advance(x: np.ndarray, flux: FluxFunction, scheme: str, sigma: float, h: float,
             n_full: int, last: float, rng: np.random.Generator) -> np.ndarray:
    """The Euler step kernel: takes every step and returns the final positions.

    Takes ``n_full`` steps of length ``h``, then one of length ``last`` when
    ``last > 0``: two segments, each of steps of one length.  It steps its
    own copy of ``x`` and never writes the caller's array.  The positions
    live in that one buffer, which each step updates in place.

    A step ranks first (:func:`zero_based_ranks`), then adds the drift
    coefficient of rank q times the step length to particle ``order[q]``
    (:func:`_add_through`); no ranks array is built.  Only then does it
    draw: increments come whole steps of one segment at a time, one
    ``(rows, n)`` block per draw of at most ``_DRAW_BLOCK`` values (one row
    when n is larger), so particle i at step k still consumes position
    k*n + i of ``rng``'s stream, and a block's draws are dropped before the
    next block ranks.  With one row per draw the coefficients are computed
    block by block (:func:`_add_drift`) and the sort order is dropped
    before the draw, so a step holds two arrays of n values at its peak:
    the positions, and the packed sort words while it ranks or the
    increments after.  Smaller runs form every coefficient (:func:`_drift`)
    times the step length once per segment and add it in one call, which
    saves the coefficients' passes.  Nothing outlives the call.

    A step gives the bits of ``drift[r]*dt + x + z*(sigma*sqrt(dt))``,
    added in that order (addition commutes bit for bit); each block is
    scaled by its segment's ``sigma*sqrt(dt)`` as soon as it is drawn.
    """
    x = np.array(x, dtype=float)
    n = x.size
    rows = max(1, _DRAW_BLOCK // n)
    for dt, n_steps in ((h, n_full), (last, int(last > 0.0))):
        drift = None
        if rows > 1 and n_steps:
            drift = _drift(flux, n, scheme, 0, n)
            drift *= dt
        for first in range(0, n_steps, rows):
            noise = None
            for k in range(min(rows, n_steps - first)):
                # no name holds the sort order, so its words go before the increments come
                if drift is None:
                    _add_drift(x, zero_based_ranks(x), flux, scheme, dt)
                else:
                    _add_through(x, zero_based_ranks(x), drift)  # every rank as one block
                if noise is None:
                    noise = standard_normals(rng, (min(rows, n_steps - first), n))
                    noise *= sigma * np.sqrt(dt)
                x += noise[k]
    return x


def simulate(config: SimulationConfig) -> ParticleEnsemble:
    """Run the particle system to the horizon; fully determined by the config.

    Takes floor(horizon/step) full steps plus one shorter final step when the
    horizon is not a multiple of the step, in one call of the step kernel
    (:func:`_advance`).  Initial positions come from the init rule; particle
    i's increment at step k consumes position k*n + i of the run's increment
    stream (see :mod:`rankflow.stream` for the seed layout).  No name holds
    the initial positions while the kernel steps its copy of them.

    Returns the final ensemble at the horizon.  Overflow does not warn; a
    non-finite final position raises NumericalError.
    """
    n, h, horizon = config.n_particles, config.step, config.horizon
    steps_rng = make_generator(derive_seed(config.seed, 1))

    n_full = int(np.floor(horizon / h + _STEP_SLACK))
    remainder = horizon - n_full * h
    if remainder < _STEP_SLACK * h:
        remainder = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        x = _advance(config.init.positions(n, config.seed), config.flux, config.scheme,
                     config.sigma, h, n_full, remainder, steps_rng)
    if not np.isfinite(x).all():
        raise NumericalError("positions overflowed: not every final position is finite")
    return ParticleEnsemble(x)
