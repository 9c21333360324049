"""Euler-discretized rank-based interacting particle system.

Between grid times, particle i moves with a constant drift determined by
its zero-based rank q_i at the last grid time (the number of strictly
smaller particles, ties broken by original index order), plus independent
Brownian increments.  Two drift variants are supported:

* rank coefficient (default): the cell average of the flux derivative,
  ``n * (flux(q/n) - flux((q-1)/n))``, from
  :func:`rankflow.flux.cell_average_speeds` one cell below
  ``FluxFunction.rank_coefficients``; the lowest cell reaches below the
  unit interval, where the polynomial flux extends naturally;
* fractional rank: the flux derivative evaluated at q/n.

For the Burgers flux the two variants differ by exactly 1/(2n) in every
coefficient.  With all particles tied (the Dirac start) the stable
tie-break hands out all n coefficients, so the ensemble immediately
develops the rarefaction fan of the limiting profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .flux import FluxFunction, cell_average_speeds
from .initial import DiracAtZero, InitialDistribution, iid_positions, optimal_positions
from .stream import derive_seed, make_generator, standard_normals

RANK_COEFFICIENT = "rank"
FRACTIONAL_RANK = "frac"

OPTIMAL = "optimal"
IID = "iid"

#: final partial step shorter than this fraction of h is treated as roundoff
_STEP_SLACK = 1e-9


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
        if self.sigma < 0.0 or not np.isfinite(self.sigma):
            raise ConfigError("sigma must be finite and >= 0")
        if self.scheme not in (RANK_COEFFICIENT, FRACTIONAL_RANK):
            raise ConfigError(f"unknown drift scheme {self.scheme!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ParticleEnsemble:
    """Particle positions at one time point, in original index order."""

    time: float
    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size == 0:
            raise ConfigError("positions must be a non-empty 1-D vector")
        if not np.all(np.isfinite(pos)):
            raise ConfigError("positions must all be finite")
        object.__setattr__(self, "positions", pos)


def rank_counts(positions: np.ndarray) -> np.ndarray:
    """Weak-inequality count r_i = #{j : x_j <= x_i}, values in 1..n.

    A permutation of 1..n when positions are distinct; tied particles share
    the count of their group's top member.
    """
    x = np.asarray(positions, dtype=float)
    return np.searchsorted(np.sort(x), x, side="right")


def zero_based_ranks(positions: np.ndarray) -> np.ndarray:
    """Strictly-smaller count with stable index tie-break; always 0..n-1.

    This is the rank that selects the drift coefficient: it equals
    ``rank_counts - 1`` whenever positions are distinct, and hands tied
    particles distinct consecutive ranks in original index order.
    """
    x = np.asarray(positions, dtype=float)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.intp)
    ranks[order] = np.arange(x.size)
    return ranks


def sorted_view(state: ParticleEnsemble) -> np.ndarray:
    """Nondecreasing copy of the positions; the state keeps original order."""
    return np.sort(state.positions, kind="stable")


@lru_cache(maxsize=64)
def _fractional_table(flux: FluxFunction, n: int) -> np.ndarray:
    """Flux derivative at q/n per zero-based rank q, cached per (flux, n)."""
    table = np.asarray(flux.derivative(np.arange(n, dtype=float) / n), dtype=float)
    table.setflags(write=False)
    return table


def _drift_table(config: SimulationConfig) -> np.ndarray:
    """Drift coefficient per zero-based rank q for the config's scheme."""
    if config.scheme == FRACTIONAL_RANK:
        return _fractional_table(config.flux, config.n_particles)
    # rank q takes the cell average over [(q-1)/n, q/n]
    return cell_average_speeds(config.flux, config.n_particles, -1)


def _advance(positions: np.ndarray, drift: np.ndarray, sigma: float, dt: float,
             rng: np.random.Generator) -> np.ndarray:
    noise = standard_normals(rng, positions.size)
    return (positions + drift[zero_based_ranks(positions)] * dt
            + (sigma * np.sqrt(dt)) * noise)


def euler_step(state: ParticleEnsemble, config: SimulationConfig, dt: float,
               rng: np.random.Generator) -> ParticleEnsemble:
    """One Euler step of length dt: drift frozen at the input state's ranks."""
    if not 0.0 < dt <= config.step:
        raise ConfigError("need 0 < dt <= config.step")
    if state.positions.size != config.n_particles:
        raise ConfigError("state size does not match config.n_particles")
    x = _advance(state.positions, _drift_table(config), config.sigma, dt, rng)
    return ParticleEnsemble(state.time + dt, x)


def simulate(config: SimulationConfig,
             snapshot: Optional[Callable[[ParticleEnsemble], None]] = None) -> ParticleEnsemble:
    """Run the particle system to the horizon; fully determined by the config.

    Takes floor(horizon/step) full steps plus one shorter final step when the
    horizon is not a multiple of the step.  Initial positions come from the
    init rule; particle i's increment at step k consumes position k*n + i of
    the run's increment stream (see :mod:`rankflow.stream` for the seed
    layout).  When ``snapshot`` is given it receives the ensemble at time 0
    and after every step; by default no trajectory is stored.

    Returns the final ensemble at the horizon.
    """
    n, h, horizon, sigma = config.n_particles, config.step, config.horizon, config.sigma
    init_rng = make_generator(derive_seed(config.seed, 0))
    steps_rng = make_generator(derive_seed(config.seed, 1))

    x = config.init.positions(n, init_rng)
    if snapshot is not None:
        snapshot(ParticleEnsemble(0.0, x.copy()))

    n_full = int(np.floor(horizon / h + _STEP_SLACK))
    remainder = horizon - n_full * h
    if remainder < _STEP_SLACK * h:
        remainder = 0.0

    drift = _drift_table(config)
    for k in range(n_full):
        x = _advance(x, drift, sigma, h, steps_rng)
        if snapshot is not None:
            snapshot(ParticleEnsemble((k + 1) * h, x.copy()))
    if remainder > 0.0:
        x = _advance(x, drift, sigma, remainder, steps_rng)
        if snapshot is not None:
            snapshot(ParticleEnsemble(horizon, x.copy()))

    return ParticleEnsemble(horizon, x)
