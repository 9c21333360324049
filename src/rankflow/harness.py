"""Monte-Carlo convergence studies of the particle approximation.

A study sweeps either the particle count or the time step and, per sweep
value, estimates the Wasserstein-1 error of the final-time empirical
measure against the exact solution, which only the Burgers flux from the
Dirac start has (``get_reference``):

* strong error: mean over runs of the grid-free estimate per run, with a
  95% half-width from the run-to-run variance;
* weak error: grid-based estimate of the across-runs mean CDF vector, with
  a 95% half-width from batch means (the estimator is a nonlinear function
  of the mean, so the variance is estimated on B batches of R/B runs, per
  the delta method).

A ``StudySpec`` checks the whole study before any run.  ``run_study``
reduces each row's slice of the study's one stream of runs with
``strong_error_point(spec, results)`` or ``weak_error_point(spec,
results)``.  Runs are independent: run r of sweep row j uses the seed
derived from (base_seed, j, r), so tables are reproducible bit for bit;
with paired seeds the row index is dropped and all rows share their
Brownian noise.  One worker, ``_run``, simulates a run and applies the
study's statistic to its final positions, unsorted; wherever ``_map_runs``
executes the runs, reduction is in (row, run index) order, so results are
identical for every worker count.  The harness writes nothing:
``rankflow.cli`` formats and writes every table.
"""

from __future__ import annotations

import os
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator, Optional

import numpy as np

from .engine import _BLOCK, _DRAW_BLOCK, SimulationConfig, simulate
from .errors import ConfigError, NumericalError, checked_count
from .exact import BurgersSolution
from .initial import DiracAtZero
from .metrics import GridSpec, empirical_cdf_at, phi_grid, psi_grid_free
from .stream import derive_seed

STRONG = "strong"
WEAK = "weak"

SWEEP_N = "n"
SWEEP_H = "h"

#: peak bytes per particle of one large run, the step kernel and the strong
#: estimator together: 17.4 under tracemalloc at N=70000 and 16.2 at
#: N=500000, two arrays of float64 (the positions, and the sort words or
#: the increments; the estimator's sample and its sorted copy), rounded up
_BYTES_PER_PARTICLE = 18

#: bytes of one run's fixed-size buffers: one draw of increments
#: (``_DRAW_BLOCK`` values), the drift coefficients times the step, held
#: up to ``_DRAW_BLOCK // 2`` particles, and one block of sort keys or
#: drift coefficients.  Under tracemalloc they lift a run of N=20000 to
#: 52.3 bytes a particle and one of N=2**15 to 42.6
_BYTES_PER_RUN = 8 * (_DRAW_BLOCK + _DRAW_BLOCK // 2 + _BLOCK)

#: peak bytes per cell of the exact-quantile bisection of a weak grid: 67
#: under tracemalloc at K=5000 and at K=10**6, rounded up
_BYTES_PER_CELL = 72

#: runs a pool holds submitted and not yet yielded, per worker: enough to
#: keep every worker fed while the parent reduces a result, and a bound on
#: the parent's memory whatever the run count
_IN_FLIGHT_PER_WORKER = 4

#: K-value vectors a pool worker of a weak study holds besides the results
#: in flight for it: its midpoints, its result and their pickles, 5.0 to 6.6
#: under smaps_rollup at K=10**6 and 2*10**6, and the parent's unpickling
#: of a result, about one, rounded up
_VECTORS_PER_WORKER = 8


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory of the host, None where it cannot be read."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def check_memory(*, particles: int = 0, workers: int = 1, cells: int = 0,
                 batches: int = 0, results: int = 0) -> None:
    """ConfigError when a command's arrays would not fit in physical memory.

    Called once per command, before anything is allocated.  The need is
    ``workers`` runs of ``particles`` each, with their fixed-size buffers,
    the bisection of ``cells`` exact quantiles, ``batches`` running sums of
    ``cells`` values and ``results`` values held at once: a strong row's, one
    per run, or the K-value vectors of a weak study's pool.
    The limit is only read, never set.
    """
    run = particles * _BYTES_PER_PARTICLE + _BYTES_PER_RUN if particles else 0
    need = workers * run + cells * (_BYTES_PER_CELL + 8 * batches) + 8 * results
    limit = _physical_memory()
    if limit is not None and need > limit:
        raise ConfigError(f"this command needs about {-(-need >> 20):,} MiB of memory, "
                          f"more than the {limit >> 20:,} MiB of physical memory")


def _cores() -> int:
    """Cores this process may use."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cores or 1


def get_reference(config: SimulationConfig) -> BurgersSolution:
    """The exact solution of the config's law: Burgers from the Dirac start is the only one."""
    if not config.flux.is_burgers:
        raise ConfigError(
            "no exact reference solution for this flux: only the Burgers flux has one")
    if config.init.distribution != DiracAtZero():
        raise ConfigError(
            "no exact reference solution for this start: only the Dirac start at 0 has one")
    return BurgersSolution(config.sigma)


@dataclass(frozen=True)
class StudySpec:
    """One convergence table, checked whole before it runs.

    ``base`` carries the horizon, diffusion, flux and start (the Burgers
    flux from the Dirac start, whatever the placement rule), scheme and base
    seed.  The counts ``threads``, ``runs``, ``batches`` and ``grid_k``, and
    an n-sweep's values, are integers.
    Derived: ``workers`` is the number of runs that execute at once,
    ``threads`` bounded by the runs of a row and the cores the process may
    use; ``configs[j]`` is ``base`` with the swept field set to row j's value
    and seed ``derive_seed(base.seed, j)`` (``base.seed`` when paired);
    ``reference`` is the exact solution and ``grid`` the weak reference grid.
    """

    kind: str
    base: SimulationConfig
    sweep: str
    values: tuple
    runs: int
    batches: Optional[int] = None
    grid_k: int = 5000
    paired_seeds: bool = False
    threads: int = 1
    workers: int = field(init=False, compare=False)
    configs: tuple[SimulationConfig, ...] = field(init=False, compare=False)
    reference: BurgersSolution = field(init=False, compare=False, repr=False)
    grid: Optional[GridSpec] = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "threads", checked_count("threads", self.threads, 1))
        if self.kind not in (STRONG, WEAK):
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if self.sweep not in (SWEEP_N, SWEEP_H):
            raise ConfigError(f"unknown sweep parameter {self.sweep!r}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        object.__setattr__(self, "runs", checked_count("runs", self.runs, 2))
        object.__setattr__(self, "workers", min(self.threads, self.runs, _cores()))
        object.__setattr__(self, "reference", get_reference(self.base))
        weak = self.kind == WEAK
        if weak:
            object.__setattr__(self, "batches", checked_count("batches", self.batches, 2))
            object.__setattr__(self, "grid_k", checked_count("grid_k", self.grid_k, 2))
            if self.runs % self.batches != 0:
                raise ConfigError("batches must divide runs")
        object.__setattr__(self, "configs", tuple(
            self._row(j, value) for j, value in enumerate(self.values)))
        # a weak row folds its runs into the batch sums, a strong row keeps them all;
        # a pool's weak results are K-value vectors, in flight and in each worker
        held = _IN_FLIGHT_PER_WORKER + _VECTORS_PER_WORKER if self.workers > 1 else 0
        check_memory(particles=max(c.n_particles for c in self.configs),
                     workers=self.workers, cells=self.grid_k if weak else 0,
                     batches=self.batches if weak else 0,
                     results=self.workers * held * self.grid_k if weak else self.runs)
        if weak:
            try:
                grid = GridSpec.from_quantile(
                    lambda u: self.reference.quantile(self.base.horizon, u), self.grid_k)
            except ConfigError:
                raise ConfigError(f"the exact quantile at sigma^2 = {self.base.sigma ** 2:.6g} "
                                  f"cannot separate K = {self.grid_k} grid cells in double "
                                  "precision") from None
            object.__setattr__(self, "grid", grid)

    def _row(self, j: int, value) -> SimulationConfig:
        seed = self.base.seed if self.paired_seeds else derive_seed(self.base.seed, j)
        try:
            swept = {"n_particles": value} if self.sweep == SWEEP_N else {"step": value}
            config = replace(self.base, seed=seed, **swept)
        except ConfigError as err:
            raise ConfigError(f"sweep value {value}: {err}") from None
        if self.kind == STRONG and config.n_particles < 2:
            raise ConfigError(f"sweep value {value}: a strong study needs at least 2 particles")
        return config


@dataclass(frozen=True)
class StudyRow:
    parameter: float
    estimation: float
    precision: float
    ratio: Optional[float]


def _run(config: SimulationConfig, statistic, run_index: int):
    """``statistic`` of the final positions of run ``run_index`` of a row.

    Each row binds its config and the study's statistic with
    functools.partial, and a pool takes one run at a time, so it pickles
    them with every run: the statistic of a weak study carries its K
    midpoint quantiles, 40 KB at K=5000.
    """
    cfg = replace(config, seed=derive_seed(config.seed, run_index))
    return statistic(simulate(cfg).positions)


def _interruptible(run, run_index: int):
    """run(run_index) in a pool worker, which takes Ctrl-C only while it runs.

    An idle worker would die of the interrupt with a traceback; a running
    one hands the interrupt back to the parent as the run's result.
    """
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return run(run_index)
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def _map_runs(spec: StudySpec) -> Iterator:
    """Stream every run's statistic in (row, run index) order: the grid-free
    estimate in a strong study, the CDF at the midpoint quantiles in a weak one.

    When ``spec.workers`` is more than one, one process pool of that many
    workers decides where the study's runs execute; with one there is no
    pool.  At most ``_IN_FLIGHT_PER_WORKER`` runs per worker, of one row
    or two, are submitted and not yet yielded: the next run is submitted
    when the oldest one has yielded.  When the caller stops early (Ctrl-C,
    or a failed run or row), the runs not yet started are cancelled.
    """
    if spec.kind == STRONG:
        statistic = partial(psi_grid_free,
                            exact_cdf=partial(spec.reference.cdf, spec.base.horizon))
    else:
        statistic = partial(empirical_cdf_at, x=spec.grid.midpoint_quantiles)
    rows = [partial(_run, config, statistic) for config in spec.configs]
    tasks = ((run, r) for run in rows for r in range(spec.runs))
    if spec.workers == 1:
        yield from (run(r) for run, r in tasks)
        return
    window = _IN_FLIGHT_PER_WORKER * spec.workers
    with ProcessPoolExecutor(max_workers=spec.workers, initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        in_flight = deque()
        try:
            for task in tasks:
                in_flight.append(pool.submit(_interruptible, *task))
                if len(in_flight) == window:
                    yield in_flight.popleft().result()
            while in_flight:
                yield in_flight.popleft().result()
        finally:
            for future in in_flight:
                future.cancel()


def _with_half_width(estimation, values: np.ndarray) -> tuple[float, float]:
    """``estimation`` and the 95% half-width ``1.96 * sqrt(s^2 / m)`` of the m
    ``values`` it came from, s^2 their unbiased variance; NumericalError
    unless both are finite, as values near the float range overflow them."""
    with np.errstate(over="ignore", invalid="ignore"):
        precision = 1.96 * float(np.sqrt(np.var(values, ddof=1) / values.size))
    if not (np.isfinite(estimation) and np.isfinite(precision)):
        raise NumericalError("the estimate or its half-width overflowed")
    return float(estimation), precision


def _kahan_add(total: np.ndarray, compensation: np.ndarray, term: np.ndarray) -> None:
    y = term - compensation
    t = total + y
    compensation[:] = (t - total) - y
    total[:] = t


def strong_error_point(spec: StudySpec, results: Iterator) -> tuple[float, float]:
    """A strong row from the next ``spec.runs`` results: the mean grid-free
    W1 estimate, with 95% half-width.

    Each result is the grid-free estimator of one run's final positions
    against the exact CDF at the horizon.  The half-width is
    1.96 * sqrt(sample variance / runs) with the unbiased variance.
    """
    values = np.fromiter(results, dtype=float, count=spec.runs)
    with np.errstate(over="ignore"):
        estimation = np.mean(values)
    return _with_half_width(estimation, values)


def weak_error_point(spec: StudySpec, results: Iterator) -> tuple[float, float]:
    """A weak row from the next ``spec.runs`` results: grid-based W1
    estimate of the mean CDF vector.

    Each result is the empirical CDF of one run's final ensemble at the K
    midpoint quantiles.  The estimate applies the grid estimator to the
    across-all-runs mean vector (compensated summation; R can reach 2e4);
    the half-width is 1.96 * sqrt(s_B^2 / B) where s_B^2 is the unbiased
    variance of the per-batch estimates, each computed on its own
    runs-per-batch mean vector.  Run vectors are folded into B running
    sums as they arrive, so R x K storage is never materialized.
    """
    runs, batches, grid = spec.runs, spec.batches, spec.grid
    per_batch = runs // batches
    k = grid.midpoint_quantiles.size

    batch_sums = np.zeros((batches, k))
    total, compensation = np.zeros(k), np.zeros(k)
    # range first: zip stops without taking the next row's first result
    for r, vector in zip(range(runs), results):
        batch_sums[r // per_batch] += vector
        _kahan_add(total, compensation, vector)

    batch_values = np.array([phi_grid(batch_sums[b] / per_batch, grid) for b in range(batches)])
    return _with_half_width(phi_grid(total / runs, grid), batch_values)


def run_study(spec: StudySpec) -> tuple[StudyRow, ...]:
    """One table row per config the spec built, in sweep order; the ratio is
    the previous estimate over the row's own, none on the first row and on
    a row whose estimate is 0.  Row j reduces the j-th slice of
    ``spec.runs`` results of the study's one stream of runs."""
    point = strong_error_point if spec.kind == STRONG else weak_error_point
    rows = []
    with closing(_map_runs(spec)) as results:
        for value in spec.values:
            try:
                estimation, precision = point(spec, results)
            except NumericalError as err:
                raise NumericalError(f"sweep value {value}: {err}") from err
            ratio = rows[-1].estimation / estimation if rows and estimation else None
            rows.append(StudyRow(float(value), estimation, precision, ratio))
    return tuple(rows)
