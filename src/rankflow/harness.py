"""Monte-Carlo convergence studies of the particle approximation.

A study sweeps either the particle count or the time step and, per sweep
value, estimates the Wasserstein-1 error of the final-time empirical
measure against the exact Burgers solution:

* strong error: mean over runs of the grid-free estimate per run, with a
  95% half-width from the run-to-run variance;
* weak error: grid-based estimate of the across-runs mean CDF vector, with
  a 95% half-width from batch means (the estimator is a nonlinear function
  of the mean, so the variance is estimated on B batches of R/B runs, per
  the delta method).

Runs are independent: run r of sweep row j uses the seed derived from
(base_seed, j, r), so tables are reproducible bit for bit; with paired
seeds the row index is dropped and all rows share their Brownian noise.
Workers may execute in a process pool, but reduction always happens in run
index order, which keeps results identical for every worker count.
"""

from __future__ import annotations

import json
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from .engine import SimulationConfig, simulate, sorted_view
from .errors import ConfigError, EmitError, NumericalError, UnsupportedReferenceError
from .exact import BurgersSolution
from .flux import BURGERS
from .metrics import GridSpec, empirical_cdf_at, phi_grid, psi_grid_free
from .stream import derive_seed

STRONG = "strong"
WEAK = "weak"

SWEEP_N = "n"
SWEEP_H = "h"

#: exact reference solutions by flux kind
EXACT_REFERENCES = {BURGERS: BurgersSolution}


def get_reference(config: SimulationConfig):
    """Exact solution matching the config's flux, or a clear error."""
    try:
        factory = EXACT_REFERENCES[config.flux.kind]
    except KeyError:
        raise UnsupportedReferenceError(
            f"no exact reference solution registered for flux {config.flux.kind!r}"
        ) from None
    return factory(config.sigma)


@dataclass(frozen=True)
class StudySpec:
    """One convergence table: estimator kind, sweep, and Monte-Carlo sizes.

    ``base`` carries the horizon, diffusion, flux, scheme, initialization
    and base seed; the swept field of ``base`` is overridden row by row.
    """

    kind: str
    base: SimulationConfig
    sweep: str
    values: tuple
    runs: int
    batches: Optional[int] = None
    grid_k: int = 5000
    paired_seeds: bool = False

    def __post_init__(self):
        if self.kind not in (STRONG, WEAK):
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if self.sweep not in (SWEEP_N, SWEEP_H):
            raise ConfigError(f"unknown sweep parameter {self.sweep!r}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if self.runs < 2:
            raise ConfigError("need at least 2 runs")
        sizes = self.values if self.sweep == SWEEP_N else (self.base.n_particles,)
        if self.kind == STRONG and min(sizes) < 2:
            raise ConfigError("strong study needs at least 2 particles in every row")
        if self.kind == WEAK:
            if self.batches is None or self.batches < 2:
                raise ConfigError("weak study needs at least 2 batches")
            if self.runs % self.batches != 0:
                raise ConfigError("batches must divide runs")
            if self.grid_k < 2:
                raise ConfigError("need at least 2 grid cells")


@dataclass(frozen=True)
class StudyRow:
    parameter: float
    estimation: float
    precision: float
    ratio: Optional[float]


@dataclass(frozen=True)
class ErrorTable:
    rows: tuple[StudyRow, ...]

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float, float]]) -> "ErrorTable":
        """Attach the ratio-of-decrease column: previous over current estimate."""
        rows = []
        previous = None
        for parameter, estimation, precision in points:
            ratio = None if previous is None else previous / estimation
            rows.append(StudyRow(parameter, estimation, precision, ratio))
            previous = estimation
        return cls(tuple(rows))


# -- per-run workers ---------------------------------------------------------
#
# Per-point inputs (config plus reference or grid abscissae) are bound with
# functools.partial; a pool pickles that binding once per chunk of runs.

def _strong_run(config: SimulationConfig, reference, run_index: int) -> float:
    cfg = replace(config, seed=derive_seed(config.seed, run_index))
    final = simulate(cfg)
    return psi_grid_free(sorted_view(final), lambda x: reference.cdf(cfg.horizon, x))


def _weak_run(config: SimulationConfig, midpoints: np.ndarray, run_index: int) -> np.ndarray:
    cfg = replace(config, seed=derive_seed(config.seed, run_index))
    return empirical_cdf_at(simulate(cfg).positions, midpoints)


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


def _map_runs(run, n_runs: int, threads: int) -> Iterator:
    """Stream run(0), ..., run(n_runs-1) in run-index order.

    With more than one thread a process pool decides where runs execute.
    When the caller stops early (Ctrl-C, or a failed run), the runs not yet
    started are cancelled.
    """
    if threads <= 1:
        yield from map(run, range(n_runs))
        return
    with ProcessPoolExecutor(max_workers=threads, initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        yield from pool.map(partial(_interruptible, run), range(n_runs))


def _kahan_add(total: np.ndarray, compensation: np.ndarray, term: np.ndarray) -> None:
    y = term - compensation
    t = total + y
    compensation[:] = (t - total) - y
    total[:] = t


def strong_error_point(config: SimulationConfig, runs: int, *,
                       threads: int = 1) -> tuple[float, float]:
    """Mean grid-free W1 estimate over independent runs, with 95% half-width.

    Each run simulates the config with its derived seed and evaluates the
    grid-free estimator of its sorted final ensemble against the exact CDF
    at the horizon.  The half-width is 1.96 * sqrt(sample variance / runs)
    with the unbiased variance.
    """
    if runs < 2:
        raise ConfigError("need at least 2 runs")
    reference = get_reference(config)
    results = _map_runs(partial(_strong_run, config, reference), runs, threads)
    values = np.fromiter(results, dtype=float, count=runs)
    estimation = float(np.mean(values))
    precision = 1.96 * float(np.sqrt(np.var(values, ddof=1) / runs))
    return estimation, precision


def weak_error_point(config: SimulationConfig, runs: int, batches: int,
                     grid: GridSpec, *, threads: int = 1) -> tuple[float, float]:
    """Grid-based W1 estimate of the mean CDF vector, with batch precision.

    Per run, the empirical CDF of the final ensemble is evaluated at the K
    midpoint quantiles.  The estimate applies the grid estimator to the
    across-all-runs mean vector (compensated summation; R can reach 2e4);
    the half-width is 1.96 * sqrt(s_B^2 / B) where s_B^2 is the unbiased
    variance of the per-batch estimates, each computed on its own
    runs-per-batch mean vector.  Run vectors are folded into B running
    sums as they arrive, so R x K storage is never materialized.
    """
    if runs < 2 or batches < 2 or runs % batches != 0:
        raise ConfigError("need runs >= 2, batches >= 2 and batches dividing runs")
    get_reference(config)  # fail early if the flux has no reference
    per_batch = runs // batches
    k = grid.k_points

    batch_sums = np.zeros((batches, k))
    total = np.zeros(k)
    compensation = np.zeros(k)
    results = _map_runs(partial(_weak_run, config, grid.midpoint_quantiles), runs,
                       threads)
    for r, vector in enumerate(results):
        batch_sums[r // per_batch] += vector
        _kahan_add(total, compensation, vector)

    estimation = phi_grid(total / runs, grid)
    batch_values = np.array([phi_grid(batch_sums[b] / per_batch, grid)
                             for b in range(batches)])
    precision = 1.96 * float(np.sqrt(np.var(batch_values, ddof=1) / batches))
    return estimation, precision


def run_study(spec: StudySpec, *, threads: int = 1) -> ErrorTable:
    """Run every sweep row of a study and assemble the error table."""
    points = []
    grid = None
    if spec.kind == WEAK:
        reference = get_reference(spec.base)
        grid = GridSpec.from_quantile(
            lambda u: reference.quantile(spec.base.horizon, u), spec.grid_k)
    for j, value in enumerate(spec.values):
        row_seed = spec.base.seed if spec.paired_seeds else derive_seed(spec.base.seed, j)
        if spec.sweep == SWEEP_N:
            cfg = replace(spec.base, n_particles=int(value), seed=row_seed)
        else:
            cfg = replace(spec.base, step=float(value), seed=row_seed)
        try:
            if spec.kind == STRONG:
                estimation, precision = strong_error_point(cfg, spec.runs, threads=threads)
            else:
                estimation, precision = weak_error_point(
                    cfg, spec.runs, spec.batches, grid, threads=threads)
        except NumericalError as err:
            raise NumericalError(f"sweep value {value}: {err}") from err
        points.append((float(value), estimation, precision))
    return ErrorTable.from_points(points)


# -- output ------------------------------------------------------------------

def _sig8(value: float) -> float:
    return float(f"{value:.8g}")


def _write_table(table: ErrorTable, fmt: str, handle: IO[str]) -> None:
    if fmt == "csv":
        handle.write("parameter,estimation,precision,ratio\n")
        for row in table.rows:
            ratio = "" if row.ratio is None else f"{row.ratio:.8g}"
            handle.write(
                f"{row.parameter:.8g},{row.estimation:.8g},{row.precision:.8g},{ratio}\n")
    elif fmt == "json":
        payload = [
            {
                "parameter": _sig8(row.parameter),
                "estimation": _sig8(row.estimation),
                "precision": _sig8(row.precision),
                "ratio": None if row.ratio is None else _sig8(row.ratio),
            }
            for row in table.rows
        ]
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r} (want csv|json)")


def emit(table: ErrorTable, fmt: str = "csv", destination=None) -> None:
    """Write the table as CSV or JSON to a path, or to stdout when None/'-'.

    Numbers are printed with 8 significant digits, plain decimal point, no
    thousands separators; the first row's ratio cell is empty (CSV) or null
    (JSON).
    """
    if destination is None or destination == "-":
        _write_table(table, fmt, sys.stdout)
        return
    path = Path(destination)
    try:
        with path.open("w", encoding="ascii") as handle:
            _write_table(table, fmt, handle)
    except OSError as err:
        raise EmitError(f"cannot write table to {path}: {err}") from err
