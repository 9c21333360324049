"""The two estimators of the W1 distance of a sample to an exact CDF.

* grid-free: a trapezoid sum over the sorted sample, using the reference
  CDF at the sample points.  It integrates only between the extreme order
  statistics; the omitted tail mass is not corrected (it is part of the
  estimator's definition) but is documented;
* grid-based: a fixed quantile grid of the reference with the midpoint
  value (2k+1)/(2K) standing in for the CDF on each cell, and doubled
  boundary half-cells.  Suited to averaged CDF vectors where the sample
  itself is too large to keep.

Both take a sample in any order and sort it, in ``_sorted_sample``.

W1 between two empirical measures, which checks these estimators, is a
test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, checked_count

#: gaps per block of the grid-free sum: the estimate holds the sorted sample
#: and three blocks of 32 KB whatever the sample size, so from N=70000 on it
#: peaks within 1.5 bytes a particle of the sample and its sorted copy
_BLOCK = 2**12


def _sorted_sample(positions) -> np.ndarray:
    """The sample sorted, if a non-empty finite 1-D vector.  The default sort
    may put ``-0.0`` and ``+0.0`` in either order, which changes neither
    estimate; NaN sorts last, so the two ends decide finiteness."""
    y = np.asarray(positions, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ConfigError("positions must be a non-empty 1-D vector")
    y = np.sort(y)
    if not np.isfinite(y[[0, -1]]).all():
        raise ConfigError("positions must all be finite")
    return y


def empirical_cdf_at(positions, x):
    """Fraction of positions <= x (weak inequality); vectorized in x."""
    pos = _sorted_sample(positions)
    return np.searchsorted(pos, x, side="right") / pos.size


def psi_grid_free(positions, exact_cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Grid-free W1 estimate of a sample, in any order, against a reference CDF.

    Trapezoid sum between consecutive order statistics, with the empirical
    CDF equal to i/n on the i-th gap.  The mass outside the extreme points
    is omitted, a downward bias that shrinks about like 1/n.  A single point
    leaves no gap, so the sum is empty and the estimate is 0.

    The CDF is evaluated and the terms written ``_BLOCK`` gaps at a time,
    over the sorted copy itself: the gaps of a block are taken before it
    is written, and its last point, the next block's first, is not.  The
    n - 1 terms are then summed as one array, so at its peak the estimate
    holds the sorted sample and three blocks.
    """
    y = _sorted_sample(positions)
    n = y.size
    # a block's CDF values are dropped before the next block's are evaluated;
    # a gap that overflows makes the estimate inf or nan, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n - 1, _BLOCK):
            stop = min(start + _BLOCK, n - 1)
            _write_terms(y, exact_cdf(y[start:stop + 1]), start, stop)
    # np.sum's pairwise tree sees the n - 1 terms in order, as one array
    return float(np.sum(y[:n - 1]))


def _write_terms(y: np.ndarray, ref: np.ndarray, start: int, stop: int) -> None:
    """Terms ``start..stop-1`` of the grid-free sum written over
    ``y[start:stop]``, from the CDF values ``ref`` at ``y[start:stop+1]``,
    which it only reads and which may be a view of ``y``.

    Term i is ``(|ref[i+1] - level| + |ref[i] - level|) * ((y[i+1] - y[i])
    * 0.5)`` with ``level = (i+1)/n``, ``ref`` indexed from ``start``; all
    of it is formed in two blocks before ``y`` is written.
    """
    levels = np.arange(start + 1, stop + 1, dtype=float)
    levels /= y.size
    out = np.subtract(ref[1:], levels)
    np.abs(out, out=out)
    below = np.subtract(ref[:-1], levels, out=levels)
    out += np.abs(below, out=below)
    width = np.subtract(y[start + 1:stop + 1], y[start:stop], out=levels)
    width *= 0.5
    np.multiply(out, width, out=y[start:stop])


@dataclass(frozen=True)
class GridSpec:
    """Quantile grid of a reference law for the grid-based estimator.

    ``quantile_grid`` holds the cell edges (quantiles of k/K, k = 1..K-1)
    and ``midpoint_quantiles`` the evaluation abscissae (quantiles of
    (2k+1)/(2K), k = 0..K-1); K >= 2 is the integer count of midpoints.
    """

    quantile_grid: np.ndarray
    midpoint_quantiles: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.quantile_grid, dtype=float)
        mids = np.asarray(self.midpoint_quantiles, dtype=float)
        checked_count("K", mids.size, 2)
        if edges.size != mids.size - 1:
            raise ConfigError("grid vectors must have lengths K-1 and K")
        if edges.size > 1 and np.any(np.diff(edges) <= 0.0):
            raise ConfigError("quantile grid must be strictly increasing")
        if np.any(np.diff(mids) <= 0.0):
            raise ConfigError("midpoint quantiles must be strictly increasing")
        object.__setattr__(self, "quantile_grid", edges)
        object.__setattr__(self, "midpoint_quantiles", mids)

    @classmethod
    def from_quantile(cls, quantile: Callable[[np.ndarray], np.ndarray], k_points: int) -> "GridSpec":
        """The grid of ``k_points`` cells (an integer >= 2) of a vectorized quantile."""
        k = checked_count("K", k_points, 2)
        return cls(quantile(np.arange(1, k) / k), quantile((2.0 * np.arange(k) + 1.0) / (2.0 * k)))


def phi_grid(mean_cdf_values, grid: GridSpec) -> float:
    """Grid-based W1 estimate from CDF values at the midpoint quantiles.

    Interior cells contribute |u_k - (2k+1)/(2K)| times the cell width;
    the two boundary cells contribute twice their half-cell width, between
    the outermost midpoint and the outermost edge.
    """
    u = np.asarray(mean_cdf_values, dtype=float)
    edges, mids = grid.quantile_grid, grid.midpoint_quantiles
    k = mids.size
    if u.ndim != 1 or u.size != k:
        raise ConfigError("mean CDF vector must have length K")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ConfigError("CDF values must lie in [0, 1]")
    targets = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    dev = np.abs(u - targets)
    interior = float(np.sum(dev[1:-1] * np.diff(edges)))
    left = 2.0 * dev[0] * (edges[0] - mids[0])
    right = 2.0 * dev[-1] * (mids[-1] - edges[-1])
    return interior + left + right
