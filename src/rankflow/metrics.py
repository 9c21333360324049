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

from .errors import ConfigError
from .exact import _BLOCK


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

    The terms are written over the array of CDF values, block by block,
    and summed as one contiguous array, so at its peak the estimate holds
    the sorted sample, the CDF values and two blocks of ``_BLOCK`` values.
    """
    y = _sorted_sample(positions)
    n = y.size
    ref = np.asarray(exact_cdf(y), dtype=float)
    if np.may_share_memory(ref, y) or not ref.flags.writeable:
        ref = ref.copy()  # never write over the sample or a read-only result
    for start in range(0, n - 1, _BLOCK):
        _write_terms(y, ref, start, min(start + _BLOCK, n - 1))
    # np.sum's pairwise tree sees the n - 1 terms in order, as one array
    return float(np.sum(ref[:-1]))


def _write_terms(y: np.ndarray, ref: np.ndarray, start: int, stop: int) -> None:
    """Terms ``start..stop-1`` of the grid-free sum, written over ``ref[start:stop]``.

    Term i is ``(|ref[i+1] - level| + |ref[i] - level|) * ((y[i+1] - y[i])
    * 0.5)`` with ``level = (i+1)/n``, bit for bit: the two absolute values
    are added in the other order, and addition commutes.  ``ref[stop]`` is
    read, not written, so the next block still finds it.
    """
    levels = np.arange(start + 1, stop + 1, dtype=float)
    levels /= y.size
    above = np.subtract(ref[start + 1:stop + 1], levels)
    np.abs(above, out=above)
    terms = ref[start:stop]
    terms -= levels
    np.abs(terms, out=terms)
    terms += above
    width = np.subtract(y[start + 1:stop + 1], y[start:stop], out=levels)
    width *= 0.5
    terms *= width


@dataclass(frozen=True)
class GridSpec:
    """Quantile grid of a reference law for the grid-based estimator.

    ``quantile_grid`` holds the cell edges (quantiles of k/K, k = 1..K-1)
    and ``midpoint_quantiles`` the evaluation abscissae (quantiles of
    (2k+1)/(2K), k = 0..K-1).
    """

    k_points: int
    quantile_grid: np.ndarray
    midpoint_quantiles: np.ndarray

    def __post_init__(self):
        if self.k_points < 2:
            raise ConfigError("need at least 2 grid cells")
        edges = np.asarray(self.quantile_grid, dtype=float)
        mids = np.asarray(self.midpoint_quantiles, dtype=float)
        if edges.size != self.k_points - 1 or mids.size != self.k_points:
            raise ConfigError("grid vectors must have lengths K-1 and K")
        if edges.size > 1 and np.any(np.diff(edges) <= 0.0):
            raise ConfigError("quantile grid must be strictly increasing")
        if np.any(np.diff(mids) <= 0.0):
            raise ConfigError("midpoint quantiles must be strictly increasing")
        object.__setattr__(self, "quantile_grid", edges)
        object.__setattr__(self, "midpoint_quantiles", mids)

    @classmethod
    def from_quantile(cls, quantile: Callable[[np.ndarray], np.ndarray], k_points: int) -> "GridSpec":
        """Build the grid by evaluating a (vectorized) quantile function."""
        k = int(k_points)
        edges = np.asarray(quantile(np.arange(1, k) / k), dtype=float)
        mids = np.asarray(quantile((2.0 * np.arange(k) + 1.0) / (2.0 * k)), dtype=float)
        return cls(k, edges, mids)


def phi_grid(mean_cdf_values, grid: GridSpec) -> float:
    """Grid-based W1 estimate from CDF values at the midpoint quantiles.

    Interior cells contribute |u_k - (2k+1)/(2K)| times the cell width;
    the two boundary cells contribute twice their half-cell width, between
    the outermost midpoint and the outermost edge.
    """
    u = np.asarray(mean_cdf_values, dtype=float)
    k = grid.k_points
    if u.ndim != 1 or u.size != k:
        raise ConfigError("mean CDF vector must have length K")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ConfigError("CDF values must lie in [0, 1]")
    targets = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    dev = np.abs(u - targets)
    edges = grid.quantile_grid
    mids = grid.midpoint_quantiles
    interior = float(np.sum(dev[1:-1] * np.diff(edges))) if k > 2 else 0.0
    left = 2.0 * dev[0] * (edges[0] - mids[0])
    right = 2.0 * dev[-1] * (mids[-1] - edges[-1])
    return interior + left + right
