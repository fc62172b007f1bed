"""Monte Carlo density estimates in raw, bulk, and edge scalings.

Normalization conventions:

* Raw/Bulk estimates are per-eigenvalue densities, counts/(M*N*bin_width),
  so they integrate to one when the grid covers the samples and compare to
  the semicircle with no extra factor.
* Edge estimates are expected counts per unit edge coordinate,
  counts/(M*bin_width); there is no unit-mass normalization because the edge
  window holds O(N^(1/3)) eigenvalues.  With t = 2 N^(2/3) (lambda/edge - 1)
  this histogram estimates exactly the scaled density whose limit is the
  Airy-type edge profile.

Two routes give the same histogram, because both count the eigenvalues
strictly below the same eigenvalue-axis edges, `grid_to_lambda` of the grid,
and `_binned` alone turns those counts into half-open bins [lo, hi).
`grid_to_lambda` is the one coordinate map: eigenvalues are never rescaled,
the grid is mapped onto the eigenvalue axis instead.  `estimate_density`
counts an (R, n) array of eigenvalue rows, such as those of
`tridiag.eigenvalues_block`, with one `np.histogram`; `sample_density` walks
the replicate matrices with `ensemble.replicate_blocks` and never computes an
eigenvalue: it takes the Sturm counts (`tridiag.sturm_count`) at the edges.

`weak_functional` integrates any vectorised test function against an
estimate, the weak-convergence side of the semicircle law; `bump` is the
smooth compactly supported one shipped for it.

This module only computes; `cli` writes the density tables and their sidecars.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import asin, pi, sqrt
from typing import Callable, Sequence

import numpy as np

from .ensemble import EnsembleKind, EnsembleParams, big_l, replicate_blocks, trace_sphere
from .tridiag import SturmWork, sturm_count

__all__ = [
    "Regime",
    "DensityEstimate",
    "bump",
    "bulk_scale",
    "grid_to_lambda",
    "estimate_density",
    "sample_density",
    "semicircle",
    "semicircle_mass",
    "semicircle_bins",
    "weak_functional",
]


_EDGES_PER_CALL = 1024  # grid edges per `sturm_count` call: a block's (R, k) counts stay small


class Regime(str, Enum):
    RAW = "raw"
    BULK = "bulk"
    EDGE = "edge"


@dataclass
class DensityEstimate:
    """Binned density on a grid: ``grid`` holds the bin edges
    (len = len(height)+1), and every bin is half-open, [lo, hi).

    The estimate also records where its ``n_values`` values fell: ``below``
    the first edge, ``above`` the last one or on it, and how its counts were
    made, when known (``count_route``): ``{"route": "histogram"}`` from eigenvalues, or
    ``{"route": "sturm", "pivot_rows": ..., "full_rows": ..., "fallbacks": ...}``
    from `tridiag.sturm_count`, with the pivot rows it ran, out of the
    replicates times n of the full recurrence per call, and the replicates
    whose tail certificate failed, so that their chunk of edges ran every row.
    """

    grid: np.ndarray
    height: np.ndarray
    regime: Regime
    n_samples: int = 0
    n_values: int = 0
    below: int = 0
    above: int = 0
    count_route: dict | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.height = np.asarray(self.height, dtype=float)
        if len(self.height) != len(self.grid) - 1:
            raise ValueError("height length does not match grid")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.grid[1:] + self.grid[:-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.grid)

    @property
    def captured_fraction(self) -> float:
        """Share of the binned values that fell inside the grid."""
        return (self.n_values - self.below - self.above) / self.n_values if self.n_values else 0.0

    def mass(self) -> float:
        """Integral of the estimate over its grid."""
        return float(np.sum(self.height * self.widths))


def bump(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth bump exp(-1/(1-u^2)) rescaled to (lo, hi) and zero outside it."""

    def f(x):
        u = (2.0 * np.asarray(x, dtype=float) - (lo + hi)) / (hi - lo)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)

    return f


def bulk_scale(p: EnsembleParams) -> float:
    """Bulk scale sqrt(2 beta N) (Gaussian) or sqrt(2N) (fixed-trace) of the semicircle."""
    return sqrt(2.0 * p.n) if p.kind is EnsembleKind.FIXED_TRACE else sqrt(2.0 * p.beta * p.n)


def grid_to_lambda(grid, regime: Regime, params: EnsembleParams) -> np.ndarray:
    """Eigenvalue-axis positions of a grid given in the regime's coordinate.

    The coordinates are raw x = lambda, bulk u = lambda / s with
    s = `bulk_scale(params)`, and edge t = 2 N^(2/3) (lambda / c - 1), with the
    soft-edge centre c: sqrt(2 beta N) for the Gaussian kind, and for the
    fixed-trace kind that edge carried onto the sampler's sphere,
    sqrt(2 beta N) sqrt(`trace_sphere(N)` / 2L), L = `ensemble.big_l(N, beta)`
    (sqrt(2 (N - 1)) at beta = 2).  So raw lambda = x, bulk lambda = s u, edge
    lambda = c (1 + t / (2 N^(2/3))).  Both density routes count the
    eigenvalues below these edges.
    """
    grid = np.asarray(grid, dtype=float)
    if regime is Regime.RAW:
        return grid
    if regime is Regime.BULK:
        return bulk_scale(params) * grid
    n, beta = params.n, params.beta
    c = sqrt(2.0 * beta * n)
    if params.kind is EnsembleKind.FIXED_TRACE:
        c *= sqrt(trace_sphere(n) / (2.0 * big_l(n, beta)))
    return c * (1.0 + grid / (2.0 * n ** (2.0 / 3.0)))


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or len(grid) < 2 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be finite and strictly increasing with at least two edges")
    return grid


def _binned(below_edge, grid, regime, n_samples, n_values, count_route):
    """DensityEstimate from the number of values strictly below each grid edge:
    bin [lo, hi) holds the difference of its edges' counts, normalized as the
    module docstring says."""
    norm = n_samples if regime is Regime.EDGE else n_values
    return DensityEstimate(
        grid=grid, height=np.diff(below_edge) / (norm * np.diff(grid)), regime=regime,
        n_samples=n_samples, n_values=n_values, below=int(below_edge[0]),
        above=n_values - int(below_edge[-1]), count_route=count_route,
    )


def estimate_density(
    samples: np.ndarray | Sequence[np.ndarray],
    params: EnsembleParams,
    grid: Sequence[float],
    regime: Regime,
) -> DensityEstimate:
    """Histogram an (R, n) array of eigenvalues, or R rows of equal length, into
    half-open bins.

    ``grid`` is in the regime's coordinate, and the eigenvalues are counted
    below its eigenvalue-axis edges, `grid_to_lambda(grid, regime, params)`,
    the edges `sample_density` counts at.  Heights are normalized by the total
    eigenvalue count (raw/bulk) or the replicate count (edge), so values remain
    unbiased density estimates even when the grid does not cover every sample.
    Ragged rows raise ValueError.
    """
    grid = _checked_grid(grid)
    values = np.asarray(samples, dtype=float)  # rows of unequal length raise ValueError
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"need R >= 1 rows of n >= 1 values, got shape {values.shape}")
    edges = grid_to_lambda(grid, regime, params)
    # bins [-inf, e0), [e0, e1), ..., [e_last, inf]: their running sum counts below each edge
    counts, _ = np.histogram(values, bins=np.concatenate([[-np.inf], edges, [np.inf]]))
    return _binned(np.cumsum(counts[:-1]), grid, regime, len(values), values.size,
                   {"route": "histogram"})


def sample_density(
    params: EnsembleParams,
    master_seed: int,
    reps: int,
    grid: Sequence[float],
    regime: Regime,
) -> DensityEstimate:
    """Sample replicates 0..reps-1 and histogram their spectra without eigenvalues.

    ``grid`` is in the regime's coordinate.
    Replicates come from `ensemble.replicate_blocks`, one stream block at a
    time, and each block's Sturm counts, the eigenvalues strictly below each of
    the grid's eigenvalue-axis edges, give its half-open bins [lo, hi), at O(n)
    per edge and replicate, or less: near a soft edge
    `tridiag.sturm_count` skips the trailing rows whose pivots it can prove
    negative in floating point, and the estimate's ``count_route`` says how
    many rows ran.  The edges go to it at most 1024 at a time, so that a
    block's counts stay bounded whatever the bin count.  The estimate equals
    `estimate_density` of the `stev` spectra count for count, since both count
    at the same edges, up to where `stev` and the Sturm recurrence round an
    eigenvalue near an edge differently.
    """
    grid = _checked_grid(grid)
    if reps < 1:
        raise ValueError("need at least one replicate")
    edges = grid_to_lambda(grid, regime, params)
    below_edge = np.zeros(len(grid), dtype=np.int64)  # eigenvalues below each edge
    work = SturmWork()
    for _, diag, sub in replicate_blocks(params, master_seed, reps):
        sub_sq = np.square(sub, out=sub)
        for lo in range(0, len(edges), _EDGES_PER_CALL):
            c = sturm_count(diag, sub_sq, edges[lo:lo + _EDGES_PER_CALL], work)
            below_edge[lo:lo + c.shape[1]] += c.sum(axis=0)
        del diag, sub, sub_sq, c  # free this block before the next one is drawn
    route = {"route": "sturm", "pivot_rows": work.rows, "full_rows": work.full_rows,
             "fallbacks": work.fallbacks}
    return _binned(below_edge, grid, regime, reps, reps * params.n, route)


def semicircle(x):
    """Wigner semicircle density (2/pi) sqrt(1-x^2) on (-1, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) < 1.0, (2.0 / pi) * np.sqrt(np.maximum(1.0 - x * x, 0.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def semicircle_mass(lo: float, hi: float) -> float:
    """Exact semicircle mass of [lo, hi] from the antiderivative."""

    def antider(u):
        u = min(max(u, -1.0), 1.0)
        return (u * sqrt(max(1.0 - u * u, 0.0)) + asin(u)) / pi

    return antider(hi) - antider(lo)


def semicircle_bins(grid) -> np.ndarray:
    """Mean semicircle density over each bin of ``grid``, `semicircle_mass` / width."""
    grid = np.asarray(grid, dtype=float)
    return np.array([semicircle_mass(a, b) for a, b in zip(grid[:-1], grid[1:])]) / np.diff(grid)


def weak_functional(d: DensityEstimate, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of a vectorised f against the estimate, sum f(center) * height * width."""
    return float(np.sum(f(d.centers) * d.height * d.widths))

