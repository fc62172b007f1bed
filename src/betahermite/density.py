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

Two routes give the same histogram.  `estimate_density` bins an (R, n) array
of eigenvalue rows with `np.histogram`; `sample_density` walks the replicate
matrices with `ensemble.replicate_blocks` and never computes an eigenvalue: a
bin's count is the difference of the Sturm counts (`tridiag.sturm_count`) at
its two edges, mapped back to the eigenvalue axis by `grid_to_lambda`.  `rescale` is the one
rescaling: it maps eigenvalue arrays of any shape, such as the (R, n) rows of
`tridiag.eigenvalues_block`, into a regime's coordinate, and `grid_to_lambda`
maps a grid back.

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

from .ensemble import EnsembleKind, EnsembleParams, replicate_blocks
from .tridiag import sturm_count

__all__ = [
    "Regime",
    "DensityEstimate",
    "bump",
    "bulk_scale",
    "rescale",
    "grid_to_lambda",
    "estimate_density",
    "sample_density",
    "semicircle",
    "semicircle_mass",
    "semicircle_bins",
    "weak_functional",
]


class Regime(str, Enum):
    RAW = "raw"
    BULK = "bulk"
    EDGE = "edge"


@dataclass
class DensityEstimate:
    """Binned density on a grid: ``grid`` holds the bin edges
    (len = len(height)+1).

    The estimate also records where its ``n_values`` values fell:
    ``below`` the first edge, ``above`` the last one (at or above it on the
    Sturm route, strictly above it with `np.histogram`, which closes the last
    bin), and how many of its ``n_samples`` vectors lie wholly below or wholly
    above the grid (``n_disjoint``).
    """

    grid: np.ndarray
    height: np.ndarray
    regime: Regime
    n_samples: int = 0
    n_values: int = 0
    below: int = 0
    above: int = 0
    n_disjoint: int = 0

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
    """Spectral edge sqrt(2 beta N) (Gaussian) or sqrt(2N) (fixed-trace)."""
    return sqrt(2.0 * p.n) if p.kind is EnsembleKind.FIXED_TRACE else sqrt(2.0 * p.beta * p.n)


def _edge_stretch(n: int) -> float:
    """Edge coordinates per unit of bulk coordinate, 2 N^(2/3)."""
    return 2.0 * n ** (2.0 / 3.0)


def rescale(values, regime: Regime, params: EnsembleParams) -> np.ndarray:
    """Eigenvalues of any shape in the regime's coordinate.

    raw x = lambda, bulk u = lambda / `bulk_scale`, edge t = 2 N^(2/3) (u - 1);
    `grid_to_lambda` is the inverse.
    """
    values = np.asarray(values, dtype=float)
    if regime is Regime.RAW:
        return values
    u = values / bulk_scale(params)
    return u if regime is Regime.BULK else _edge_stretch(params.n) * (u - 1.0)


def grid_to_lambda(grid, regime: Regime, params: EnsembleParams) -> np.ndarray:
    """Eigenvalue-axis positions of a grid given in the regime's coordinate.

    The inverse of `rescale`: raw lambda = x, bulk lambda = s x,
    edge lambda = s (1 + t / (2 N^(2/3))), with s = `bulk_scale(params)`.
    """
    grid = np.asarray(grid, dtype=float)
    if regime is Regime.RAW:
        return grid
    s = bulk_scale(params)
    if regime is Regime.BULK:
        return s * grid
    return s * (1.0 + grid / _edge_stretch(params.n))


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or len(grid) < 2 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be finite and strictly increasing with at least two edges")
    return grid


def _binned(counts, grid, regime, n_samples, n_values, below, n_disjoint):
    """DensityEstimate from bin counts, normalized as the module docstring says."""
    widths = np.diff(grid)
    norm = n_samples if regime is Regime.EDGE else n_values
    return DensityEstimate(
        grid=grid, height=counts / (norm * widths), regime=regime, n_samples=n_samples,
        n_values=n_values, below=below,
        above=n_values - below - int(np.sum(counts)), n_disjoint=n_disjoint,
    )


def estimate_density(
    samples: np.ndarray | Sequence[np.ndarray],
    grid: Sequence[float],
    regime: Regime,
) -> DensityEstimate:
    """Histogram an (R, n) array, or R rows of equal length, into a DensityEstimate.

    Heights are normalized by the total eigenvalue count (raw/bulk) or the
    replicate count (edge), so values remain unbiased density estimates even
    when the grid does not cover every sample.  Ragged rows raise ValueError.
    """
    grid = _checked_grid(grid)
    values = np.asarray(samples, dtype=float)  # rows of unequal length raise ValueError
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"need R >= 1 rows of n >= 1 values, got shape {values.shape}")
    counts, _ = np.histogram(values, bins=grid)
    n_disjoint = int(np.count_nonzero((values.min(axis=1) > grid[-1])
                                      | (values.max(axis=1) < grid[0])))
    below = int(np.count_nonzero(values < grid[0]))
    return _binned(counts, grid, regime, len(values), values.size, below, n_disjoint)


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
    time, and each block's Sturm counts at the grid's eigenvalue-axis edges give
    its bin counts, at O(n) per edge and replicate.  The estimate equals
    `estimate_density` of the rescaled `stev` spectra count for count, up to
    eigenvalues within rounding of an edge.
    """
    grid = _checked_grid(grid)
    if reps < 1:
        raise ValueError("need at least one replicate")
    edges = grid_to_lambda(grid, regime, params)
    n = params.n
    below_edge = np.zeros(len(grid), dtype=np.int64)  # eigenvalues below each edge
    n_disjoint = 0
    for _, diag, sub in replicate_blocks(params, master_seed, 0, reps):
        c = sturm_count(diag, np.square(sub, out=sub), edges)
        del diag, sub  # free this block before the next one is drawn
        below_edge += c.sum(axis=0)
        n_disjoint += int(np.count_nonzero((c[:, 0] == n) | (c[:, -1] == 0)))
    return _binned(np.diff(below_edge), grid, regime, reps, reps * n,
                   int(below_edge[0]), n_disjoint)


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

