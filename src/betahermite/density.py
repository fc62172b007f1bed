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
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from enum import Enum
from math import asin, pi, sqrt
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .ensemble import EnsembleKind, EnsembleParams
from .tridiag import Spectrum

__all__ = [
    "Regime",
    "DensityEstimate",
    "TestFunction",
    "bump",
    "triangle",
    "raised_cosine",
    "bulk_rescale",
    "edge_rescale",
    "estimate_density",
    "semicircle",
    "semicircle_mass",
    "weak_functional",
    "write_density_csv",
    "read_density_csv",
]


class Regime(str, Enum):
    RAW = "raw"
    BULK = "bulk"
    EDGE = "edge"


@dataclass
class DensityEstimate:
    """Binned (or pointwise) density on a grid.

    Binned: ``grid`` holds bin edges (len = len(height)+1).  Pointwise
    (``pointwise=True``): ``grid`` holds abscissas, same length as
    ``height``; used for exact reference curves.
    """

    grid: np.ndarray
    height: np.ndarray
    regime: Regime
    n_samples: int = 0
    params: EnsembleParams | None = None
    pointwise: bool = False

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.height = np.asarray(self.height, dtype=float)
        expected = len(self.grid) if self.pointwise else len(self.grid) - 1
        if len(self.height) != expected:
            raise ValueError("height length does not match grid")

    @property
    def centers(self) -> np.ndarray:
        if self.pointwise:
            return self.grid
        return 0.5 * (self.grid[1:] + self.grid[:-1])

    @property
    def widths(self) -> np.ndarray:
        if self.pointwise:
            raise ValueError("pointwise estimates have no bin widths")
        return np.diff(self.grid)

    def mass(self) -> float:
        """Integral of the estimate over its grid."""
        if self.pointwise:
            return float(np.trapezoid(self.height, self.grid))
        return float(np.sum(self.height * self.widths))


@dataclass
class TestFunction:
    """Continuous test function with compact support [lo, hi]."""

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.lo) & (x < self.hi)
        out = np.zeros_like(x)
        if inside.any():
            out[inside] = self.fn(x[inside])
        return out


def _unit_coord(x, lo, hi):
    return (2.0 * x - (lo + hi)) / (hi - lo)


def bump(lo: float, hi: float) -> TestFunction:
    """Smooth bump exp(-1/(1-u^2)) rescaled to [lo, hi]."""

    def f(x):
        u = _unit_coord(x, lo, hi)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)

    return TestFunction(f, lo, hi)


def triangle(lo: float, hi: float) -> TestFunction:
    return TestFunction(lambda x: 1.0 - np.abs(_unit_coord(x, lo, hi)), lo, hi)


def raised_cosine(lo: float, hi: float) -> TestFunction:
    return TestFunction(lambda x: 0.5 * (1.0 + np.cos(pi * _unit_coord(x, lo, hi))), lo, hi)


def bulk_rescale(s: Spectrum) -> np.ndarray:
    """Eigenvalues over sqrt(2 beta N) (Gaussian) or sqrt(2N) (fixed-trace)."""
    if s.n == 0:
        raise ValueError("empty spectrum")
    if s.params is None:
        raise ValueError("spectrum carries no ensemble parameters")
    p = s.params
    scale = sqrt(2.0 * p.n) if p.kind is EnsembleKind.FIXED_TRACE else sqrt(2.0 * p.beta * p.n)
    return s.values / scale


def edge_rescale(s: Spectrum) -> np.ndarray:
    """Right-edge coordinates t = 2 N^(2/3) (bulk_rescale(s) - 1)."""
    u = bulk_rescale(s)
    return 2.0 * s.params.n ** (2.0 / 3.0) * (u - 1.0)


def estimate_density(
    samples: Iterable[np.ndarray],
    grid: Sequence[float],
    regime: Regime,
    params: EnsembleParams | None = None,
) -> DensityEstimate:
    """Histogram per-replicate sample vectors into a DensityEstimate.

    Heights are normalized by the total eigenvalue count (raw/bulk) or the
    replicate count (edge), so values remain unbiased density estimates even
    when the grid does not cover every sample.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least two edges")
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample vector")
    counts = np.zeros(len(grid) - 1)
    total_eigs = 0
    for v in samples:
        v = np.asarray(v, dtype=float)
        total_eigs += len(v)
        c, _ = np.histogram(v, bins=grid)
        counts += c
    m = len(samples)
    widths = np.diff(grid)
    if regime is Regime.EDGE:
        height = counts / (m * widths)
    else:
        height = counts / (total_eigs * widths)
    return DensityEstimate(grid=grid, height=height, regime=regime, n_samples=m, params=params)


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


def weak_functional(d: DensityEstimate, f: TestFunction) -> float:
    """Integral of f against the estimate: sum f(center) * height * width."""
    if d.pointwise:
        lo, hi = d.grid[0], d.grid[-1]
        if f.hi <= lo or f.lo >= hi:
            warnings.warn("test-function support does not meet the grid; returning 0")
            return 0.0
        return float(np.trapezoid(f(d.grid) * d.height, d.grid))
    if f.hi <= d.grid[0] or f.lo >= d.grid[-1]:
        warnings.warn("test-function support does not meet the grid; returning 0")
        return 0.0
    return float(np.sum(f(d.centers) * d.height * d.widths))


def write_density_csv(d: DensityEstimate, path, reference: dict[str, np.ndarray] | None = None):
    """CSV columns bin_lo,bin_hi,height[,<reference>...]; plain '.' decimals."""
    path = Path(path)
    ref = reference or {}
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "height", *ref.keys()])
        for i in range(len(d.height)):
            row = [repr(float(d.grid[i])), repr(float(d.grid[i + 1])), repr(float(d.height[i]))]
            row += [repr(float(v[i])) for v in ref.values()]
            w.writerow(row)


def read_density_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (edges, heights) of a density CSV."""
    rows = list(csv.reader(Path(path).open()))
    body = rows[1:]
    lo = np.array([float(r[0]) for r in body])
    hi = np.array([float(r[1]) for r in body])
    h = np.array([float(r[2]) for r in body])
    return np.append(lo, hi[-1]), h


def density_sidecar(d: DensityEstimate, extra: dict | None = None) -> dict:
    """JSON-ready metadata describing one density estimate."""
    meta = {
        "regime": d.regime.value,
        "n_samples": d.n_samples,
        "grid_lo": float(d.grid[0]),
        "grid_hi": float(d.grid[-1]),
        "bins": int(len(d.height)),
        "normalization": "per-eigenvalue" if d.regime is not Regime.EDGE else "per-replicate",
    }
    if d.params is not None:
        meta["params"] = {
            "n": d.params.n,
            "beta": d.params.beta,
            "kind": d.params.kind.value,
        }
    if extra:
        meta.update(extra)
    return meta


def write_sidecar(meta: dict, path):
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
