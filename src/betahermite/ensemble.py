"""Sampling of beta-Hermite tridiagonal matrices and their fixed-trace rescalings.

The Gaussian ensemble is realized directly by the tridiagonal matrix model:
independent standard normals on the diagonal and chi_{j*beta}/sqrt(2) on the
subdiagonal, where j counts positions from the bottom-right corner.  The
fixed-trace ensemble is obtained by projecting Gaussian samples onto the
sphere tr(H^2) = n(n-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "EnsembleKind",
    "EnsembleParams",
    "SampleSeed",
    "TridiagonalSymmetric",
    "sample_half_chi",
    "sample_beta_hermite",
    "fixed_trace_rescale",
    "sample_ensemble",
]

_MASK64 = (1 << 64) - 1


class EnsembleKind(str, Enum):
    GAUSSIAN = "gaussian"
    FIXED_TRACE = "fixed-trace"


@dataclass(frozen=True)
class EnsembleParams:
    """Ensemble parameters: dimension n, Dyson parameter beta, and kind."""

    n: int
    beta: float
    kind: EnsembleKind = EnsembleKind.GAUSSIAN

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got n={self.n}")
        if not self.beta > 0:
            raise ValueError(f"Dyson parameter must be > 0, got beta={self.beta}")

    @property
    def strength_sq(self) -> float:
        """Canonical fixed-trace target n*(n-1)/2."""
        return self.n * (self.n - 1) / 2.0


@dataclass(frozen=True)
class SampleSeed:
    """Key of one deterministic replicate stream.

    (master_seed, replicate) keys a counter-based Philox generator, so
    distinct replicates give independent streams and any replicate can be
    regenerated in isolation.
    """

    master_seed: int
    replicate: int = 0

    def __post_init__(self):
        if self.replicate < 0:
            raise ValueError("replicate index must be non-negative")

    def generator(self) -> Generator:
        return Generator(Philox(key=[self.master_seed & _MASK64, self.replicate & _MASK64]))


@dataclass
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix stored as diagonal and subdiagonal."""

    diag: np.ndarray
    subdiag: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.subdiag = np.asarray(self.subdiag, dtype=float)
        if self.diag.ndim != 1 or self.subdiag.ndim != 1:
            raise ValueError("diag and subdiag must be one-dimensional")
        if len(self.subdiag) != len(self.diag) - 1:
            raise ValueError(
                f"subdiag length {len(self.subdiag)} != diag length {len(self.diag)} - 1"
            )

    @property
    def n(self) -> int:
        return len(self.diag)

    def trace_sq(self) -> float:
        """tr(T^2) = sum(diag^2) + 2*sum(subdiag^2)."""
        return float(np.sum(self.diag**2) + 2.0 * np.sum(self.subdiag**2))


def sample_half_chi(k_dof: float, seed: SampleSeed, size: int | None = None):
    """Draw X > 0 with density 2/Gamma(k/2) * x^(k-1) * exp(-x^2), k = k_dof.

    Sampled as the square root of a unit-scale gamma variate of shape k/2,
    which is correct for every real k_dof > 0.  With ``size=None`` a single
    float is returned, otherwise an ndarray; consecutive draws come from the
    seed's stream in order.
    """
    if not k_dof > 0:
        raise ValueError(f"k_dof must be > 0, got {k_dof}")
    rng = seed.generator()
    g = rng.standard_gamma(k_dof / 2.0, size=size)
    x = np.sqrt(g)
    return float(x) if size is None else x


def sample_beta_hermite(params: EnsembleParams, seed: SampleSeed) -> TridiagonalSymmetric:
    """Sample the Gaussian-ensemble tridiagonal matrix H for (n, beta).

    Entries are mutually independent given the seed: diag ~ N(0,1) and the
    j-th subdiagonal entry counted from the bottom-right corner is
    chi_{j*beta}/sqrt(2) (stored top-to-bottom, so subdiag[i] has
    j = n-1-i).  Draw order is fixed: the n diagonal normals first, then the
    n-1 gamma variates top-to-bottom.
    """
    rng = seed.generator()
    n = params.n
    diag = rng.standard_normal(n)
    if n == 1:
        return TridiagonalSymmetric(diag, np.empty(0))
    j = np.arange(n - 1, 0, -1)  # dof index, top-to-bottom
    subdiag = np.sqrt(rng.standard_gamma(j * params.beta / 2.0))
    return TridiagonalSymmetric(diag, subdiag)


def fixed_trace_rescale(
    h: TridiagonalSymmetric,
    params: EnsembleParams,
    unit_strength: bool = False,
) -> TridiagonalSymmetric:
    """Rescale h onto the trace sphere tr(F^2) = n(n-1)/2 (or 1).

    F = sqrt(target) * h / sqrt(tr h^2); eigenvectors are untouched and the
    spectrum scales by the same positive scalar.
    """
    if params.n < 2:
        raise ValueError("fixed-trace rescale needs n >= 2 (n=1 degenerates to point atoms)")
    t2 = h.trace_sq()
    if not t2 > 0:
        raise FloatingPointError("tr(h^2) = 0, cannot project onto the trace sphere")
    target = 1.0 if unit_strength else params.strength_sq
    c = np.sqrt(target / t2)
    return TridiagonalSymmetric(c * h.diag, c * h.subdiag)


def sample_ensemble(params: EnsembleParams, seed: SampleSeed) -> TridiagonalSymmetric:
    """Sample one matrix of the requested kind."""
    h = sample_beta_hermite(params, seed)
    if params.kind is EnsembleKind.FIXED_TRACE:
        return fixed_trace_rescale(h, params)
    return h
