"""Sampling of beta-Hermite tridiagonal matrices and their fixed-trace rescalings.

The Gaussian ensemble is realized directly by the tridiagonal matrix model:
independent standard normals on the diagonal and chi_{j*beta}/sqrt(2) on the
subdiagonal, where j counts positions from the bottom-right corner.  The
fixed-trace ensemble is obtained by projecting Gaussian samples onto the
sphere tr(H^2) = n(n-1)/2.

`sample_block` is the one sampler.  It draws a block of consecutive
replicates as ``diag (R, n)`` and ``sub (R, n-1)`` arrays, each row from the
Philox stream keyed by (master seed, replicate), so a row does not depend on
the block it was drawn in.  The one-matrix functions are blocks of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "EnsembleKind",
    "EnsembleParams",
    "SampleSeed",
    "TridiagonalSymmetric",
    "REPLICATE_CHUNK",
    "sample_half_chi",
    "sample_block",
    "sample_beta_hermite",
    "trace_sq_rows",
    "fixed_trace_rescale",
    "sample_ensemble",
]

_MASK64 = (1 << 64) - 1

# Replicates per block on every sampling path that loops over replicates: a
# block holds O(chunk * n) floats, so memory stays bounded at any replicate count.
REPLICATE_CHUNK = 512


def _philox_key(master_seed: int, replicate: int) -> np.ndarray:
    """The Philox key of (master_seed, replicate): each taken modulo 2^64, as uint64 words.

    Built as a uint64 array, never a list: numpy would read a list that mixes
    a word of 2^63 or more with a smaller one as float64, so distinct seeds
    would share a stream.
    """
    return np.array([master_seed & _MASK64, replicate & _MASK64], dtype=np.uint64)


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
        if not 0 < self.beta < np.inf:
            raise ValueError(f"Dyson parameter must be finite and > 0, got beta={self.beta}")

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
        return Generator(Philox(key=_philox_key(self.master_seed, self.replicate)))


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
        return float(trace_sq_rows(self.diag, self.subdiag))


def trace_sq_rows(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """tr(T^2) of each row of a block: sum(diag^2) + 2*sum(sub^2) over the last axis."""
    return np.sum(diag**2, axis=-1) + 2.0 * np.sum(sub**2, axis=-1)


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


def _rescale_rows(diag: np.ndarray, sub: np.ndarray, target: float):
    """Scale each row of a block in place onto the trace sphere tr(T^2) = target."""
    t2 = trace_sq_rows(diag, sub)
    if not np.all(t2 > 0):
        raise FloatingPointError("tr(h^2) = 0, cannot project onto the trace sphere")
    c = np.sqrt(target / t2)[:, None]
    diag *= c
    sub *= c


def sample_block(
    params: EnsembleParams, master_seed: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample replicates start..start+count-1 as ``diag (count, n)`` and ``sub (count, n-1)``.

    Row i is the matrix of replicate start+i: diag ~ N(0,1), and the j-th
    subdiagonal entry counted from the bottom-right corner is
    chi_{j*beta}/sqrt(2) (stored top-to-bottom, so sub[:, i] has j = n-1-i).
    Each row is drawn from the stream of `SampleSeed(master_seed, start+i)`
    in a fixed order, the n diagonal normals first and then the n-1 gamma
    variates top-to-bottom.  One Philox bit generator serves the block and
    is rekeyed to a fresh stream per row.  A fixed-trace block is projected
    onto the trace sphere row by row.
    """
    if start < 0 or count < 0:
        raise ValueError(f"need start >= 0 and count >= 0, got start={start}, count={count}")
    n = params.n
    fixed = params.kind is EnsembleKind.FIXED_TRACE
    if fixed and n < 2:
        raise ValueError("fixed-trace rescale needs n >= 2 (n=1 degenerates to point atoms)")
    diag = np.empty((count, n))
    sub = np.empty((count, n - 1))
    bitgen = Philox(key=_philox_key(master_seed, start))
    rng = Generator(bitgen)
    # the state before any draw (zero counter, empty buffer, no cached 32-bit
    # half); restoring it with another key starts that key's stream
    state = bitgen.state
    key = state["state"]["key"]
    shape = np.arange(n - 1, 0, -1) * params.beta / 2.0  # dof j*beta/2, top-to-bottom
    for i in range(count):
        key[1] = (start + i) & _MASK64
        bitgen.state = state
        rng.standard_normal(out=diag[i])
        if n > 1:
            rng.standard_gamma(shape, out=sub[i])
    np.sqrt(sub, out=sub)
    if fixed:
        _rescale_rows(diag, sub, params.strength_sq)
    return diag, sub


def sample_beta_hermite(params: EnsembleParams, seed: SampleSeed) -> TridiagonalSymmetric:
    """The Gaussian-ensemble tridiagonal matrix H of one replicate, whatever ``params.kind``.

    A block of one from `sample_block`; see there for the entries and the
    draw order.
    """
    gaussian = replace(params, kind=EnsembleKind.GAUSSIAN)
    diag, sub = sample_block(gaussian, seed.master_seed, seed.replicate, 1)
    return TridiagonalSymmetric(diag[0], sub[0])


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
    diag, sub = h.diag[None].copy(), h.subdiag[None].copy()
    _rescale_rows(diag, sub, 1.0 if unit_strength else params.strength_sq)
    return TridiagonalSymmetric(diag[0], sub[0])


def sample_ensemble(params: EnsembleParams, seed: SampleSeed) -> TridiagonalSymmetric:
    """Sample one matrix of the requested kind: a block of one from `sample_block`."""
    diag, sub = sample_block(params, seed.master_seed, seed.replicate, 1)
    return TridiagonalSymmetric(diag[0], sub[0])
