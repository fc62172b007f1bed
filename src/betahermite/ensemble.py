"""Sampling of beta-Hermite tridiagonal matrices and their fixed-trace rescalings.

The Gaussian ensemble is realized directly by the tridiagonal matrix model:
independent standard normals on the diagonal and chi_{j*beta}/sqrt(2) on the
subdiagonal, where j counts positions from the bottom-right corner.  The
fixed-trace ensemble is obtained by projecting Gaussian samples onto the
sphere tr(H^2) = n(n-1)/2, `trace_sphere`.

`sample_block` is the one sampler, and its arrays are the one matrix
representation.  It draws a block of consecutive replicates as
``diag (R, n)`` and ``sub (R, n-1)`` arrays, each row from the Philox stream
keyed by (master seed, replicate), so a row does not depend on the block it
was drawn in; a single matrix is a block of one.
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
    "REPLICATE_CHUNK",
    "sample_block",
    "trace_sphere",
    "trace_sq_rows",
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


def trace_sphere(n: int) -> float:
    """tr(H^2) = n(n-1)/2 of the sphere the fixed-trace sampler projects onto."""
    return n * (n - 1) / 2.0


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
        # 2*beta*n bounds the gamma shapes j*beta/2 and the bulk scale's square
        if not (self.beta > 0 and np.isfinite(2.0 * float(self.beta) * self.n)):
            raise ValueError(
                f"Dyson parameter must be > 0 with 2*beta*n finite, got beta={self.beta}"
            )

    @property
    def strength_sq(self) -> float:
        """Canonical fixed-trace target `trace_sphere(n)`."""
        return trace_sphere(self.n)


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


def trace_sq_rows(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """tr(T^2) of each row of a block: sum(diag^2) + 2*sum(sub^2) over the last axis."""
    return np.sum(diag**2, axis=-1) + 2.0 * np.sum(sub**2, axis=-1)


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
