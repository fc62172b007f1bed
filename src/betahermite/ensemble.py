"""Sampling of beta-Hermite tridiagonal matrices and their fixed-trace rescalings.

The Gaussian ensemble is realized directly by the tridiagonal matrix model:
independent standard normals on the diagonal and chi_{j*beta}/sqrt(2) on the
subdiagonal, where j counts positions from the bottom-right corner.  The
fixed-trace ensemble is obtained by projecting Gaussian samples onto the
sphere tr(H^2) = n(n-1)/2, `trace_sphere`.

`sample_block` is the one sampler, and its arrays are the one matrix
representation.  The replicates fall into aligned blocks of
``REPLICATE_CHUNK``, and the rows of block b = replicate // REPLICATE_CHUNK
come from one Philox stream keyed by (master seed, b) (`STREAM_LAYOUT`).  A
call draws consecutive rows of one block as ``diag (R, n)`` and
``sub (R, n-1)`` arrays, and a row does not depend on the range it was
requested in; a single matrix is a range of one.  `replicate_blocks` is the
one walk over many replicates and the only loop over stream blocks: it yields
replicates 0..count-1 (or from a block's first replicate on) one block at a
time, so every caller's memory stays bounded at any replicate count.
`EnsembleParams` refuses a fixed-trace n = 1, whose trace sphere is the
point 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "EnsembleKind",
    "EnsembleParams",
    "SampleSeed",
    "REPLICATE_CHUNK",
    "STREAM_LAYOUT",
    "big_l",
    "replicate_blocks",
    "sample_block",
    "trace_sphere",
    "trace_sq_rows",
]

_MASK64 = (1 << 64) - 1

# Replicates per stream block, and the most `replicate_blocks` yields at once: a
# block holds O(chunk * n) floats, so memory stays bounded at any replicate count.
REPLICATE_CHUNK = 512

# The stream layout that `sample_block` draws; `sample` and `density` sidecars record it.
STREAM_LAYOUT = f"philox key (seed, replicate // {REPLICATE_CHUNK})"


def _philox_key(master_seed: int, block: int) -> np.ndarray:
    """The Philox key of (master_seed, block): each taken modulo 2^64, as uint64 words.

    Built as a uint64 array, never a list: numpy would read a list that mixes
    a word of 2^63 or more with a smaller one as float64, so distinct seeds
    would share a stream.
    """
    return np.array([master_seed & _MASK64, block & _MASK64], dtype=np.uint64)


def trace_sphere(n: int) -> float:
    """tr(H^2) = n(n-1)/2 of the sphere the fixed-trace sampler projects onto."""
    return n * (n - 1) / 2.0


def big_l(n: int, beta: float) -> float:
    """L = n/2 + beta n(n-1)/4, half the Gaussian mean of tr H^2."""
    return n / 2.0 + beta * n * (n - 1) / 4.0


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
        if self.kind is EnsembleKind.FIXED_TRACE and self.n < 2:
            raise ValueError("fixed-trace rescale needs n >= 2 (n=1 degenerates to point atoms)")
        # 2*beta*n bounds the gamma shapes j*beta/2 and the bulk scale's square
        if not (self.beta > 0 and np.isfinite(2.0 * float(self.beta) * self.n)):
            raise ValueError(
                f"Dyson parameter must be > 0 with 2*beta*n finite, got beta={self.beta}"
            )


@dataclass(frozen=True)
class SampleSeed:
    """Key of one deterministic replicate: (master_seed, replicate).

    The replicate is a pure function of this key (see `sample_block`), so any
    replicate can be regenerated in isolation; `tridiag.sample_spectrum` takes it.
    """

    master_seed: int
    replicate: int = 0

    def __post_init__(self):
        if self.replicate < 0:
            raise ValueError("replicate index must be non-negative")


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


# Values per draw when a block's stream is advanced past rows outside the range
_SKIP_VALUES = 1 << 16


def _skip_rows(draw, rows: int, width: int):
    """Advance a stream past ``rows`` rows of ``width`` values through a bounded buffer."""
    step = max(1, _SKIP_VALUES // width)
    scratch = np.empty((min(rows, step), width))
    for done in range(0, rows, step):
        draw(out=scratch[:min(step, rows - done)])


def sample_block(
    params: EnsembleParams, master_seed: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample replicates start..start+count-1 of one stream block as ``diag (count, n)``
    and ``sub (count, n-1)``.

    Row i is the matrix of replicate start+i: diag ~ N(0,1), and the j-th
    subdiagonal entry counted from the bottom-right corner is
    chi_{j*beta}/sqrt(2) (stored top-to-bottom, so sub[:, i] has j = n-1-i).
    Replicate r is row r % REPLICATE_CHUNK of block b = r // REPLICATE_CHUNK,
    whose rows come from the Philox stream keyed by (master_seed, b): the
    block's (REPLICATE_CHUNK, n) diagonal normals first, then its
    (REPLICATE_CHUNK, n-1) gamma variates of shape j*beta/2, both in row-major
    order, so a row does not depend on start and count.  A range that leaves
    its block raises ValueError; `replicate_blocks` walks many blocks.  The
    range is drawn straight into the output with one normal and one gamma
    call; the block's other rows are drawn through a bounded buffer and
    dropped, and the gammas stop at the range's end, so memory is O(count * n).
    A fixed-trace block is projected onto the trace sphere row by row.
    """
    block, lo = divmod(start, REPLICATE_CHUNK)
    if start < 0 or count < 0 or lo + count > REPLICATE_CHUNK:
        raise ValueError(f"need 0 <= start and 0 <= count with the range inside one stream "
                         f"block of {REPLICATE_CHUNK}, got start={start}, count={count}")
    n = params.n
    diag, sub = np.empty((count, n)), np.empty((count, n - 1))
    rng = Generator(Philox(key=_philox_key(master_seed, block)))
    _skip_rows(rng.standard_normal, lo, n)
    rng.standard_normal(out=diag)
    _skip_rows(rng.standard_normal, REPLICATE_CHUNK - lo - count, n)
    if n > 1:
        gamma = partial(rng.standard_gamma, np.arange(n - 1, 0, -1) * params.beta / 2.0)
        _skip_rows(gamma, lo, n - 1)
        gamma(out=sub)
    np.sqrt(sub, out=sub)
    if params.kind is EnsembleKind.FIXED_TRACE:
        _rescale_rows(diag, sub, trace_sphere(n))
    return diag, sub


def replicate_blocks(params: EnsembleParams, master_seed: int, count: int, start: int = 0):
    """Yield ``(first, diag, sub)`` over replicates start..count-1, one stream block's
    rows at a time.

    Each chunk is one `sample_block` call over one whole stream block, the last
    one cut at ``count``, so every block is drawn once and a chunk holds at most
    REPLICATE_CHUNK rows.  ``first`` is the replicate of the chunk's first row.
    ``start`` is the first replicate of a block, a multiple of REPLICATE_CHUNK,
    so that the walk can begin at any block (one that does not begin a block
    raises ValueError).
    """
    for first in range(start, count, REPLICATE_CHUNK):
        yield first, *sample_block(params, master_seed, first,
                                   min(REPLICATE_CHUNK, count - first))
