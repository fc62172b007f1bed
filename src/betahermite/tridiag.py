"""Eigenvalues of real symmetric tridiagonal matrices, held as arrays.

A block of R matrices is a ``diag (R, n)`` and a ``sub (R, n-1)`` array, as
`ensemble.sample_block` draws it.  Two independent routes: the production
path calls the LAPACK implicit-shift QL/QR solver on a block
(`eigenvalues_block`, one `dstev` call per row), and a Sturm-sequence
bisection solver on one matrix's ``(diag, sub)`` (`eigenvalues_bisect`)
serves as a slow oracle for cross-validation.  The Sturm count itself,
batched over matrices, also gives histograms directly: a bin's count is the
difference of the counts at its two edges (see `density.sample_density`).
`sample_spectrum` is one replicate's spectrum, a range of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .ensemble import EnsembleParams, SampleSeed, sample_block

__all__ = [
    "Spectrum", "EigenvalueError", "eigenvalues_block", "eigenvalues_bisect", "sturm_count",
    "sample_spectrum",
]


class EigenvalueError(RuntimeError):
    """QL/QR iteration failed to converge; carries the offending matrix."""


@dataclass
class Spectrum:
    """Sorted eigenvalues of one replicate, with the parameters and seed that drew it."""

    values: np.ndarray
    params: EnsembleParams
    seed: SampleSeed


def eigenvalues_block(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of every matrix of a block, as an (R, n) array.

    Row r's matrix has diagonal ``diag[r]`` and subdiagonal ``sub[r]``.  Each
    row goes through LAPACK ``dstev`` (implicit-shift QL/QR with Wilkinson
    shifts), the routine behind scipy's ``eigh_tridiagonal(...,
    lapack_driver="stev")``, fetched once per block; like that wrapper, the
    block is first checked for infs and NaNs.  Non-convergence raises
    EigenvalueError naming the failing replicate (its row) and its matrix
    rather than returning silently.
    """
    diag = np.asarray(diag, dtype=float)
    sub = np.asarray(sub, dtype=float)
    if diag.ndim != 2 or sub.shape != (len(diag), max(diag.shape[1] - 1, 0)):
        raise ValueError(f"need diag (R, n) and sub (R, n-1), got {diag.shape} and {sub.shape}")
    if not (np.isfinite(diag).all() and np.isfinite(sub).all()):
        raise ValueError("array must not contain infs or NaNs")
    w = diag.copy()  # dstev overwrites its inputs: w with the eigenvalues, e with scratch
    if w.shape[1] > 1:
        e = sub.copy()
        stev, = get_lapack_funcs(("stev",), (w, e))
        for r in range(len(w)):
            w[r], _, info = stev(w[r], e[r], compute_v=0, overwrite_d=1, overwrite_e=1)
            if info != 0:
                raise EigenvalueError(
                    f"QL iteration did not converge for replicate {r} of the block, n={w.shape[1]} "
                    f"(LAPACK info={info}): diag={diag[r]!r} subdiag={sub[r]!r}"
                )
    w.sort(axis=1)
    return w


def sturm_count(diag: np.ndarray, sub_sq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues strictly below each query point, for a batch of matrices.

    ``diag`` is (R, n) and ``sub_sq`` (R, n-1): the diagonals and squared
    subdiagonals of R tridiagonal matrices.  ``x`` broadcasts to (R, k): one
    row of query points per matrix, or one row shared by all.  Returns the
    (R, k) counts, each in O(n) by the LDL^T pivot recurrence, which is
    monotone in x in floating point (Demmel, Dhillon & Ren 1995).
    """
    n = diag.shape[1]
    # relative safeguard, per matrix, keeps the recurrence defined when a pivot hits zero
    scale = np.max(np.abs(diag), axis=1) + np.max(sub_sq, axis=1, initial=0.0) + 1.0
    tiny = (np.finfo(float).tiny * scale + 1e-300)[:, None]
    q = diag[:, :1] - x
    count = (q < 0).astype(np.int64)
    for i in range(1, n):
        small = np.abs(q) < tiny
        if small.any():
            q = np.where(small, np.where(q < 0, -tiny, tiny), q)
        q = diag[:, i, None] - x - sub_sq[:, i - 1, None] / q
        count += q < 0
    return count


def eigenvalues_bisect(diag, sub, abs_tol: float = 1e-12) -> np.ndarray:
    """Eigenvalues of one matrix by Sturm counting and bisection on Gershgorin intervals.

    ``diag`` (n,) and ``sub`` (n-1,) hold the matrix's diagonal and
    subdiagonal; the eigenvalues come back sorted, as an (n,) array.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(sub, dtype=float)
    if d.ndim != 1 or e.shape != (len(d) - 1,):
        raise ValueError(f"need diag (n,) and sub (n-1,), got {d.shape} and {e.shape}")
    if not abs_tol > 0:
        raise ValueError("abs_tol must be > 0")
    n = len(d)
    if n == 1:
        return d.copy()
    r = np.zeros(n)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    lo_all = float(np.min(d - r))
    hi_all = float(np.max(d + r))
    sub_sq = e * e

    lo = np.full(n, lo_all)
    hi = np.full(n, hi_all)
    k = np.arange(n)
    # bisection on counts; converges for repeated eigenvalues too
    max_iter = int(np.ceil(np.log2(max((hi_all - lo_all) / abs_tol, 1.0)))) + 4
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        c = sturm_count(d[None], sub_sq[None], mid)[0]
        below = c <= k
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) <= abs_tol:
            break
    return 0.5 * (lo + hi)


def sample_spectrum(params: EnsembleParams, seed: SampleSeed) -> Spectrum:
    """Sample one replicate and return its spectrum: `sample_block` of a range of one."""
    block = sample_block(params, seed.master_seed, seed.replicate, 1)
    return Spectrum(eigenvalues_block(*block)[0], params, seed)
