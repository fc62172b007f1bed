"""Eigenvalues of real symmetric tridiagonal matrices, held as arrays.

A block of R matrices is a ``diag (R, n)`` and a ``sub (R, n-1)`` array, as
`ensemble.sample_block` draws it.  Two independent routes: the production
path calls the LAPACK implicit-shift QL/QR solver on a block
(`eigenvalues_block`, one `dstev` call per row), and LAPACK's Sturm-sequence
bisection solver ``dstebz``, with its scale-relative tolerance, on one
matrix's ``(diag, sub)`` (`eigenvalues_bisect`) serves as an oracle for
cross-validation.  The Sturm count itself, batched over matrices
(`sturm_count`), also gives histograms directly: a bin's count is the
difference of the counts at its two edges (see `density.sample_density`).  Every matrix shares one row of query points,
and the pivots are (k, R) arrays, query points by matrices, in bounded
chunks of query points, so that each numpy pass runs over the long replicate
axis; it guards zero pivots with one min(|q|) per row and counts negative
pivots in a uint8 array flushed every 255 rows.  Near a soft edge it runs
only the leading rows: a certified tail, rows whose pivots it proves
negative in floating point, adds its length to the count, and a chunk in
which any matrix's certificate fails runs the tail rows as well.  Every
step of the recurrence is monotone in the query point, so pivots all
non-negative at one point stay so at every point below it, and pivots all
negative stay so above it: on a sorted grid that reaches past the block's
Gershgorin interval it runs only from the last point below the rows'
Gershgorin discs to the first above them, checks those two ends, and gives
the points beyond them 0 and n, or runs them too when a check fails
(`SturmWork` tallies the rows and points run).  `sample_spectrum` is one
replicate's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dstev

from .ensemble import EnsembleParams, SampleSeed, sample_block

__all__ = [
    "Spectrum", "EigenvalueError", "SturmWork", "eigenvalues_block", "eigenvalues_bisect",
    "sturm_count", "sample_spectrum",
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
    lapack_driver="stev")``; with no eigenvectors it ends in ``dsterf``, which
    returns each row in ascending order.  Like that wrapper, the block is
    first checked for infs and NaNs.  Each row of a C-contiguous float64
    copy of the block is a contiguous float64 view, which ``dstev`` with
    ``overwrite_d`` solves in place, so the loop reads only ``info``.
    Non-convergence raises EigenvalueError naming the failing replicate (its
    row) and its matrix rather than returning silently.
    """
    diag = np.asarray(diag, dtype=float)
    sub = np.asarray(sub, dtype=float)
    if diag.ndim != 2 or sub.shape != (len(diag), max(diag.shape[1] - 1, 0)):
        raise ValueError(f"need diag (R, n) and sub (R, n-1), got {diag.shape} and {sub.shape}")
    if not (np.isfinite(diag).all() and np.isfinite(sub).all()):
        raise ValueError("array must not contain infs or NaNs")
    w = diag.copy()  # C-contiguous; dstev overwrites its inputs: w with the eigenvalues
    if w.shape[1] > 1:
        e = sub.copy()  # and e with scratch
        for r, (wr, er) in enumerate(zip(w, e)):
            info = dstev(wr, er, 0, 1, 1)[2]  # compute_v=0, overwrite_d=1, overwrite_e=1
            if info != 0:
                raise EigenvalueError(
                    f"QL iteration did not converge for replicate {r} of the block, n={w.shape[1]} "
                    f"(LAPACK info={info}): diag={diag[r]!r} subdiag={sub[r]!r}"
                )
    return w


_FLUSH_ROWS = 255  # rows a uint8 count of negative pivots can take before it is flushed
_PASS_PAIRS = 1 << 15  # (query point, matrix) pairs per pass of the recurrence
_SCAN_PAIRS = 1 << 14  # (row, matrix) pairs per pass of the tail scan


@dataclass
class SturmWork:
    """Work `sturm_count` did, summed over calls: ``rows``, the pivot rows run, of the
    ``full_rows`` (matrices times n) that the full recurrence runs; ``pairs``, the
    (query point, matrix) pairs run, of the ``full_pairs`` asked for; and the
    ``fallbacks``, matrices whose tail certificate failed, so that the tail rows ran
    for every matrix."""

    rows: int = 0
    full_rows: int = 0
    pairs: int = 0
    full_pairs: int = 0
    fallbacks: int = 0


def _certified_tail(diag, sub_sq, x0, floor):
    """The rows of a block of matrices whose pivots at or above ``x0`` stay negative.

    Returns (K, c, ok), with c and ok None when K = n.  From row K down,
    every matrix has A_i = x0 - d_i > 0 and A_i^2 > 4 s_{i-1}, so a row maps
    a pivot at most -c to one at most -A_i + s_{i-1} / c, which is at most
    -c for any c between the roots 2 s_{i-1} / B_i and B_i / 2 of
    c^2 - A_i c + s_{i-1}, with B_i = A_i + sqrt(A_i^2 - 4 s_{i-1}).  ``c``
    (R,) is the geometric midpoint of the interval all tail rows share,
    sqrt(max s_{i-1} / B_i * min B_i), and at least ``floor``: at either end
    of it the rounded test below could fail by an ulp.  ``ok`` (R,) marks the
    matrices on which every tail row maps a pivot of -c at x0 to one at most
    -c, computed as `sturm_count` computes a pivot.  The scan runs bottom-up,
    the bottom row alone first, so that a block with no tail costs O(R), and
    its temporaries hold 2^14 (row, matrix) pairs or one row.
    """
    R, n = diag.shape
    step = max(1, _SCAN_PAIRS // max(R, 1))
    s_over_b, b_min = np.zeros(R), np.full(R, np.inf)
    tail, rows = n, 1
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN fails the tests
        while tail > 1:
            lo = max(1, tail - rows)
            a = x0 - diag[:, lo:tail]
            s = sub_sq[:, lo - 1:tail - 1]
            disc = a * a - 4.0 * s
            bad = np.flatnonzero(~((a > 0.0) & (disc > 0.0)).all(axis=0))
            cut = int(bad[-1]) + 1 if bad.size else 0  # rows lo + cut .. tail - 1 join the tail
            if cut == tail - lo:
                break
            b, s = a[:, cut:] + np.sqrt(disc[:, cut:]), s[:, cut:]
            np.maximum(s_over_b, (s / b).max(axis=1, initial=0.0), out=s_over_b)
            np.minimum(b_min, b.min(axis=1, initial=np.inf), out=b_min)
            tail, rows = lo + cut, step
            if bad.size:
                break
        if tail == n:
            return n, None, None
        c = np.maximum(np.sqrt(s_over_b) * np.sqrt(b_min), floor)
        ok = np.ones(R, dtype=bool)
        neg_c = -c[:, None]
        for lo in range(tail, n, step):
            hi = min(lo + step, n)
            q = (diag[:, lo:hi] - x0) - sub_sq[:, lo - 1:hi - 1] / neg_c
            ok &= (q <= neg_c).all(axis=1)
    return tail, c, ok


def _pivot_rows(diag, sub_sq, rows, xt, tiny, q):
    """Negative pivots of every matrix over ``rows``, a range of rows.

    ``xt`` (k, R) holds the k query points, each repeated along its row.
    ``q`` holds the (k, R) pivots of the row before ``rows`` on entry (unread
    when ``rows`` starts at row 0) and those of its last row on exit.  Returns
    the (k, R) int64 counts.
    """
    k, m = q.shape
    tiny_max = tiny.max(initial=0.0)
    row = np.empty(m)
    t = np.empty((k, m))
    neg = np.empty((k, m), dtype=bool)
    neg_u8 = neg.view(np.uint8)  # adds to acc without a cast
    acc = np.zeros((k, m), dtype=np.uint8)
    count = np.zeros((k, m), dtype=np.int64)
    held = 0  # rows counted in acc
    if rows.start == 0:
        np.copyto(row, diag[:, 0])
        np.subtract(row, xt, out=q)
        np.less(q, 0.0, out=neg)
        np.add(acc, neg_u8, out=acc)
        rows, held = rows[1:], 1
    for i in rows:
        # a NaN min fails the test as well, and takes the per-element test
        if not np.abs(q, out=t).min(initial=np.inf) >= tiny_max:
            small = t < tiny
            if small.any():
                np.copyto(q, np.where(q < 0, -tiny, tiny), where=small)
        np.copyto(row, sub_sq[:, i - 1])
        np.divide(row, q, out=t)
        np.copyto(row, diag[:, i])
        np.subtract(row, xt, out=q)
        np.subtract(q, t, out=q)
        np.less(q, 0.0, out=neg)
        np.add(acc, neg_u8, out=acc)
        held += 1
        if held == _FLUSH_ROWS:
            count += acc
            acc.fill(0)
            held = 0
    count += acc
    return count


def _run_range(x, diag, d_lo, d_hi, s_max, sub_sq):
    """The query points [lo, hi) that `sturm_count` runs the recurrence at.

    Every eigenvalue of the block lies in its Gershgorin interval, from the
    least ``d_lo - 2 sqrt(s_max)`` to the largest ``d_hi + 2 sqrt(s_max)``
    (``d_lo``, ``d_hi`` and ``s_max`` are (R,) row minima and maxima of
    ``diag`` and ``sub_sq``).  When ``x`` is strictly increasing, the range
    runs from the last point below that interval to the first one above it;
    the points beyond those two are skipped.  Anything else (an unsorted
    ``x``, no point outside the interval, a non-finite bound, which a
    non-finite entry gives, or a negative ``sub_sq`` entry) runs every point.
    When points are skipped, the interval is narrowed to the union of the
    rows' Gershgorin discs, d_i -+ (|b_{i-1}| + |b_i|), which skips the
    points between the two as well.  Only these last steps read the whole
    block, and they run only when points would be skipped.
    """
    k = len(x)

    def ends(below, above):  # the last point below the interval, and past the first above
        return (max(int(np.searchsorted(x, below)) - 1, 0),
                min(int(np.searchsorted(x, above, side="right")) + 1, k))

    with np.errstate(invalid="ignore"):  # a NaN or negative s_max gives a NaN bound
        radius = 2.0 * np.sqrt(s_max)
        below = (d_lo - radius).min(initial=np.inf)
        above = (d_hi + radius).max(initial=-np.inf)
    lo, hi = ends(below, above)
    if lo == 0 and hi == k:
        return 0, k
    if not (np.isfinite(below) and np.isfinite(above) and (x[1:] > x[:-1]).all()
            and sub_sq.min(initial=0.0) >= 0.0):
        return 0, k
    b = np.sqrt(sub_sq)
    reach = np.zeros_like(diag)  # |b_{i-1}| + |b_i|, the radius of row i's disc
    reach[:, :-1] = b
    reach[:, 1:] += b
    below = (diag - reach).min(initial=np.inf)
    reach += diag
    return ends(below, reach.max(initial=-np.inf))


def _count_points(diag, sub_sq, x, tiny, fell_back):
    """The recurrence at the query points ``x``: their (k, R) counts, and the
    pivot rows run per matrix, the leading rows or n when some chunk of query
    points ran the tail rows as well.

    Marks in ``fell_back`` the matrices whose tail certificate failed.  The
    counts are made after the certificate, so that its scan's temporaries
    and the counts are never held at once.
    """
    R, n = diag.shape
    tail, c, ok = _certified_tail(diag, sub_sq, x.min(initial=np.inf), tiny.max(initial=0.0))
    rows = tail
    count = np.empty((len(x), R), dtype=np.int64)
    step = max(1, _PASS_PAIRS // max(R, 1))
    for lo in range(0, len(x), step):
        xt = np.repeat(x[lo:lo + step, None], R, axis=1)  # a (k, 1) broadcast runs ~10% slower
        q = np.empty_like(xt)
        part = _pivot_rows(diag, sub_sq, range(tail), xt, tiny, q)
        if tail < n:
            sure = ok & (q <= -c).all(axis=0)
            if sure.all():
                part += n - tail
            else:
                fell_back |= ~sure
                rows = n
                part += _pivot_rows(diag, sub_sq, range(tail, n), xt, tiny, q)
        count[lo:lo + step] = part
    return count, rows


def sturm_count(diag: np.ndarray, sub_sq: np.ndarray, x: np.ndarray,
                work: SturmWork | None = None) -> np.ndarray:
    """Eigenvalues strictly below each query point, for a batch of matrices.

    ``diag`` is (R, n) and ``sub_sq`` (R, n-1): the diagonals and squared
    subdiagonals of R tridiagonal matrices.  ``x`` is one row of query points,
    a scalar or shape (k,), shared by every matrix; a 2-D ``x`` raises
    ValueError.  Returns the (R, k) int64 counts, each in O(n) by the LDL^T
    pivot recurrence q_i = (d_i - x) - b_i^2 / q_{i-1}, which is monotone in x
    in floating point (Demmel, Dhillon & Ren 1995); the count is the number of
    negative q_i.  ``work``, when given, adds up the pivot rows and the
    (query point, matrix) pairs run.

    The pivots are held as (k, R) arrays, so that every pass runs over the
    long replicate axis: row i's diagonal and squared-subdiagonal column are
    copied in turn into one (R,) buffer, which broadcasts along the k query
    points, and every pass writes into a buffer made once.  The query points
    go through in chunks of at most 2^15 (point, matrix) pairs, so that the
    buffers stay bounded whatever k is.  A pivot with |q| below its matrix's
    ``tiny`` (a relative safeguard that keeps the recurrence defined) becomes
    +-tiny before the division; one min(|q|) against the largest ``tiny``
    rules that out for a whole row, so the per-element test runs only when the
    min falls below it.  Negative pivots are counted in a uint8 array flushed
    into the int64 counts every 255 rows.

    Query points outside the spectrum are run only when they must be.  Each
    step of the recurrence is monotone in x for finite entries and
    b_i^2 >= 0: fl(d_i - x); the guard, which sends |q| < tiny to -tiny when
    q < 0 and to +tiny otherwise (0 and -0.0 alike); fl(b_i^2 / q), falling
    in q on either side of 0; and fl(u - t).  So if every pivot at x_a is
    non-negative, the pivots at any x <= x_a are at least as large, and none
    is negative; if every pivot at x_b is negative, those at any x >= x_b are
    at most as large.  When ``x`` is strictly increasing and reaches past the
    block's Gershgorin interval, whose bounds come from the row maxima and
    minima ``tiny`` reads anyway, the recurrence runs from the last point
    below the rows' Gershgorin discs to the first one above them
    (`_run_range`).  The points below get count 0 when no matrix has a
    negative pivot at the lowest point run, and those above get n when every
    matrix has n negative pivots at the highest; a side whose end check fails
    runs its points as well.

    Rows below the eigenvalues near the smallest query point x0 are run only
    when they must be (a certified tail).  From a row K down, every matrix has
    x0 - d_i > 0 and (x0 - d_i)^2 > 4 b_{i-1}^2, and a matrix is certified
    when each of those rows, computed as here, maps a pivot of -c at x0 to one
    at most -c, and every query point's pivot at row K-1 is at most -c, for a
    c of its own at least the largest ``tiny``.  Each rounded operation is
    monotone, so every tail pivot then stays at most -c: negative and never
    guarded, and the count is the leading rows' count plus n - K, the integer
    the full recurrence gives.  When any matrix of a chunk of query points is
    not certified, the whole chunk runs the tail rows, which give every
    certified matrix that same n - K.
    """
    diag = np.asarray(diag, dtype=float)
    sub_sq = np.asarray(sub_sq, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ValueError(f"need one row of query points, a scalar or shape (k,), got {x.shape}")
    x = x.reshape(-1)
    R, n = diag.shape
    k = len(x)
    d_hi, d_lo = diag.max(axis=1), diag.min(axis=1)
    s_max = sub_sq.max(axis=1, initial=0.0)
    # relative safeguard, per matrix, keeps the recurrence defined when a pivot hits zero;
    # max |d| as max(max d, -min d), with no (R, n) temporary
    tiny = np.finfo(float).tiny * (np.maximum(d_hi, -d_lo) + s_max + 1.0) + 1e-300
    lo, hi = _run_range(x, diag, d_lo, d_hi, s_max, sub_sq)
    fell_back = np.zeros(R, dtype=bool)
    count, rows = _count_points(diag, sub_sq, x[lo:hi], tiny, fell_back)
    pairs = hi - lo
    if lo > 0 or hi < k:
        below = np.zeros((lo, R), dtype=np.int64)
        above = np.full((k - hi, R), n, dtype=np.int64)
        if count[0].any():  # a negative pivot at the lowest point run: run the points below
            below, r = _count_points(diag, sub_sq, x[:lo], tiny, fell_back)
            rows, pairs = max(rows, r), pairs + lo
        if (count[-1] != n).any():  # a pivot not negative at the highest: run those above
            above, r = _count_points(diag, sub_sq, x[hi:], tiny, fell_back)
            rows, pairs = max(rows, r), pairs + k - hi
        count = np.concatenate([below, count, above])
    if work is not None:
        work.rows += rows * R
        work.full_rows += R * n
        work.pairs += pairs * R
        work.full_pairs += k * R
        work.fallbacks += int(np.count_nonzero(fell_back))
    return count.T  # (R, k)


def eigenvalues_bisect(diag, sub) -> np.ndarray:
    """Eigenvalues of one matrix by LAPACK ``dstebz``: Sturm counts and bisection.

    ``diag`` (n,) and ``sub`` (n-1,) hold the matrix's diagonal and
    subdiagonal; the eigenvalues come back sorted, as an (n,) array, through
    scipy's ``eigvalsh_tridiagonal(..., lapack_driver="stebz")``, to
    ``dstebz``'s default tolerance eps * ||T||_1, which scales with the matrix.
    Like `eigenvalues_block`, infs and NaNs raise ValueError.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(sub, dtype=float)
    if d.ndim != 1 or e.shape != (len(d) - 1,):
        raise ValueError(f"need diag (n,) and sub (n-1,), got {d.shape} and {e.shape}")
    return eigvalsh_tridiagonal(d, e, lapack_driver="stebz")


def sample_spectrum(params: EnsembleParams, seed: SampleSeed) -> Spectrum:
    """Sample one replicate and return its spectrum: `sample_block` of a range of one."""
    block = sample_block(params, seed.master_seed, seed.replicate, 1)
    return Spectrum(eigenvalues_block(*block)[0], params, seed)
