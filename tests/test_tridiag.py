"""Eigensolver contracts and the QL-vs-bisection mutual oracle."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betahermite.density import Regime, grid_to_lambda
from betahermite.ensemble import EnsembleKind, EnsembleParams, SampleSeed, sample_block, trace_sq_rows
from betahermite.tridiag import (EigenvalueError, SturmWork, eigenvalues_bisect, eigenvalues_block,
                                 sturm_count)


def random_tridiag(rng, n, scale=2.0):
    """(diag, sub) of a random symmetric tridiagonal matrix."""
    return scale * rng.standard_normal(n), np.abs(scale * rng.standard_normal(n - 1)) + 1e-3


def solve_one(diag, sub):
    """One matrix's spectrum: `eigenvalues_block` of a block of one."""
    return eigenvalues_block(np.asarray(diag, dtype=float)[None],
                             np.asarray(sub, dtype=float)[None])[0]


class TestExamples:
    def test_two_by_two_symmetric(self):
        ev = solve_one([0.0, 0.0], [1.0])
        assert ev == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_diagonal_matrix(self):
        ev = solve_one([2.0, 2.0, 2.0], [0.0, 0.0])
        assert ev == pytest.approx([2.0, 2.0, 2.0], abs=1e-14)

    def test_n1(self):
        assert solve_one([3.5], []) == pytest.approx([3.5])

    def test_bisect_two_by_two(self):
        ev = eigenvalues_bisect([0.0, 0.0], [1.0])
        assert ev == pytest.approx([-1.0, 1.0], abs=1e-11)

    def test_bisect_hermite3(self):
        # Jacobi matrix of H_3: zeros at 0, +-sqrt(3/2)
        ev = eigenvalues_bisect(np.zeros(3), np.sqrt(np.arange(1, 3) / 2.0))
        r = np.sqrt(1.5)
        assert ev == pytest.approx([-r, 0.0, r], abs=1e-11)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_fixed_5x5_against_bisect(self, rng, scale):
        # the bisection tolerance scales with the matrix, so the agreement is relative
        d, e = random_tridiag(rng, 5)
        a = solve_one(scale * d, scale * e)
        b = eigenvalues_bisect(scale * d, scale * e)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_batched_sturm_count_matches_stev():
    rng = np.random.default_rng(17)
    mats = [random_tridiag(rng, 15) for _ in range(6)]
    diag = np.array([d for d, _ in mats])
    sub_sq = np.array([e**2 for _, e in mats])
    x = np.linspace(-8.0, 8.0, 17)
    batched = sturm_count(diag, sub_sq, x)
    for (d, e), c in zip(mats, batched):
        assert np.array_equal(c, sturm_count(d[None], e[None] ** 2, x)[0])
        ev = solve_one(d, e)
        assert np.array_equal(c, np.searchsorted(ev, x, side="left"))
    # criterion 8's 100 random 20x20 matrices, each queried below its spectrum,
    # between each pair of its consecutive dstev eigenvalues and above it
    rng = np.random.default_rng(808)
    diag, sub = (np.array(m) for m in zip(*(random_tridiag(rng, 20) for _ in range(100))))
    for d, e, ev in zip(diag, sub, eigenvalues_block(diag, sub)):
        x = np.concatenate([[ev[0] - 1.0], 0.5 * (ev[:-1] + ev[1:]), [ev[-1] + 1.0]])
        assert sturm_count(d[None], e[None] ** 2, x).tolist() == [list(range(21))]


def test_sturm_count_refuses_a_grid_per_matrix():
    # one row of query points is shared by every matrix
    diag, sub_sq = np.zeros((2, 3)), np.ones((2, 2))
    with pytest.raises(ValueError, match=r"\(2, 4\)"):
        sturm_count(diag, sub_sq, np.zeros((2, 4)))


def sturm_count_reference(diag, sub_sq, x):
    """The pivot recurrence on (R, k) arrays, one broadcast pass per step: the same
    expressions as `sturm_count` in the other layout, its count-for-count oracle."""
    n = diag.shape[1]
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


def sturm_case(n, reps, k, seed, scale, kind, x_shape):
    """(diag, sub_sq, x) of ``reps`` matrices of order n, scaled by ``scale``.

    ``kind`` picks the matrices: "random", "zero-sub" (about half the
    subdiagonal entries 0), "path" (diagonal 0, subdiagonal 1, so x = 0, +-1
    hit exact eigenvalues at some n) or "neg-zero" (about half the diagonal
    entries -0.0).  The query points mix normal draws, diagonal entries, 0,
    -0.0, +-1 and one point above every eigenvalue, so that counts pass 255.
    """
    rng = np.random.default_rng(seed)
    diag, sub = rng.standard_normal((reps, n)), rng.standard_normal((reps, n - 1))
    if kind == "zero-sub":
        sub[rng.random(sub.shape) < 0.5] = 0.0
    elif kind == "path":
        diag[:], sub[:] = 0.0, 1.0
    elif kind == "neg-zero":
        diag[rng.random(diag.shape) < 0.5] = -0.0
    pool = np.concatenate([3.0 * rng.standard_normal(8), diag.ravel()[:8],
                           [0.0, -0.0, 1.0, -1.0, 1e3]])
    x = rng.choice(pool, size={"()": (), "(k,)": (k,)}[x_shape])
    return scale * diag, np.square(scale * sub), scale * x


class TestSturmCountOracle:
    """`sturm_count` against the (R, k) recurrence: same counts, shape and dtype.

    n runs across the uint8 counter's 255-row flush.  Zero subdiagonals,
    path matrices and -0.0 diagonals put zero pivots under the zero-pivot
    guard at every scale; at 1e-300 the squared subdiagonals underflow to 0
    and most pivots fall below the guard's ``tiny``, and 1e150 puts the
    squared subdiagonals near 1e300.
    """

    @given(
        n=st.sampled_from([1, 2, 3, 255, 256, 257, 511, 600]),
        reps=st.integers(1, 5),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-300, 1e150]),
        kind=st.sampled_from(["random", "zero-sub", "path", "neg-zero"]),
        x_shape=st.sampled_from(["()", "(k,)"]),
    )
    @example(n=600, reps=3, k=4, seed=0, scale=1.0, kind="path", x_shape="(k,)")
    @example(n=257, reps=2, k=5, seed=1, scale=1e-300, kind="zero-sub", x_shape="(k,)")
    @example(n=511, reps=4, k=3, seed=2, scale=1e150, kind="neg-zero", x_shape="(k,)")
    @example(n=2, reps=1, k=1, seed=3, scale=1.0, kind="path", x_shape="()")
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_the_reference(self, n, reps, k, seed, scale, kind, x_shape):
        diag, sub_sq, x = sturm_case(n, reps, k, seed, scale, kind, x_shape)
        got = sturm_count(diag, sub_sq, x)
        want = sturm_count_reference(diag, sub_sq, x)
        assert got.shape == want.shape and got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    @given(
        n=st.sampled_from([1, 2, 3, 100, 400]),
        beta=st.sampled_from([0.7, 2.0, 5.0]),
        kind=st.sampled_from(list(EnsembleKind)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-300, 1e150]),
        edit=st.sampled_from(["none", "zero-sub", "neg-zero", "x-at-diag", "diag-at-x"]),
    )
    @example(n=400, beta=2.0, kind=EnsembleKind.GAUSSIAN, seed=0, scale=1.0, edit="none")
    @example(n=100, beta=0.7, kind=EnsembleKind.FIXED_TRACE, seed=1, scale=1e150, edit="zero-sub")
    @example(n=400, beta=5.0, kind=EnsembleKind.GAUSSIAN, seed=2, scale=1.0, edit="diag-at-x")
    @settings(max_examples=40, deadline=None)
    def test_certified_tail_counts_equal_the_reference(self, n, beta, kind, seed, scale, edit):
        # the edge-n400 grid, whose points sit above the spectra of the trailing rows
        assume(n > 1 or kind is EnsembleKind.GAUSSIAN)  # the trace sphere needs n >= 2
        params = EnsembleParams(n, beta, kind)
        diag, sub = sample_block(params, seed, 0, 16)
        x = grid_to_lambda(np.linspace(-5.0, 2.0, 29), Regime.EDGE, params)
        tail_row = (3 * n) // 4
        if edit == "zero-sub":
            sub[:, ::2] = 0.0
        elif edit == "neg-zero":
            diag[:, 1::2] = -0.0
        elif edit == "x-at-diag":  # a query point on a trailing diagonal entry
            x = np.sort(np.append(x, diag[5, tail_row]))
        elif edit == "diag-at-x":  # a trailing row with x0 - d_i = 0 in one matrix
            diag[3, tail_row] = x[0]
        diag, sub_sq, x = scale * diag, np.square(scale * sub), scale * x
        work = SturmWork()
        got = sturm_count(diag, sub_sq, x, work)
        assert np.array_equal(got, sturm_count_reference(diag, sub_sq, x))
        assert work.full_rows == 16 * n and 0 <= work.fallbacks <= 16
        if n >= 100 and scale == 1.0 and edit in ("none", "neg-zero"):
            assert work.rows < work.full_rows  # the certificate engaged

    def test_small_negative_pivot_entering_the_tail_falls_back(self):
        # Rows 2 and 3 (d = -10, b^2 = 1) form the tail at x = 0.  The first
        # matrix enters it with q_1 = 1 - 1.001 = -0.001, above -c = -1, so
        # that q_2 = -10 + 1000 is positive: counting the tail as two negative
        # pivots would give 3.  The second matrix enters with q_1 = -11.001.
        # Both matrices then run the tail rows, as they share a chunk of points.
        diag = np.array([[1.0, 1.0, -10.0, -10.0], [1.0, -10.0, -10.0, -10.0]])
        sub_sq = np.array([[1.001, 1.0, 1.0], [1.001, 1.0, 1.0]])
        work = SturmWork()
        got = sturm_count(diag, sub_sq, [0.0, 0.5], work)
        assert got.tolist() == [[2, 3], [3, 3]]
        assert np.array_equal(got, sturm_count_reference(diag, sub_sq, np.array([0.0, 0.5])))
        assert (work.rows, work.full_rows, work.fallbacks) == (2 * 2 + 2 * 2, 8, 1)

    def test_zero_subdiagonal_tail_is_certified(self):
        # a diagonal matrix below every query point: all rows but the first are the
        # tail, and c must not drop to 0, which fails the check as 0 / -0.0 is NaN
        work = SturmWork()
        got = sturm_count(np.full((3, 50), -10.0), np.zeros((3, 49)), [0.0, 1.0], work)
        assert got.tolist() == [[50, 50]] * 3
        assert (work.rows, work.full_rows, work.fallbacks) == (3, 150, 0)

    def test_a_grid_below_the_spectrum_runs_every_row(self):
        diag, sub = sample_block(EnsembleParams(30, 2.0), 4, 0, 8)
        work = SturmWork()
        sturm_count(diag, np.square(sub), np.linspace(-20.0, 20.0, 9), work)
        assert (work.rows, work.full_rows, work.fallbacks) == (240, 240, 0)

    def test_query_chunks_bound_the_memory(self):
        # 20,001 query points by 512 matrices: beyond the (R, k) int64 counts it
        # returns, the kernel holds a bounded chunk of pairs, not ~34 B per pair
        import tracemalloc

        diag, sub = sample_block(EnsembleParams(2, 2.0), 6, 0, 512)
        x = np.linspace(-4.0, 4.0, 20_001)
        tracemalloc.start()
        try:
            got = sturm_count(diag, np.square(sub), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 8 * 2**20
        assert np.array_equal(got, sturm_count_reference(diag, np.square(sub), x))

    def test_path_graph_eigenvalues(self):
        # diagonal 0, subdiagonal 1, n = 2: eigenvalues exactly -1 and 1
        for x, want in ((-1.0, 0), (1.0, 1), (0.0, 1), (-0.0, 1)):
            assert sturm_count(np.zeros((1, 2)), np.ones((1, 1)), x).tolist() == [[want]]

    def test_negative_zero_pivot_is_not_negative(self):
        # -0.0 - 0.0 is -0.0, a pivot whose sign bit is set but which is not below 0
        diag, sub_sq = np.full((1, 2), -0.0), np.zeros((1, 1))
        assert sturm_count(diag, sub_sq, 0.0).tolist() == [[0]]
        assert sturm_count(diag[:, :1], sub_sq[:, :0], [0.0, 1.0]).tolist() == [[0, 1]]

    def test_counts_pass_the_flush(self):
        diag, sub_sq = np.zeros((2, 600)), np.ones((2, 599))
        got = sturm_count(diag, sub_sq, [-3.0, 0.5, 3.0])
        assert np.array_equal(got, sturm_count_reference(diag, sub_sq, np.array([-3.0, 0.5, 3.0])))
        assert got[:, -1].tolist() == [600, 600]


class TestPointsOutsideTheSpectrum:
    """`sturm_count` on grids that start below and end above every spectrum of the
    block: the points beyond its rows' Gershgorin discs are filled in with 0 and n,
    count for count as the reference runs them."""

    @given(
        n=st.sampled_from([1, 2, 3, 20, 300]),
        reps=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-150, 1e150]),
        kind=st.sampled_from(["random", "zero-sub", "path", "neg-zero"]),
        query=st.sampled_from(["grid", "eigenvalues", "unsorted", "end-check-fails"]),
    )
    @example(n=1, reps=1, seed=0, scale=1.0, kind="random", query="grid")
    @example(n=2, reps=3, seed=1, scale=1e-150, kind="zero-sub", query="eigenvalues")
    @example(n=20, reps=4, seed=2, scale=1e150, kind="neg-zero", query="end-check-fails")
    @example(n=3, reps=2, seed=3, scale=1.0, kind="path", query="eigenvalues")
    @example(n=300, reps=2, seed=4, scale=1.0, kind="random", query="unsorted")
    @settings(max_examples=60, deadline=None)
    def test_trimmed_counts_equal_the_reference(self, n, reps, seed, scale, kind, query):
        from unittest import mock

        from betahermite import tridiag

        diag, sub_sq, _ = sturm_case(n, reps, 1, seed, scale, kind, "()")
        # the block's Gershgorin ends, the same floats as sturm_count's, are query points
        radius = 2.0 * np.sqrt(sub_sq.max(axis=1, initial=0.0))
        lo, hi = (diag.min(axis=1) - radius).min(), (diag.max(axis=1) + radius).max()
        w = max(hi - lo, scale)
        x = np.unique(np.concatenate([lo - w * np.array([3.0, 2.0, 1.0]), np.linspace(lo, hi, 9),
                                      hi + w * np.array([1.0, 2.0, 3.0])]))  # lo may be hi
        if query == "eigenvalues":  # every dstev eigenvalue of the first matrix, 0 and -0.0
            ev = eigenvalues_block(diag[:1], np.sqrt(sub_sq[:1]))[0]
            x = np.unique(np.concatenate([x, ev, [0.0, -0.0]]))
        # points lie beyond the interval, so the run narrows to the rows' Gershgorin
        # discs, the same floats as sturm_count's: from the last point below them to
        # the first above
        reach = np.zeros_like(diag)
        reach[:, :-1] = np.sqrt(sub_sq)
        reach[:, 1:] += np.sqrt(sub_sq)
        run = (int(np.searchsorted(x, (diag - reach).min())) - 1,
               int(np.searchsorted(x, (diag + reach).max(), side="right")) + 1)
        if query == "unsorted":  # the highest point first and the lowest last
            x[[0, -1]], run = x[[-1, 0]], (0, len(x))
        want = sturm_count_reference(diag, sub_sq, x)
        work = SturmWork()
        with mock.patch.object(tridiag, "_run_range", wraps=tridiag._run_range) as ranged:
            if query == "end-check-fails":  # both ends inside the interval, 7 points at n = 1
                m = min(4, (len(x) - 1) // 2)
                run = (m, len(x) - m)
                ranged.side_effect = lambda *args: run
            got = sturm_count(diag, sub_sq, x, work)
        assert ranged.call_count == 1
        assert np.array_equal(got, want)
        k = len(x)
        ran = run[1] - run[0]
        ran += run[0] if want[:, run[0]].any() else 0  # the lower end check fails
        ran += k - run[1] if (want[:, run[1] - 1] != n).any() else 0  # the upper one
        assert (work.pairs, work.full_pairs) == (reps * ran, reps * k)
        assert work.rows <= work.full_rows == reps * n
        if query != "unsorted":
            assert work.pairs < work.full_pairs or query == "end-check-fails"

    def test_points_inside_the_interval_outside_every_disc_are_skipped(self):
        # [[0, 5], [5, 10]]: the block interval is [-10, 20], its rows' discs [-5, 5] and
        # [5, 15], and its eigenvalues 5 -+ sqrt(50); of the even points -14..24, the
        # interval would run the 18 from -12 to 22 and the discs run the 12 from -6 to 16
        diag, sub_sq = np.array([[0.0, 10.0]]), np.array([[25.0]])
        x = np.arange(-14.0, 25.0, 2.0)
        work = SturmWork()
        assert np.array_equal(sturm_count(diag, sub_sq, x, work),
                              sturm_count_reference(diag, sub_sq, x))
        assert (work.pairs, work.full_pairs) == (12, 20)

    @pytest.mark.parametrize("where, bad", [("diag", np.inf), ("diag", np.nan),
                                            ("sub_sq", np.inf), ("sub_sq", -1.0)])
    def test_a_block_it_cannot_bound_runs_every_point(self, where, bad):
        # a non-finite entry, or a negative squared subdiagonal, voids the monotone
        # steps, so every point of a grid far beyond the spectrum is run
        diag, sub = sample_block(EnsembleParams(6, 2.0), 3, 0, 4)
        sub_sq = np.square(sub)
        (diag if where == "diag" else sub_sq)[2, 3] = bad
        x = np.linspace(-50.0, 50.0, 11)
        work = SturmWork()
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            got = sturm_count(diag, sub_sq, x, work)
            assert np.array_equal(got, sturm_count_reference(diag, sub_sq, x))
        assert work.pairs == work.full_pairs == 4 * 11


@pytest.mark.parametrize("n", [1, 2, 3, 20, 150])
def test_block_solver_equals_scipy_stev_row_by_row(rng, n):
    import scipy.linalg

    sampled = sample_block(EnsembleParams(n, 2.0), 5, 0, 40)
    random = (2.0 * rng.standard_normal((40, n)), 2.0 * rng.standard_normal((40, n - 1)))
    for diag, sub in (sampled, random):
        got = eigenvalues_block(diag, sub)
        for d, e, w in zip(diag, sub, got):
            want = (scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="stev")
                    if n > 1 else d)
            assert np.array_equal(w, np.sort(want))
            assert np.array_equal(solve_one(d, e), w)


@pytest.mark.parametrize("layout", ["fortran", "every_other_row", "integer"])
def test_block_solver_writes_each_row_in_place_whatever_the_input_layout(rng, layout):
    # dstev solves each row of the block's C-contiguous float64 copy in place, so a
    # non-C, strided or integer input must still give scipy's stev spectrum row by row
    import scipy.linalg

    diag, sub = 2.0 * rng.standard_normal((40, 7)), 2.0 * rng.standard_normal((40, 6))
    if layout == "fortran":
        diag, sub = np.asfortranarray(diag), np.asfortranarray(sub)
    elif layout == "every_other_row":
        diag, sub = diag[::2], sub[::2]
    else:
        diag, sub = rng.integers(-9, 10, (40, 7)), rng.integers(-9, 10, (40, 6))
    before = diag.copy(), sub.copy()
    got = eigenvalues_block(diag, sub)
    assert got.shape == diag.shape
    for d, e, w in zip(diag, sub, got):
        want = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="stev")
        assert np.array_equal(w, want)
    assert np.array_equal(diag, before[0]) and np.array_equal(sub, before[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diag", "sub"])
def test_block_solver_rejects_non_finite(bad, where):
    diag, sub = sample_block(EnsembleParams(5, 1.0, EnsembleKind.FIXED_TRACE), 2, 0, 3)
    (diag if where == "diag" else sub)[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvalues_block(diag, sub)


def test_block_solver_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="sub"):
        eigenvalues_block(np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="sub"):
        eigenvalues_block(np.zeros(4), np.zeros(3))


def test_oracle_agreement_100_random_20x20(rng):
    worst = 0.0
    for _ in range(100):
        t = random_tridiag(rng, 20)
        a = solve_one(*t)
        b = eigenvalues_bisect(*t)
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-10


class TestInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_conservation(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tridiag(rng, 12)
        ev = solve_one(*t)
        scale = max(np.max(np.abs(ev)), 1.0)
        assert abs(np.sum(ev) - np.sum(t[0])) <= 1e-10 * len(ev) * scale
        assert abs(np.sum(ev**2) - trace_sq_rows(*t)) <= 1e-9 * trace_sq_rows(*t)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_flip_invariance(self, seed):
        rng = np.random.default_rng(seed)
        d, e = random_tridiag(rng, 9)
        a = solve_one(d, e)
        b = solve_one(d[::-1], e[::-1])
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    @given(st.integers(0, 10_000), st.floats(-3.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_equivariance(self, seed, c):
        rng = np.random.default_rng(seed)
        d, e = random_tridiag(rng, 8)
        a = np.sort(c * solve_one(d, e))
        b = solve_one(c * d, c * e)
        # negative subdiagonal signs do not change the spectrum
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_interlacing(self, seed):
        # strict interlacing needs genuinely coupled blocks; with tiny
        # subdiagonal entries the gaps fall below solver accuracy
        rng = np.random.default_rng(seed)
        d, e = 2.0 * rng.standard_normal(10), rng.uniform(0.5, 2.5, 9)
        full = solve_one(d, e)
        lead = solve_one(d[:-1], e[:-1])
        slack = 1e-10 * max(1.0, np.max(np.abs(full)))
        assert np.all(full[:-1] < lead + slack) and np.all(lead < full[1:] + slack)


def test_nonconvergence_reports_matrix(monkeypatch):
    from betahermite import tridiag

    def stalled_stev(d, e, *args, **kwargs):
        return d, None, 2  # LAPACK info > 0: the QL iteration did not converge

    monkeypatch.setattr(tridiag, "dstev", stalled_stev)
    with pytest.raises(EigenvalueError, match=r"replicate 0 .*n=2.*diag=array\(\[0\., 0\.\]\)"):
        solve_one([0.0, 0.0], [1.0])


def test_sampled_spectrum_provenance():
    from betahermite.tridiag import sample_spectrum

    p = EnsembleParams(6, 2.0)
    s = sample_spectrum(p, SampleSeed(1, 4))
    assert s.params is p and s.seed.replicate == 4
    assert np.all(np.diff(s.values) >= 0)


def test_malformed_matrix_rejected():
    for diag, sub in ([1.0, 2.0], [0.5, 0.5]), ([[1.0, 2.0]], [[0.5]]), ([], []):
        with pytest.raises(ValueError, match="sub"):
            eigenvalues_bisect(diag, sub)
