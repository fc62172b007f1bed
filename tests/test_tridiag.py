"""Eigensolver contracts and the QL-vs-bisection mutual oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betahermite import (
    EnsembleKind,
    EnsembleParams,
    SampleSeed,
    eigenvalues_bisect,
    eigenvalues_block,
    sample_block,
    sturm_count,
    trace_sq_rows,
)
from betahermite.tridiag import EigenvalueError


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
        ev = eigenvalues_bisect([0.0, 0.0], [1.0], abs_tol=1e-12)
        assert ev == pytest.approx([-1.0, 1.0], abs=1e-11)

    def test_bisect_hermite3(self):
        # Jacobi matrix of H_3: zeros at 0, +-sqrt(3/2)
        ev = eigenvalues_bisect(np.zeros(3), np.sqrt(np.arange(1, 3) / 2.0), abs_tol=1e-13)
        r = np.sqrt(1.5)
        assert ev == pytest.approx([-r, 0.0, r], abs=1e-11)

    def test_fixed_5x5_against_bisect(self, rng):
        t = random_tridiag(rng, 5)
        a = solve_one(*t)
        b = eigenvalues_bisect(*t, abs_tol=1e-13)
        assert np.max(np.abs(a - b)) <= 1e-10


def test_batched_sturm_count_matches_stev():
    rng = np.random.default_rng(17)
    mats = [random_tridiag(rng, 15) for _ in range(6)]
    diag = np.array([d for d, _ in mats])
    sub_sq = np.array([e**2 for _, e in mats])
    shared = np.linspace(-8.0, 8.0, 17)
    per_row = rng.uniform(-8.0, 8.0, size=(6, 5))
    for x in (shared, per_row):
        batched = sturm_count(diag, sub_sq, x)
        rows = np.broadcast_to(x, (6, x.shape[-1]))
        for (d, e), c, xs in zip(mats, batched, rows):
            assert np.array_equal(c, sturm_count(d[None], e[None] ** 2, xs)[0])
            ev = solve_one(d, e)
            assert np.array_equal(c, np.searchsorted(ev, xs, side="left"))


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
    rows = {"()": (), "(k,)": (k,), "(1, k)": (1, k), "(R, k)": (reps, k)}[x_shape]
    x = rng.choice(pool, size=rows)
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
        x_shape=st.sampled_from(["()", "(k,)", "(1, k)", "(R, k)"]),
    )
    @example(n=600, reps=3, k=4, seed=0, scale=1.0, kind="path", x_shape="(R, k)")
    @example(n=257, reps=2, k=5, seed=1, scale=1e-300, kind="zero-sub", x_shape="(k,)")
    @example(n=511, reps=4, k=3, seed=2, scale=1e150, kind="neg-zero", x_shape="(1, k)")
    @example(n=2, reps=1, k=1, seed=3, scale=1.0, kind="path", x_shape="()")
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_the_reference(self, n, reps, k, seed, scale, kind, x_shape):
        diag, sub_sq, x = sturm_case(n, reps, k, seed, scale, kind, x_shape)
        got = sturm_count(diag, sub_sq, x)
        want = sturm_count_reference(diag, sub_sq, x)
        assert got.shape == want.shape and got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

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
        b = eigenvalues_bisect(*t, abs_tol=1e-13)
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

    def stalled_stev(d, e, **kwargs):
        return d, None, 2  # LAPACK info > 0: the QL iteration did not converge

    monkeypatch.setattr(tridiag, "get_lapack_funcs", lambda names, arrays: (stalled_stev,))
    with pytest.raises(EigenvalueError, match=r"replicate 0 .*n=2.*diag=array\(\[0\., 0\.\]\)"):
        solve_one([0.0, 0.0], [1.0])


def test_sampled_spectrum_provenance():
    from betahermite import sample_spectrum

    p = EnsembleParams(6, 2.0)
    s = sample_spectrum(p, SampleSeed(1, 4))
    assert s.params is p and s.seed.replicate == 4
    assert np.all(np.diff(s.values) >= 0)


def test_malformed_matrix_rejected():
    for diag, sub in ([1.0, 2.0], [0.5, 0.5]), ([[1.0, 2.0]], [[0.5]]), ([], []):
        with pytest.raises(ValueError, match="sub"):
            eigenvalues_bisect(diag, sub)
