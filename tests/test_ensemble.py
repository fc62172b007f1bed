"""Sampler contracts: chi entry distributions, determinism, trace statistics,
and the fixed-trace projection."""

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special
from numpy.random import Generator, Philox
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betahermite.ensemble import (REPLICATE_CHUNK, EnsembleKind, EnsembleParams, SampleSeed,
                                  _rescale_rows, big_l, replicate_blocks, sample_block,
                                  trace_sphere, trace_sq_rows)
from betahermite.tridiag import eigenvalues_block, sample_spectrum


def half_chi_mean_sq_oracle(k):
    """E[X^2] for the density 2/Gamma(k/2) x^(k-1) exp(-x^2), by quadrature."""
    from math import gamma

    norm = 2.0 / gamma(k / 2.0)
    val = si.quad(lambda x: norm * x ** (k + 1) * np.exp(-x * x), 0, np.inf)[0]
    return val


def walk(params, master, count):
    """Replicates 0..count-1 as one (diag, sub) pair, joined from `replicate_blocks`."""
    chunks = list(replicate_blocks(params, master, count))
    return (np.concatenate([d for _, d, _ in chunks]), np.concatenate([s for _, _, s in chunks]))


def bottom_entry(beta, master, count, n=2):
    """The bottom subdiagonal entries b_1 ~ chi_beta/sqrt(2) of replicates 0..count-1."""
    return walk(EnsembleParams(n, beta), master, count)[1][:, -1]


class TestHalfChi:
    """The bottom subdiagonal entry has the half-chi density with k = beta."""

    def test_determinism(self):
        assert np.array_equal(bottom_entry(2.0, 123, 6), bottom_entry(2.0, 123, 6))

    def test_distinct_replicates_differ(self):
        x = bottom_entry(2.0, 1, 2)
        assert x[0] != x[1]

    def test_bad_dof(self):
        # the entry j rows from the bottom has k = j*beta degrees of freedom
        with pytest.raises(ValueError):
            EnsembleParams(2, 0.0)
        with pytest.raises(ValueError):
            EnsembleParams(2, -1.0)

    @pytest.mark.parametrize("k,expected", [(2.0, 1.0), (4.0, 2.0)])
    def test_mean_square(self, k, expected):
        # oracle first: quadrature of the stated density agrees with the
        # gamma-mean closed form
        assert half_chi_mean_sq_oracle(k) == pytest.approx(expected, abs=1e-10)
        x = bottom_entry(k, 7, 100_000)
        m = np.mean(x**2)
        se = np.std(x**2, ddof=1) / np.sqrt(len(x))
        assert abs(m - expected) <= 3.0 * se

    def test_positive(self):
        x = bottom_entry(0.5, 3, 1000)
        assert np.all(x > 0)


class TestBetaHermiteSampler:
    def test_n1_degenerate(self):
        diag, sub = sample_block(EnsembleParams(1, 2.0), 0, 0, 1)
        assert diag.shape == (1, 1) and sub.shape == (1, 0)

    def test_determinism_bit_identical(self):
        p = EnsembleParams(20, 2.5)
        a = sample_block(p, 42, 3, 1)
        b = sample_block(p, 42, 3, 1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_subdiag_positive(self):
        _, sub = sample_block(EnsembleParams(50, 0.3), 1, 0, 1)
        assert np.all(sub > 0)

    def test_trace_sq_mean(self):
        # E tr H^2 = n + beta n(n-1)/2 = 10000 at n=100, beta=2
        reps = 10_000
        t = trace_sq_rows(*walk(EnsembleParams(100, 2.0), 11, reps))
        se = t.std(ddof=1) / np.sqrt(reps)
        assert abs(t.mean() - 10_000.0) <= 3.0 * se

    def test_bottom_entry_mean_n2_beta4(self):
        # single subdiagonal entry has E[b^2] = k/2 = 2
        vals = bottom_entry(4.0, 5, 20_000) ** 2
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 2.0) <= 3.0 * se


def recipe_rows(params, master, start, count):
    """Replicates start..start+count-1 by the stream-block recipe, from fresh generators.

    Replicate r is row r % C of block b = r // C (C = REPLICATE_CHUNK), drawn
    from Generator(Philox(key=[master, b])): the block's (C, n) diagonal
    normals, then its (C, n-1) half-chi entries top-to-bottom, then the
    fixed-trace projection of each row.
    """
    n, c = params.n, REPLICATE_CHUNK
    diags, subs = [], []
    for b in range(start // c, (start + count - 1) // c + 1):
        rng = Generator(Philox(key=[master, b]))
        diag = rng.standard_normal((c, n))
        sub = np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1) * params.beta / 2.0,
                                         size=(c, n - 1)))
        for i in range(max(start - b * c, 0), min(start + count - b * c, c)):
            d, s = diag[i], sub[i]
            if params.kind is EnsembleKind.FIXED_TRACE:
                scale = np.sqrt(trace_sphere(params.n) / (np.sum(d**2) + 2.0 * np.sum(s**2)))
                d, s = scale * d, scale * s
            diags.append(d)
            subs.append(s)
    return diags, subs


class TestSampleBlock:
    @given(
        n=st.integers(1, 60),
        beta=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        kind=st.sampled_from(list(EnsembleKind)),
        master=st.integers(0, 2**32),
        block=st.integers(0, 2000),
        lo=st.integers(0, REPLICATE_CHUNK - 1),
        count=st.integers(1, REPLICATE_CHUNK),
    )
    @example(n=5, beta=1.0, kind=EnsembleKind.FIXED_TRACE, master=3,
             block=0, lo=REPLICATE_CHUNK - 1, count=1)  # the block's last row
    @example(n=5, beta=2.0, kind=EnsembleKind.GAUSSIAN, master=3,
             block=0, lo=7, count=REPLICATE_CHUNK)  # rows 7.. to the block's end
    @example(n=5, beta=2.0, kind=EnsembleKind.GAUSSIAN, master=3,
             block=1, lo=0, count=REPLICATE_CHUNK)  # one whole block
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_per_replicate_recipe(self, n, beta, kind, master, block, lo, count):
        assume(kind is EnsembleKind.GAUSSIAN or n >= 2)
        p = EnsembleParams(n, beta, kind)
        start, count = block * REPLICATE_CHUNK + lo, min(count, REPLICATE_CHUNK - lo)
        diag, sub = sample_block(p, master, start, count)
        assert diag.shape == (count, n) and sub.shape == (count, n - 1)
        want_diag, want_sub = recipe_rows(p, master, start, count)
        for i in range(count):
            assert np.array_equal(diag[i], want_diag[i]) and np.array_equal(sub[i], want_sub[i])

    @given(
        kind=st.sampled_from(list(EnsembleKind)),
        start=st.integers(0, 4 * REPLICATE_CHUNK),
        count=st.integers(1, REPLICATE_CHUNK),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_one_row_equals_its_row_in_any_range(self, kind, start, count, data):
        # any range inside a block, and a walk over several blocks
        p = EnsembleParams(4, 1.5, kind)
        count = min(count, REPLICATE_CHUNK - start % REPLICATE_CHUNK)
        r = data.draw(st.integers(start, start + count - 1))
        diag, sub = sample_block(p, 17, start, count)
        one_diag, one_sub = sample_block(p, 17, r, 1)
        assert np.array_equal(one_diag[0], diag[r - start])
        assert np.array_equal(one_sub[0], sub[r - start])
        walk_diag, walk_sub = walk(p, 17, start + count)
        assert np.array_equal(one_diag[0], walk_diag[r])
        assert np.array_equal(one_sub[0], walk_sub[r])

    def test_range_inside_one_block_does_not_hold_the_block(self):
        # one replicate at n = 2000: its block's buffers would take 16 MB
        import tracemalloc

        p = EnsembleParams(2000, 2.0)
        tracemalloc.start()
        try:
            diag, sub = sample_block(p, 1, REPLICATE_CHUNK + 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.shape == (1, 2000) and peak < 2_000_000
        assert np.array_equal(diag[0], sample_block(p, 1, REPLICATE_CHUNK, 8)[0][3])

    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_one_matrix_functions_are_blocks_of_one(self, kind):
        # sample_spectrum is row r - start of the block's eigenvalues
        p = EnsembleParams(7, 1.5, kind)
        values = eigenvalues_block(*sample_block(p, 3, 10, 4))
        for r in range(10, 14):
            assert np.array_equal(sample_spectrum(p, SampleSeed(3, r)).values, values[r - 10])

    # the cross-block half of test_rows_equal_per_replicate_recipe
    @pytest.mark.parametrize("kind", list(EnsembleKind), ids=[k.value for k in EnsembleKind])
    @pytest.mark.parametrize("count", [1100, 2 * REPLICATE_CHUNK, 1])
    def test_replicate_blocks_walk_the_range_one_stream_block_at_a_time(self, kind, count):
        p = EnsembleParams(5, 1.5, kind)
        chunks = list(replicate_blocks(p, 9, count))
        firsts = [first for first, _, _ in chunks]
        assert firsts == [0, *(f + len(d) for f, d, _ in chunks[:-1])]
        assert firsts[-1] + len(chunks[-1][1]) == count
        for first, diag, sub in chunks:
            assert first // REPLICATE_CHUNK == (first + len(diag) - 1) // REPLICATE_CHUNK
            assert len(sub) == len(diag)
        want_diag, want_sub = recipe_rows(p, 9, 0, count)
        assert np.array_equal(np.concatenate([d for _, d, _ in chunks]), want_diag)
        assert np.array_equal(np.concatenate([s for _, _, s in chunks]), want_sub)

    def test_trace_sq_rows(self):
        diag, sub = sample_block(EnsembleParams(9, 2.0), 1, 0, 5)
        rows = trace_sq_rows(diag, sub)
        assert [np.sum(d**2) + 2.0 * np.sum(s**2) for d, s in zip(diag, sub)] == list(rows)

    def test_empty_block(self):
        diag, sub = sample_block(EnsembleParams(4, 2.0), 0, 0, 0)
        assert diag.shape == (0, 4) and sub.shape == (0, 3)

    # a range that leaves its stream block of REPLICATE_CHUNK = 512 is refused too
    @pytest.mark.parametrize("start, count", [(-1, 2), (0, -1), (511, 2), (0, 513), (1023, 2)])
    def test_rejects_negative_range(self, start, count):
        with pytest.raises(ValueError):
            sample_block(EnsembleParams(4, 2.0), 0, start, count)

    def test_fixed_trace_n1_rejected(self):
        with pytest.raises(ValueError):
            sample_block(EnsembleParams(1, 2.0, EnsembleKind.FIXED_TRACE), 0, 0, 3)


class TestFixedTrace:
    def test_direct_arithmetic(self):
        diag, sub = np.array([[1.0, 1.0]]), np.array([[0.0]])
        _rescale_rows(diag, sub, trace_sphere(2))
        assert diag[0] == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert trace_sq_rows(diag, sub)[0] == pytest.approx(1.0)

    def test_n1_rejected(self):
        # the projection onto tr H^2 = n(n-1)/2 = 0 degenerates at n = 1
        with pytest.raises(ValueError):
            sample_spectrum(EnsembleParams(1, 2.0, EnsembleKind.FIXED_TRACE), SampleSeed(0, 0))

    def test_sampled_trace(self):
        p = EnsembleParams(50, 1.0, EnsembleKind.FIXED_TRACE)
        t = trace_sq_rows(*sample_block(p, 9, 0, 1))[0]
        assert abs(t - 1225.0) / 1225.0 < 1e-12

    def test_eigenvalue_scale_relation(self):
        p = EnsembleParams(30, 2.0)
        h = sample_block(p, 4, 2, 1)
        f = sample_block(EnsembleParams(30, 2.0, EnsembleKind.FIXED_TRACE), 4, 2, 1)
        c = np.sqrt(trace_sphere(p.n) / trace_sq_rows(*h)[0])
        ev_h = eigenvalues_block(*h)[0]
        ev_f = eigenvalues_block(*f)[0]
        assert np.max(np.abs(ev_f - c * ev_h)) <= 1e-12 * np.max(np.abs(ev_f))

    @given(
        diag=st.lists(st.floats(-5, 5), min_size=2, max_size=8),
        sub=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_rescale_hits_target(self, diag, sub):
        subdiag = sub.draw(
            st.lists(st.floats(0.01, 5), min_size=len(diag) - 1, max_size=len(diag) - 1)
        )
        d, s = np.array([diag]), np.array([subdiag])
        p = EnsembleParams(len(diag), 1.0)
        _rescale_rows(d, s, trace_sphere(p.n))
        assert trace_sq_rows(d, s)[0] == pytest.approx(trace_sphere(p.n), rel=1e-12)


class TestParamValidation:
    def test_bad_n(self):
        with pytest.raises(ValueError):
            EnsembleParams(0, 2.0)

    def test_fixed_trace_n1(self):
        # the trace sphere tr H^2 = n(n-1)/2 is the point 0 at n = 1
        with pytest.raises(ValueError, match="n >= 2"):
            EnsembleParams(1, 2.0, EnsembleKind.FIXED_TRACE)
        assert EnsembleParams(1, 2.0).n == 1

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            EnsembleParams(2, 0.0)

    def test_derived_quantities(self):
        p = EnsembleParams(10, 2.0)
        assert 2.0 * big_l(p.n, p.beta) == 10 + 2.0 * 45
        assert trace_sphere(p.n) == 45.0


def gap_cdf(g):
    """Exact n=2, beta=2 spectral-gap CDF: erf(g/2) - g exp(-g^2/4)/sqrt(pi).

    Derived from the jpdf ~ (x1-x2)^2 exp(-(x1^2+x2^2)/2): the gap density is
    g^2 exp(-g^2/4)/(2 sqrt(pi)).
    """
    return scipy.special.erf(g / 2.0) - g * np.exp(-g * g / 4.0) / np.sqrt(np.pi)


def test_gap_distribution_ks():
    # oracle self-check: the CDF derivative integrates to one
    total = si.quad(lambda g: g * g * np.exp(-g * g / 4) / (2 * np.sqrt(np.pi)), 0, np.inf)[0]
    assert total == pytest.approx(1.0, abs=1e-12)
    p = EnsembleParams(2, 2.0)
    reps = 100_000
    ev = eigenvalues_block(*walk(p, 77, reps))
    gaps = np.sort(ev[:, 1] - ev[:, 0])
    emp = np.arange(1, reps + 1) / reps
    ks = np.max(np.abs(emp - gap_cdf(gaps)))
    assert ks <= 0.02
