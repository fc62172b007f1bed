"""Sampler contracts: chi entry distributions, determinism, trace statistics,
and the fixed-trace projection."""

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from betahermite import (
    EnsembleKind,
    EnsembleParams,
    SampleSeed,
    TridiagonalSymmetric,
    big_l,
    eigenvalues,
    fixed_trace_rescale,
    sample_beta_hermite,
    sample_ensemble,
    sample_half_chi,
)


def half_chi_mean_sq_oracle(k):
    """E[X^2] for the density 2/Gamma(k/2) x^(k-1) exp(-x^2), by quadrature."""
    from math import gamma

    norm = 2.0 / gamma(k / 2.0)
    val = si.quad(lambda x: norm * x ** (k + 1) * np.exp(-x * x), 0, np.inf)[0]
    return val


class TestHalfChi:
    def test_determinism(self):
        s = SampleSeed(123, 5)
        assert sample_half_chi(2.0, s) == sample_half_chi(2.0, s)

    def test_distinct_replicates_differ(self):
        assert sample_half_chi(2.0, SampleSeed(1, 0)) != sample_half_chi(2.0, SampleSeed(1, 1))

    def test_bad_dof(self):
        with pytest.raises(ValueError):
            sample_half_chi(0.0, SampleSeed(0))
        with pytest.raises(ValueError):
            sample_half_chi(-1.0, SampleSeed(0))

    @pytest.mark.parametrize("k,expected", [(2.0, 1.0), (4.0, 2.0)])
    def test_mean_square(self, k, expected):
        # oracle first: quadrature of the stated density agrees with the
        # gamma-mean closed form
        assert half_chi_mean_sq_oracle(k) == pytest.approx(expected, abs=1e-10)
        x = sample_half_chi(k, SampleSeed(7, 0), size=100_000)
        m = np.mean(x**2)
        se = np.std(x**2, ddof=1) / np.sqrt(len(x))
        assert abs(m - expected) <= 3.0 * se

    def test_positive(self):
        x = sample_half_chi(0.5, SampleSeed(3, 0), size=1000)
        assert np.all(x > 0)


class TestBetaHermiteSampler:
    def test_n1_degenerate(self):
        h = sample_beta_hermite(EnsembleParams(1, 2.0), SampleSeed(0, 0))
        assert h.n == 1 and len(h.subdiag) == 0

    def test_determinism_bit_identical(self):
        p = EnsembleParams(20, 2.5)
        a = sample_beta_hermite(p, SampleSeed(42, 3))
        b = sample_beta_hermite(p, SampleSeed(42, 3))
        assert np.array_equal(a.diag, b.diag) and np.array_equal(a.subdiag, b.subdiag)

    def test_subdiag_positive(self):
        h = sample_beta_hermite(EnsembleParams(50, 0.3), SampleSeed(1, 0))
        assert np.all(h.subdiag > 0)

    def test_trace_sq_mean(self):
        # E tr H^2 = n + beta n(n-1)/2 = 10000 at n=100, beta=2
        p = EnsembleParams(100, 2.0)
        reps = 10_000
        t = np.empty(reps)
        for r in range(reps):
            t[r] = sample_beta_hermite(p, SampleSeed(11, r)).trace_sq()
        se = t.std(ddof=1) / np.sqrt(reps)
        assert abs(t.mean() - 10_000.0) <= 3.0 * se

    def test_bottom_entry_mean_n2_beta4(self):
        # single subdiagonal entry has E[b^2] = k/2 = 2
        p = EnsembleParams(2, 4.0)
        vals = np.array(
            [sample_beta_hermite(p, SampleSeed(5, r)).subdiag[0] ** 2 for r in range(20_000)]
        )
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 2.0) <= 3.0 * se


class TestFixedTrace:
    def test_direct_arithmetic(self):
        h = TridiagonalSymmetric([1.0, 1.0], [0.0])
        f = fixed_trace_rescale(h, EnsembleParams(2, 1.0, EnsembleKind.FIXED_TRACE))
        assert f.diag == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert f.trace_sq() == pytest.approx(1.0)

    def test_sampled_trace(self):
        p = EnsembleParams(50, 1.0, EnsembleKind.FIXED_TRACE)
        f = sample_ensemble(p, SampleSeed(9, 0))
        assert abs(f.trace_sq() - 1225.0) / 1225.0 < 1e-12

    def test_unit_strength(self):
        p = EnsembleParams(50, 1.0)
        h = sample_beta_hermite(p, SampleSeed(9, 1))
        f = fixed_trace_rescale(h, p, unit_strength=True)
        assert f.trace_sq() == pytest.approx(1.0, rel=1e-12)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            fixed_trace_rescale(
                TridiagonalSymmetric([1.0], []), EnsembleParams(1, 2.0)
            )

    def test_eigenvalue_scale_relation(self):
        p = EnsembleParams(30, 2.0)
        h = sample_beta_hermite(p, SampleSeed(4, 2))
        f = fixed_trace_rescale(h, p)
        c = np.sqrt(p.strength_sq / h.trace_sq())
        ev_h = eigenvalues(h).values
        ev_f = eigenvalues(f).values
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
        h = TridiagonalSymmetric(diag, subdiag)
        p = EnsembleParams(len(diag), 1.0)
        f = fixed_trace_rescale(h, p)
        assert f.trace_sq() == pytest.approx(p.strength_sq, rel=1e-12)


class TestParamValidation:
    def test_bad_n(self):
        with pytest.raises(ValueError):
            EnsembleParams(0, 2.0)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            EnsembleParams(2, 0.0)

    def test_derived_quantities(self):
        p = EnsembleParams(10, 2.0)
        assert 2.0 * big_l(p.n, p.beta) == 10 + 2.0 * 45
        assert p.strength_sq == 45.0


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
    gaps = np.empty(reps)
    for r in range(reps):
        ev = eigenvalues(sample_beta_hermite(p, SampleSeed(77, r))).values
        gaps[r] = ev[1] - ev[0]
    gaps.sort()
    emp = np.arange(1, reps + 1) / reps
    ks = np.max(np.abs(emp - gap_cdf(gaps)))
    assert ks <= 0.02
