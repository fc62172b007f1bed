"""Density estimation: rescalings, normalization, weak functionals, and the
edge bookkeeping against the known beta=2 profile."""

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betahermite import (
    EnsembleKind,
    EnsembleParams,
    Regime,
    bulk_scale,
    bump,
    edge_density_closed,
    eigenvalues_block,
    estimate_density,
    grid_to_lambda,
    rescale,
    sample_block,
    sample_density,
    semicircle,
    weak_functional,
)
from betahermite.density import semicircle_bins, semicircle_mass
from betahermite.ensemble import REPLICATE_CHUNK


def gauss(n, beta):
    return EnsembleParams(n, beta, EnsembleKind.GAUSSIAN)


def fixed(n, beta):
    return EnsembleParams(n, beta, EnsembleKind.FIXED_TRACE)


def spectra(params, seed, reps, regime=Regime.RAW):
    """Rows 0..reps-1 of the `stev` spectra of seed's block, in the regime's coordinate."""
    return rescale(eigenvalues_block(*sample_block(params, seed, 0, reps)), regime, params)


class TestRescale:
    def test_bulk_gaussian(self):
        assert rescale([10.0], Regime.BULK, gauss(50, 2.0))[0] == pytest.approx(
            10.0 / np.sqrt(200.0))

    def test_bulk_fixed_trace(self):
        assert rescale([10.0], Regime.BULK, fixed(50, 2.0))[0] == pytest.approx(1.0)

    def test_edge_gaussian_points(self):
        p = gauss(1000, 2.0)
        edge = np.sqrt(2 * 2.0 * 1000)
        t = rescale([edge, edge * (1 + 1 / (2 * 1000 ** (2 / 3)))], Regime.EDGE, p)
        assert t[0] == pytest.approx(0.0, abs=1e-10)
        assert t[1] == pytest.approx(1.0, abs=1e-10)

    def test_edge_fixed_trace_point(self):
        p = fixed(1000, 2.0)
        assert rescale([np.sqrt(2000.0) * 0.999], Regime.EDGE, p)[0] == pytest.approx(
            -0.2, abs=1e-9)

    def test_fixed_trace_hard_support(self):
        # a single eigenvalue can carry at most the whole trace budget
        p = fixed(40, 1.0)
        x = spectra(p, 3, 20, Regime.BULK)
        assert np.max(np.abs(x)) <= np.sqrt((p.n - 1) / 4.0) + 1e-12

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_grid_to_lambda_inverts_rescale(self, regime, kind):
        p = EnsembleParams(300, 2.0, kind)
        x = np.linspace(-5.0, 2.0, 8)
        assert rescale(grid_to_lambda(x, regime, p), regime, p) == pytest.approx(x, abs=1e-12)


class TestEstimateDensity:
    def test_two_eigenvalues_two_bins(self):
        d = estimate_density([np.array([-1.0, 1.0])], [-2.0, 0.0, 2.0], Regime.RAW)
        assert d.height == pytest.approx([0.25, 0.25])
        assert d.mass() == pytest.approx(1.0)

    def test_standard_normal_smoke(self):
        rng = np.random.default_rng(123)
        d = estimate_density([rng.standard_normal(100_000)],
                             np.linspace(-4, 4, 33), Regime.RAW)
        # bin-averaged reference removes the curvature bias
        cdf = scipy.special.ndtr(d.grid)
        pdf = np.diff(cdf) / d.widths
        assert np.max(np.abs(d.height - pdf)) <= 0.01

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_density([], [0.0, 1.0], Regime.RAW)
        with pytest.raises(ValueError):
            estimate_density([np.array([0.5])], [1.0, 0.0], Regime.RAW)

    def test_values_outside_the_grid(self):
        # the last bin is closed, so 1.0 is captured; one row lies wholly below the
        # grid and one wholly above it
        vecs = [np.array([-3.0, 0.5]), np.array([-2.0, -1.0]), np.array([5.0, 1.0]),
                np.array([6.0, 7.0])]
        d = estimate_density(vecs, [0.0, 1.0], Regime.RAW)
        assert (d.n_values, d.below, d.above, d.n_disjoint) == (8, 3, 3, 2)
        assert d.captured_fraction == pytest.approx(0.25)

    def test_ragged_rows_refused(self):
        with pytest.raises(ValueError):
            estimate_density([np.array([0.1, 0.2]), np.array([0.3])], [0.0, 1.0], Regime.RAW)

    def test_edge_regime_counts_per_unit_t(self):
        # two replicates, three eigenvalues each in one unit-width bin
        vecs = [np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])]
        d = estimate_density(vecs, [0.0, 1.0], Regime.EDGE)
        assert d.height[0] == pytest.approx(3.0)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_unit_mass_on_covering_grid(self, seed):
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((3, rng.integers(1, 30)))
        d = estimate_density(vecs, np.linspace(-12, 12, 41), Regime.RAW)
        assert d.mass() == pytest.approx(1.0, abs=1e-9)

    def test_merge_commutes(self):
        # histogram merge is pure addition: order of replicates is irrelevant
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(50) for _ in range(6)]
        g = np.linspace(-4, 4, 17)
        a = estimate_density(vecs, g, Regime.RAW)
        b = estimate_density(vecs[::-1], g, Regime.RAW)
        assert np.array_equal(a.height, b.height)


def stev_density(params, seed, reps, grid, regime):
    """The eigenvalue route: LAPACK spectra, rescaled, through np.histogram."""
    return estimate_density(list(spectra(params, seed, reps, regime)), grid, regime)


def assert_same_histogram(fast, slow):
    assert np.array_equal(fast.height, slow.height)
    assert (fast.n_samples, fast.n_values, fast.below, fast.above, fast.n_disjoint) == (
        slow.n_samples, slow.n_values, slow.below, slow.above, slow.n_disjoint)


class TestSampleDensity:
    """Sturm counts at bin edges against np.histogram of stev eigenvalues."""

    @given(
        n=st.integers(1, 60),
        beta=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        kind=st.sampled_from(list(EnsembleKind)),
        regime=st.sampled_from(list(Regime)),
        seed=st.integers(0, 2**32),
        reps=st.integers(1, 8),
        lo=st.floats(-1.5, 1.4),
        width=st.floats(0.05, 1.5),
        bins=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_stev_histogram(self, n, beta, kind, regime, seed, reps, lo, width,
                                         bins):
        assume(kind is EnsembleKind.GAUSSIAN or n >= 2)
        p = EnsembleParams(n, beta, kind)
        # a window in bulk units u, expressed in the regime's coordinate
        u = np.linspace(lo, lo + width, bins + 1)
        grid = {Regime.RAW: u * bulk_scale(p), Regime.BULK: u,
                Regime.EDGE: 2.0 * n ** (2.0 / 3.0) * (u - 1.0)}[regime]
        assert_same_histogram(sample_density(p, seed, reps, grid, regime),
                              stev_density(p, seed, reps, grid, regime))

    @pytest.mark.parametrize("reps", [REPLICATE_CHUNK - 1, REPLICATE_CHUNK, REPLICATE_CHUNK + 1])
    def test_chunk_boundaries(self, reps):
        p = fixed(4, 1.0)
        grid = np.linspace(-1.2, 1.2, 13)
        fast = sample_density(p, 6, reps, grid, Regime.BULK)
        assert_same_histogram(fast, stev_density(p, 6, reps, grid, Regime.BULK))
        assert fast.n_values == 4 * reps

    @pytest.mark.parametrize("grid, below", [([50.0, 55.0, 60.0], True),
                                             ([-60.0, -50.0], False)])
    def test_grid_missing_every_spectrum(self, grid, below):
        p = gauss(10, 2.0)
        d = sample_density(p, 1, 7, grid, Regime.BULK)
        assert np.all(d.height == 0.0)
        assert d.n_disjoint == 7
        assert (d.below, d.above) == ((70, 0) if below else (0, 70))
        assert d.captured_fraction == 0.0
        assert_same_histogram(d, stev_density(p, 1, 7, grid, Regime.BULK))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="replicate"):
            sample_density(gauss(5, 1.0), 0, 0, [0.0, 1.0], Regime.BULK)
        with pytest.raises(ValueError, match="grid"):
            sample_density(gauss(5, 1.0), 0, 3, [0.0], Regime.BULK)


class TestSemicircle:
    def test_values(self):
        assert semicircle(0.0) == pytest.approx(2.0 / np.pi)
        assert semicircle(1.0) == 0.0
        assert semicircle(-1.0) == 0.0
        assert semicircle(2.0) == 0.0

    def test_unit_mass_quadrature(self):
        v = si.quad(semicircle, -1, 1, limit=200)[0]
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_mass_antiderivative(self):
        for lo, hi in [(-1, 1), (-0.5, 0.5), (0.0, 0.3), (-2, 2)]:
            q = si.quad(semicircle, lo, hi, limit=200)[0]
            assert semicircle_mass(lo, hi) == pytest.approx(q, abs=1e-12)

    def test_bins_are_the_per_bin_masses(self):
        # the reference column of `density --reference semicircle`, bit for bit
        grid = np.linspace(-1.2, 1.2, 61)
        loop = [semicircle_mass(a, b) / (b - a) for a, b in zip(grid[:-1], grid[1:])]
        assert np.array_equal(semicircle_bins(grid), loop)


class TestWeakFunctional:
    def test_constant_one_on_raw(self):
        rng = np.random.default_rng(11)
        d = estimate_density([rng.standard_normal(2000)], np.linspace(-8, 8, 33), Regime.RAW)
        assert weak_functional(d, np.ones_like) == pytest.approx(1.0, abs=1e-9)

    def test_tabulated_semicircle_against_quad(self):
        from betahermite.density import DensityEstimate

        grid = np.linspace(-1.0, 1.0, 401)
        heights = semicircle_bins(grid)
        dens = DensityEstimate(grid=grid, height=heights, regime=Regime.BULK)
        f = bump(-0.5, 0.5)
        oracle = si.quad(lambda x: f(np.array([x]))[0] * semicircle(x), -0.5, 0.5, limit=200)[0]
        assert weak_functional(dens, f) == pytest.approx(oracle, abs=5e-5)

    def test_disjoint_support_is_zero(self):
        from betahermite.density import DensityEstimate

        dens = DensityEstimate(grid=np.array([0.0, 1.0]), height=np.array([1.0]),
                               regime=Regime.RAW)
        assert weak_functional(dens, bump(5.0, 6.0)) == 0.0

    def test_shipped_functions_have_exact_support(self):
        for lo, hi in ((-1.0, 1.0), (-2.0, 0.5), (0.0, 3.0)):
            f = bump(lo, hi)
            assert f(np.array([lo - 1e-9, lo, hi, hi + 1e-9])).tolist() == [0.0] * 4
            assert f(np.array([(lo + hi) / 2]))[0] > 0.0


class TestStatisticalShape:
    def test_bulk_symmetry(self):
        p = fixed(60, 2.0)
        d = estimate_density(list(spectra(p, 21, 150, Regime.BULK)), np.linspace(-1.2, 1.2, 25), Regime.BULK)
        left = d.height[:12][::-1]
        right = d.height[12:]
        counts = d.height * (60 * 150) * d.widths[0]
        se = np.sqrt(np.maximum(counts, 1.0)) / (60 * 150 * d.widths[0])
        diff = np.abs(left - right)
        assert np.all(diff <= 5.0 * np.sqrt(se[:12][::-1] ** 2 + se[12:] ** 2) + 1e-12)

    def test_l1_shrinks_with_n(self):
        def l1(n, reps, seed):
            p = fixed(n, 2.0)
            d = estimate_density(list(spectra(p, seed, reps, Regime.BULK)), np.linspace(-1.2, 1.2, 61), Regime.BULK)
            ref = semicircle_bins(d.grid)
            return float(np.sum(np.abs(d.height - ref) * d.widths))

        assert l1(200, 300, 31) < l1(50, 300, 32)

    def test_edge_normalization_against_beta2_profile(self):
        # the riskiest bookkeeping step: per-unit-t counts converge to the
        # closed beta=2 edge profile
        p = gauss(500, 2.0)
        grid = np.linspace(-4.0, 1.0, 11)
        d = estimate_density(list(spectra(p, 41, 400, Regime.EDGE)), grid, Regime.EDGE)
        ref = edge_density_closed(2, d.centers)
        # finite-N bias O(N^(-2/3)) ~ 0.016 plus MC noise
        assert np.max(np.abs(d.height - ref)) <= 0.12

