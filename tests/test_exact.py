"""Exact-reference machinery: partition functions against quadrature, small-n
densities against independent oracles, the integral equation, the Stieltjes
maximum, and the density upper bound.

`scipy.integrate.quad` is a test-only oracle here: the package's Gauss panel
routes are held to it."""

import tracemalloc
import warnings
from math import exp, factorial, lgamma, log, pi, sqrt

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from numpy.polynomial.hermite_e import hermeval
from hypothesis import given, settings
from hypothesis import strategies as st

from betahermite import airy, exact
from betahermite.ensemble import EnsembleKind, trace_sphere
from betahermite.exact import (
    c_beta,
    density_upper_bound,
    exact_density_small_n,
    hermite_zeros,
    log_g_n_beta,
    log_vandermonde_sq,
    log_vandermonde_sq_max,
    log_z_beta_he,
    log_z_fte,
    verify_integral_equation,
)
from betahermite.ensemble import big_l


def quad_gauss_n2(beta, x1):
    """Gaussian n = 2 density at x1, by adaptive quadrature on each side of the kink."""
    f = lambda y: np.abs(x1 - y) ** beta * np.exp(-y * y / 2.0)
    v = si.quad(f, -np.inf, x1, limit=200)[0] + si.quad(f, x1, np.inf, limit=200)[0]
    return float(np.exp(-x1 * x1 / 2.0 - log_z_beta_he(2, beta)) * v)


def quad_radial_rhs(n, beta, x1):
    """(1/C) Int_|x| e^{-r^2/2} r^(Nb-2) rho_fte1(x/r) dr by adaptive quadrature in
    w, r = |x| + w^2, broken at the n = 2 kink x/r = 1/sqrt(2), and in r itself
    at x = 0."""
    nb = 2.0 * big_l(n, beta)
    lc = lgamma(nb / 2.0) + (nb / 2.0 - 1.0) * log(2.0)
    rho = lambda s: float(exact._rho_fte1(n, beta, s))
    ax = abs(x1)
    if ax == 0.0:
        f = lambda r: np.exp(-r * r / 2.0 + (nb - 2.0) * np.log(r) - lc) * rho(0.0)
        return si.quad(f, 1e-300, 40.0, limit=300)[0]

    def fw(w):
        r = ax + w * w
        return np.exp(-r * r / 2.0 + (nb - 2.0) * np.log(r) - lc) * rho(x1 / r) * 2.0 * w

    top = sqrt(max(40.0 - ax, 1.0))
    return si.quad(fw, 0.0, top, points=[sqrt((sqrt(2.0) - 1.0) * ax)], limit=300)[0]


class TestPartitionFunctions:
    def test_n1(self):
        assert log_z_beta_he(1, 3.3) == pytest.approx(log(sqrt(2 * pi)), abs=1e-14)

    def test_n2_beta2_value(self):
        # (2 pi) * Gamma(3)/Gamma(2) = 4 pi
        assert np.exp(log_z_beta_he(2, 2.0)) == pytest.approx(4 * pi, rel=1e-13)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_n2_against_quadrature(self, beta):
        def inner(x1):
            f = lambda y: np.abs(x1 - y) ** beta * np.exp(-y * y / 2)
            return (si.quad(f, -np.inf, x1, limit=200)[0]
                    + si.quad(f, x1, np.inf, limit=200)[0]) * np.exp(-x1 * x1 / 2)

        q = si.quad(inner, -np.inf, np.inf, limit=200)[0]
        assert q == pytest.approx(np.exp(log_z_beta_he(2, beta)), rel=1e-8)

    def test_fte_n2_beta2_unit(self):
        assert np.exp(log_z_fte(2, 2.0)) == pytest.approx(2 * pi, rel=1e-13)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_fte_n2_circle_quadrature(self, beta):
        # sphere-measure integral of |x1 - x2|^beta over the unit circle
        def f(theta):
            return np.abs(np.cos(theta) - np.sin(theta)) ** beta

        q = si.quad(f, 0, 2 * pi, limit=400, points=[pi / 4, 5 * pi / 4])[0]
        assert q == pytest.approx(np.exp(log_z_fte(2, beta)), rel=1e-8)

    def test_n1_fte_rejected(self):
        with pytest.raises(ValueError):
            log_z_fte(1, 2.0)


class TestSmallNDensities:
    def test_fte_n2_unit_closed_reduction(self):
        # rho(x) = (|x-y|^b + |x+y|^b) / (y * Z), y = sqrt(1-x^2); at n=2 the
        # canonical radius is 1, so the canonical density is the unit one
        beta = 3.0
        z = np.exp(log_z_fte(2, beta))
        d = exact_density_small_n(2, beta, EnsembleKind.FIXED_TRACE, [0.0])
        assert d[0] == pytest.approx(2.0 / z, rel=1e-12)

    def test_fte_n2_unit_mass(self):
        # adaptive quadrature handles the integrable 1/sqrt(1-x^2)-type
        # endpoint singularity that a plain trapezoid misses
        def rho(x):
            return exact_density_small_n(2, 2.0, EnsembleKind.FIXED_TRACE, [x])[0]

        mass = si.quad(rho, -1, 1, limit=400, points=[-1 / sqrt(2), 1 / sqrt(2)])[0]
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_n2_beta2_gue_oracle(self):
        # determinantal N=2 density: exp(-x^2/2)(1+x^2)/(2 sqrt(2 pi))
        xs = np.linspace(-3.0, 3.0, 25)
        d = exact_density_small_n(2, 2.0, EnsembleKind.GAUSSIAN, xs)
        oracle = np.exp(-xs**2 / 2) * (1 + xs**2) / (2 * sqrt(2 * pi))
        assert np.max(np.abs(d - oracle)) <= 1e-8

    @pytest.mark.parametrize("beta, x", [(140.0, 10.0), (140.0, -3.0), (0.3, 0.7), (37.5, 5.0)])
    def test_gaussian_n2_against_mpmath_quadrature(self, beta, x):
        # finite at the beta cap, and exact where the kink carries a fractional power
        d = exact_density_small_n(2, beta, EnsembleKind.GAUSSIAN, [x])[0]
        with mpmath.workdps(30):
            b, xm = mpmath.mpf(beta), mpmath.mpf(x)
            v = mpmath.quad(lambda y: abs(xm - y) ** b * mpmath.exp(-y * y / 2),
                            [-mpmath.inf, xm - 20, xm, xm + 20, mpmath.inf])
            lz = mpmath.log(2 * mpmath.pi) + mpmath.loggamma(1 + b) - mpmath.loggamma(1 + b / 2)
            oracle = float(mpmath.exp(-xm * xm / 2 - lz) * v)
        assert d == pytest.approx(oracle, rel=1e-13)

    def test_gaussian_n2_far_tail_is_zero(self):
        # hyp1f1(-70, 1/2, -x^2/2) overflows from x = 1145 on while its prefactor
        # underflows; 40-digit mpmath puts the density itself below the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = exact_density_small_n(2, 140.0, EnsembleKind.GAUSSIAN, [1145.0, 1e4])
        assert d.tolist() == [0.0, 0.0]
        with mpmath.workdps(40):
            b, xm = mpmath.mpf(140), mpmath.mpf(1145)
            log_rho = ((b + 1) / 2 * mpmath.log(2) + mpmath.loggamma((b + 1) / 2) - xm * xm / 2
                       + mpmath.log(mpmath.hyp1f1(-b / 2, 0.5, -xm * xm / 2))
                       - mpmath.log(2 * mpmath.pi) - mpmath.loggamma(1 + b)
                       + mpmath.loggamma(1 + b / 2))
        assert log_rho < -6e5

    def test_symmetry(self):
        xs = np.array([-1.5, -0.5, 0.5, 1.5])
        d = exact_density_small_n(3, 2.0, EnsembleKind.GAUSSIAN, xs)
        assert d[0] == pytest.approx(d[3], rel=1e-12)
        assert d[1] == pytest.approx(d[2], rel=1e-12)

    def test_fte_canonical_strength_support(self):
        # canonical n=2 support is |x| < 1 * sqrt(n(n-1)/2) = 1
        d = exact_density_small_n(2, 2.0, EnsembleKind.FIXED_TRACE, [0.5, 1.5])
        assert d[0] > 0 and d[1] == 0.0

    def test_gaussian_n3_beta2_hermite_function_oracle(self):
        # the finite-n GUE density (1/n) sum_{k<n} phi_k^2, phi_k the Hermite
        # functions orthonormal under e^{-x^2/2} (Mehta, Random Matrices)
        xs = np.linspace(-8.0, 8.0, 161)
        phi2 = [hermeval(xs, [0] * k + [1]) ** 2 * np.exp(-xs**2 / 2)
                / (sqrt(2 * pi) * factorial(k)) for k in range(3)]
        d = exact_density_small_n(3, 2.0, EnsembleKind.GAUSSIAN, xs)
        assert np.max(np.abs(d - sum(phi2) / 3.0)) <= 1e-14

    def test_gaussian_n3_unit_mass(self):
        xs = np.linspace(-6, 6, 121)
        d = exact_density_small_n(3, 2.0, EnsembleKind.GAUSSIAN, xs)
        assert np.trapezoid(d, xs) == pytest.approx(1.0, abs=1e-4)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            exact_density_small_n(4, 2.0, EnsembleKind.GAUSSIAN, [0.0])


class TestIntegralEquation:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_n2(self, beta):
        res = verify_integral_equation(2, beta, np.arange(-3.0, 3.01, 0.5))
        assert res <= 1e-6

    def test_n3_beta2(self):
        res = verify_integral_equation(3, 2.0, np.arange(-3.0, 3.01, 1.0))
        assert res <= 1e-5

    # kinked odd and fractional beta, and large even beta, where the log domain
    # and the radial panels that grow with N_beta matter
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 3.0, 4.0, 30.0, 100.0])
    def test_n3_default_grid(self, beta):
        assert verify_integral_equation(3, beta, np.arange(-3.0, 3.25, 0.5)) <= 1e-5

    def test_n3_beta_cap(self):
        with pytest.raises(ValueError, match=r"beta <= 113.*beta=114\.0"):
            verify_integral_equation(3, 114.0, [0.0])

    def test_n2_beta_cap(self):
        # the largest beta whose sides stay finite on the default grid; above it the
        # cap refuses even a grid where the panel sum would still be finite
        assert verify_integral_equation(2, 140.0, np.arange(-3.0, 3.05, 0.1)) <= 1e-6
        with pytest.raises(ValueError, match=r"beta <= 140.*beta=140\.5"):
            verify_integral_equation(2, 140.5, [0.0])

    def test_n2_far_tail_is_finite(self):
        # both sides are 0 at x = 1e4, so the metric is the one at x = 0
        res = verify_integral_equation(2, 140.0, [0.0, 1e4])
        assert np.isfinite(res) and res == verify_integral_equation(2, 140.0, [0.0])

    def test_n2_fractional_beta(self):
        # |s - y|^0.5 at the kink is a square-root singularity: the graded panels
        # keep the identity at the oracle's level
        assert verify_integral_equation(2, 0.5, np.arange(-3.0, 3.01, 0.25)) <= 1e-10

    def test_empty_grid(self):
        assert verify_integral_equation(2, 2.0, []) == 0.0


class TestPanelRoutesAgainstQuad:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_gaussian_n2_density(self, beta):
        xs = np.linspace(-3.0, 3.0, 25)
        d = exact_density_small_n(2, beta, EnsembleKind.GAUSSIAN, xs)
        oracle = np.array([quad_gauss_n2(beta, x) for x in xs])
        assert np.max(np.abs(d - oracle)) <= 1e-10

    # 0, and 1/sqrt(2), where the n = 2 fixed-trace density's kink sits at r = 1
    @pytest.mark.parametrize("n, beta", [(2, 1.0), (2, 2.0), (2, 4.0), (2, 0.5), (3, 2.0),
                                         (3, 1.0), (3, 30.0)])
    def test_radial_rhs(self, n, beta):
        xs = np.array([-2.5, -1.0, 0.0, 1.0 / sqrt(2.0), 0.3, 2.0])
        rhs = exact._radial_rhs(n, beta, xs)
        oracle = np.array([quad_radial_rhs(n, beta, x) for x in xs])
        assert np.max(np.abs(rhs - oracle)) <= 1e-10

    def test_airy_tail_bit_identical_on_the_cached_table(self):
        # the lattice recipe on a fresh 12-point table, operation for operation
        nodes, weights = np.polynomial.legendre.leggauss(12)

        def panels(lo, hi):
            mid, half = (0.5 * (hi + lo))[:, None], (0.5 * (hi - lo))[:, None]
            return (airy.airy_ai(mid + half * nodes) * (half * weights)).sum(axis=1)

        def fresh(x):
            k = int(np.floor((20.0 - x) / 0.2))
            k -= 20.0 - 0.2 * k < x
            edges = 20.0 - 0.2 * np.arange(k + 1)
            above = np.concatenate([[0.0], np.cumsum(panels(edges[1:], edges[:-1]))])
            return float(above[k] + panels(np.array([x]), edges[k:])[0])

        for x in (-150.0, -7.3, 0.0, 1.1, 19.95):
            assert airy.airy_tail(x) == fresh(x)


class TestEvenBetaTrapezoid:
    @pytest.mark.parametrize("beta", [2.0, 4.0, 6.0])
    def test_matches_4096_points(self, beta):
        # at even beta the integrand is a trigonometric polynomial of degree
        # 3*beta, so the 4096-point trapezoid is exact up to rounding; the
        # package's Gauss-Jacobi arcs must agree to the rounding
        s = np.linspace(-0.99, 0.99, 199)
        y = np.sqrt(1.0 - s * s)[:, None]
        phi = np.linspace(0.0, 2.0 * pi, 4096, endpoint=False)
        vals = np.abs((s[:, None] - y * np.cos(phi)) * (s[:, None] - y * np.sin(phi))
                      * y * (np.cos(phi) - np.sin(phi))) ** beta
        oracle = vals.mean(axis=1) * 2.0 * pi * exp(-exact.log_z_fte(3, beta))
        assert np.max(np.abs(exact._rho_fte1(3, beta, s) / oracle - 1.0)) <= 4e-15

    def test_node_count_bounded(self):
        # the arcs take 20 + ceil(3 sqrt(beta)) nodes; the cap refuses beta first
        with pytest.raises(ValueError, match="beta <= 113"):
            exact._rho_fte1(3, 1e6, np.array([0.1]))

    @pytest.mark.parametrize("beta", [2.0, 113.0])
    def test_working_set_bounded(self, beta):
        # 10001 distinct |s| of 6 arcs of up to 52 nodes each: evaluated in one
        # array this held 187 (beta=2) to 385 MiB (beta=113)
        s = np.linspace(-0.999, 0.999, 20001)
        tracemalloc.start()
        try:
            exact._rho_fte1(3, beta, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("beta", [0.5, 2.0, 113.0])
    def test_blocks_do_not_change_the_values(self, beta, monkeypatch):
        s = np.linspace(-1.2, 1.2, 241)
        whole = exact._rho_fte1(3, beta, s)
        monkeypatch.setattr(exact, "_ARC_BLOCK", 1)  # one |s| per block
        assert np.array_equal(exact._rho_fte1(3, beta, s), whole)


class TestStrengthRescale:
    def test_unit_matches_directly_computed(self):
        # the canonical density, rescaled to the unit sphere, is the unit-strength one
        xs = np.linspace(-0.9, 0.9, 7)
        r = sqrt(3.0)  # n=3 canonical radius
        du = r * exact_density_small_n(3, 2.0, EnsembleKind.FIXED_TRACE, xs * r)
        direct = exact._rho_fte1(3, 2.0, xs)
        assert np.max(np.abs(du - direct)) <= 1e-10


class TestHermiteZeros:
    def test_n2(self):
        assert hermite_zeros(2) == pytest.approx([-1 / sqrt(2), 1 / sqrt(2)], abs=1e-12)

    def test_n3(self):
        assert hermite_zeros(3) == pytest.approx([-sqrt(1.5), 0.0, sqrt(1.5)], abs=1e-12)

    def test_sphere_constraint_up_to_50(self):
        for n in range(2, 51):
            z = hermite_zeros(n)
            assert abs(np.sum(z**2) - n * (n - 1) / 2) <= 1e-9


class TestStieltjesMax:
    def test_n2_direct_optimum(self):
        # max of (x1-x2)^2 on x1^2+x2^2 <= 1 is 2, and the formula gives 2
        assert np.exp(log_vandermonde_sq_max(2)) == pytest.approx(2.0, rel=1e-14)
        z = hermite_zeros(2)
        assert exp(log_vandermonde_sq(z)) == pytest.approx(2.0, rel=1e-12)

    def test_zeros_attain_formula(self):
        for n in (3, 10, 30, 50):
            lv = log_vandermonde_sq(hermite_zeros(n))
            lm = log_vandermonde_sq_max(n)
            assert abs(lv - lm) / abs(lm) <= 1e-10

    def test_cached_pairs_keep_the_sum(self):
        # the per-n pair cache must give the same pairs in the same order
        rng = np.random.default_rng(3)
        for n in (2, 7, 31):
            x = rng.standard_normal(n)
            diffs = np.abs(x[:, None] - x[None, :])[np.triu_indices(n, k=1)]
            assert log_vandermonde_sq(x) == float(2.0 * np.sum(np.log(diffs)))

    def test_rows_equal_per_point_set(self):
        # one call on the stack of a Stieltjes check's feasible points, ties included
        rng = np.random.default_rng(4)
        for n in range(2, 51):
            d = rng.standard_normal((100, n))
            pts = d / np.linalg.norm(d, axis=1)[:, None] * sqrt(n * (n - 1) / 2.0)
            pts[7, -1] = pts[7, 0]
            rows = log_vandermonde_sq(pts)
            each = np.array([log_vandermonde_sq(pt) for pt in pts])
            assert rows[7] == each[7] == -np.inf
            assert np.allclose(rows, each, rtol=1e-12, atol=0.0)

    def test_monotone_in_n(self):
        vals = [log_vandermonde_sq_max(n) for n in range(2, 20)]
        assert np.all(np.diff(vals) > 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_feasible_never_exceed(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        d = rng.standard_normal(n)
        pt = d / np.linalg.norm(d) * sqrt(n * (n - 1) / 2 * rng.uniform(0, 1))
        assert log_vandermonde_sq(pt) <= log_vandermonde_sq_max(n) + 1e-12


class TestBound:
    def test_c_beta_2(self):
        assert c_beta(2.0) == pytest.approx(exp(2) / sqrt(2 * pi), rel=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 7.5])
    def test_two_part_limit_identity(self, beta):
        part1 = 1.0 + lgamma(1.0 + beta / 2.0)      # from the prefactor piece
        part2 = -log(sqrt(2 * pi)) + beta / 2.0 - (beta / 2.0) * log(beta / 2.0)
        assert part1 + part2 == pytest.approx(log(c_beta(beta)), abs=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_w_ladder_monotone(self, beta):
        diffs = [abs(log_g_n_beta(n, beta) / n - log(c_beta(beta)))
                 for n in (50, 200, 800)]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_bound_vanishes_at_edges(self):
        assert density_upper_bound(5, 2.0, 1.0) == 0.0
        assert density_upper_bound(5, 2.0, -1.0) == 0.0
        # (1 - x^2)^((n-3)/2) is 1 at n = 3 and has the density's 1/y pole at n = 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(density_upper_bound(2, 2.0, [-1.0, 1.0]) == np.inf)
            assert np.all(density_upper_bound(3, 2.0, [-1.0, 1.0]) == exp(log_g_n_beta(3, 2.0)))

    def test_bound_overflows_to_inf_without_warning(self):
        # log g is 1377 at n = 1000, beta = 4, so the bound at x = 0 exceeds the double
        # range; at x = 0.9 the (1 - x^2)^499 factor brings it back
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = density_upper_bound(1000, 4.0, [0.0, 0.9])
        assert b[0] == np.inf and np.isfinite(b[1])

    def test_bound_domain(self):
        with pytest.raises(ValueError):
            density_upper_bound(5, 2.0, 1.5)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 10.0])
    def test_bound_dominates_exact_small_n(self, n, beta):
        # exact canonical density against the bound, on the bound's axis, up to the
        # sphere-slice Jacobian's 1/y pole at |x| = 1
        xs = np.linspace(-0.999, 0.999, 1999)
        d = exact_density_small_n(n, beta, EnsembleKind.FIXED_TRACE, xs * sqrt(trace_sphere(n)))
        b = density_upper_bound(n, beta, xs)
        assert np.all(d <= b + 1e-12)

