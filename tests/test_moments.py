"""Entry moments: Monte Carlo against closed forms, the finite-N ratios, and
the sphere-sampling validity guard at n=2."""

from math import fsum, log, sqrt

import mpmath
import numpy as np
import pytest
import scipy.integrate as si

from betahermite.ensemble import (EnsembleKind, EnsembleParams, big_l, replicate_blocks,
                                  sample_block)
from betahermite.moments import (EquivalenceReport, MomentIndex, gaussian_moment_exact, moment_mc,
                                 moment_ratio_exact, moment_ratio_sphere,
                                 verify_moment_equivalence)


class TestMomentIndex:
    def test_total_degree(self):
        idx = MomentIndex((2, 0, 1), (0, 3))
        assert idx.s == 6 and idx.n == 3

    def test_single_constructors(self):
        a = MomentIndex.single_a(4, 2, 3)
        assert a.eta_a == (0, 3, 0, 0) and a.s == 3
        b = MomentIndex.single_b(4, 1, 2)
        assert b.eta_b == (2, 0, 0) and b.s == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentIndex((1, -1), (0,))
        with pytest.raises(ValueError):
            MomentIndex((1, 1), (0, 0))


class TestMomentMc:
    def test_zero_index_is_exactly_one(self):
        m = moment_mc(EnsembleParams(3, 2.0), MomentIndex((0, 0, 0), (0, 0)),
                      1000, 0)
        assert m.mean == 1.0 and m.std_error == 0.0

    def test_gaussian_a1_squared(self):
        m = moment_mc(EnsembleParams(5, 2.0), MomentIndex.single_a(5, 1, 2),
                      20_000, 1)
        assert abs(m.mean - 1.0) <= 3.0 * m.std_error

    def test_gaussian_b1_squared_beta2(self):
        # bottom entry: E[b_1^2] = 1*beta/2 = 1
        m = moment_mc(EnsembleParams(5, 2.0), MomentIndex.single_b(5, 1, 2),
                      20_000, 2)
        assert abs(m.mean - 1.0) <= 3.0 * m.std_error

    def test_b_indexing_is_bottom_up(self):
        # top entry j = n-1 = 4: E[b_4^2] = 4*beta/2 = 4 at beta=2
        m = moment_mc(EnsembleParams(5, 2.0), MomentIndex.single_b(5, 4, 2),
                      20_000, 3)
        assert abs(m.mean - 4.0) <= 3.0 * m.std_error

    def test_odd_moment_mean_is_zero(self):
        # a_1 ~ N(0, 1): the odd moment vanishes
        m = moment_mc(EnsembleParams(3, 1.0), MomentIndex.single_a(3, 1, 1),
                      500, 4)
        assert abs(m.mean) <= 3.0 * m.std_error

    @pytest.mark.parametrize("kind", list(EnsembleKind), ids=[k.value for k in EnsembleKind])
    def test_mean_equals_per_replicate_route(self, kind):
        # the block estimator against a replicate-by-replicate recomputation,
        # across a chunk boundary: same products, same exactly rounded sum.
        # A fixed-trace row of sample_block is on tr H^2 = n(n-1)/2, scaled to 2L.
        from betahermite.ensemble import REPLICATE_CHUNK

        p = EnsembleParams(6, 2.0, kind)
        idx = MomentIndex((2, 0, 1, 0, 0, 0), (0, 2, 0, 0, 1))
        reps = REPLICATE_CHUNK + 3
        m = moment_mc(p, idx, reps, 8)
        # the sampler's sphere at n = 6 is tr H^2 = 15
        c = sqrt(2.0 * big_l(6, 2.0) / 15.0) if kind is EnsembleKind.FIXED_TRACE else 1.0
        products = []
        for rep in range(reps):
            diag, sub = sample_block(p, 8, rep, 1)
            a, b = diag[0] * c, sub[0, ::-1] * c
            products.append(float(np.prod(a ** np.array(idx.eta_a, dtype=float))
                                  * np.prod(b ** np.array(idx.eta_b, dtype=float))))
        assert m.mean == fsum(products) / reps

    def test_draws_each_stream_block_once(self, monkeypatch):
        # replicates 0..999 lie in stream blocks 0 and 1, and each is drawn once
        from betahermite import ensemble

        starts = []
        draw = ensemble.sample_block

        def counted(params, master_seed, start, count):
            starts.append(start)
            return draw(params, master_seed, start, count)

        monkeypatch.setattr(ensemble, "sample_block", counted)
        moment_mc(EnsembleParams(6, 2.0), MomentIndex.single_a(6, 1, 2), 1000, 8)
        assert starts == [0, ensemble.REPLICATE_CHUNK]

    def test_std_error_survives_a_large_mean(self):
        # mean 1e8, spread 1: E[v^2] - mean^2 cancels every digit of the variance
        from betahermite.moments import _mean_and_std_error

        v = 1e8 + np.random.default_rng(5).standard_normal(10_000)
        mean, se = _mean_and_std_error(v)
        want = np.std(v - 1e8) / sqrt(len(v))  # the spread, computed without the offset
        assert se == pytest.approx(want, rel=1e-6)
        assert mean == pytest.approx(1e8 + np.mean(v - 1e8), rel=1e-15)
        one_pass = sqrt(max(np.mean(v * v) - mean * mean, 0.0) / len(v))
        assert abs(one_pass - want) > 0.1 * want  # the formula this replaces

    def test_fixed_trace_n1_rejected(self):
        with pytest.raises(ValueError):
            moment_mc(EnsembleParams(1, 2.0, EnsembleKind.FIXED_TRACE),
                      MomentIndex.single_a(1, 1, 2), 100, 0)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            moment_mc(EnsembleParams(3, 1.0), MomentIndex.single_a(3, 1, 2),
                      50, 0)


class TestExactRatio:
    def test_s0(self):
        assert moment_ratio_exact(7, 1.3, 0) == 1.0

    def test_small_case(self):
        # L = 2 at n = 2, beta = 2: ratio(s=2) = 2 G(3)/G(4) = 2/3
        assert moment_ratio_exact(2, 2.0, 2) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_n100_beta2_s4(self):
        L = big_l(100, 2.0)
        target = L * L / ((L + 1) * (L + 2))
        assert moment_ratio_exact(100, 2.0, 4) == pytest.approx(target, rel=1e-11)
        assert moment_ratio_exact(100, 2.0, 4) == pytest.approx(0.999400279880, abs=1e-9)

    def test_monotone_to_unity(self):
        for s in (2, 4, 6):
            vals = [moment_ratio_exact(n, 2.0, s) for n in (10, 40, 160, 640)]
            assert np.all(np.diff(vals) > 0) and vals[-1] < 1.0

    def test_odd_s_rejected(self):
        with pytest.raises(ValueError):
            moment_ratio_exact(5, 2.0, 3)
        with pytest.raises(ValueError):
            moment_ratio_sphere(5, 2.0, 3)

    def test_stirling_slope(self):
        # log ratio ~ -s(s+2)/(8L); confirmed in high precision before use
        mpmath.mp.dps = 40
        for s in (2, 4):
            for n in (200, 800):
                L = mpmath.mpf(big_l(n, 2.0))
                lr = (s / 2) * mpmath.log(L) + mpmath.loggamma(L + 1) - mpmath.loggamma(L + s / 2 + 1)
                predicted = -s * (s + 2) / (8 * L)
                assert abs(float(lr - predicted)) <= float(s**3 / L**2)
        lr64 = log(moment_ratio_exact(800, 2.0, 4))
        assert lr64 == pytest.approx(-4 * 6 / (8 * big_l(800, 2.0)), rel=1e-2)


class TestSphereRatio:
    def test_s2_is_exactly_one(self):
        for n, beta in ((2, 2.0), (3, 0.7), (40, 4.0), (1000, 1.0)):
            assert moment_ratio_sphere(n, beta, 2) == 1.0
            assert moment_ratio_sphere(n, beta, 0) == 1.0

    def test_s4(self):
        L = big_l(100, 2.0)
        assert moment_ratio_sphere(100, 2.0, 4) == L / (L + 1.0)

    def test_mpmath_gamma_form(self):
        # L^(s/2) G(L)/G(L+s/2), and the bounded-trace ratio times (L+s/2)/L
        mpmath.mp.dps = 40
        for n, beta in ((2, 2.0), (5, 0.7), (30, 3.0)):
            for s in (4, 6, 10):
                L = mpmath.mpf(big_l(n, beta))
                want = mpmath.exp((s / 2) * mpmath.log(L) + mpmath.loggamma(L)
                                  - mpmath.loggamma(L + s / 2))
                got = moment_ratio_sphere(n, beta, s)
                assert got == pytest.approx(float(want), rel=1e-14)
                assert got == pytest.approx(
                    moment_ratio_exact(n, beta, s) * float((L + s / 2) / L), rel=1e-12)


class TestGaussianMomentExact:
    def test_diagonal(self):
        p = EnsembleParams(3, 1.3)
        assert gaussian_moment_exact(p, MomentIndex.single_a(3, 2, 2)) == 1.0
        assert gaussian_moment_exact(p, MomentIndex.single_a(3, 1, 4)) == 3.0
        assert gaussian_moment_exact(p, MomentIndex.single_a(3, 3, 6)) == 15.0
        assert gaussian_moment_exact(p, MomentIndex((2, 4, 0), (0, 0))) == 3.0

    def test_odd_diagonal_exponent_vanishes(self):
        p = EnsembleParams(4, 2.0)
        assert gaussian_moment_exact(p, MomentIndex.single_a(4, 1, 1)) == 0.0
        assert gaussian_moment_exact(p, MomentIndex((2, 3, 0, 0), (0, 2, 0))) == 0.0

    @pytest.mark.parametrize("n, beta", [(4, 2.0), (5, 0.7), (3, 3.0)])
    def test_subdiagonal(self, n, beta):
        # b_j^2 ~ Gamma(j beta/2): E b_j^2 = j beta/2, E b_j^4 = (j beta/2)(j beta/2 + 1)
        p = EnsembleParams(n, beta)
        for j in range(1, n):
            k = j * beta / 2.0
            assert gaussian_moment_exact(p, MomentIndex.single_b(n, j, 2)) == pytest.approx(
                k, rel=1e-14)
            assert gaussian_moment_exact(p, MomentIndex.single_b(n, j, 4)) == pytest.approx(
                k * (k + 1.0), rel=1e-14)
        # odd powers of the positive b_j do not vanish: E b_1 = G(beta/2 + 1/2)/G(beta/2)
        want = float(mpmath.gamma(beta / 2 + 0.5) / mpmath.gamma(beta / 2))
        assert gaussian_moment_exact(p, MomentIndex.single_b(n, 1, 1)) == pytest.approx(
            want, rel=1e-13)

    def test_product_of_independent_entries(self):
        p = EnsembleParams(5, 3.0)
        idx = MomentIndex((2, 2, 0, 0, 0), (0, 0, 0, 2))
        assert gaussian_moment_exact(p, idx) == pytest.approx(1.0 * 1.0 * 4 * 3.0 / 2, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_moment_exact(EnsembleParams(4, 2.0), MomentIndex.single_a(3, 1, 2))


def fixed_trace_a1_sq_quadrature(beta: float) -> float:
    """E[a_1^2] on the n=2 sphere tr H^2 = 2L by direct quadrature.

    Eliminating b >= 0 from the constraint a1^2 + a2^2 + 2 b^2 = r^2 leaves
    the marginal weight b^(beta-2) ~ (r^2 - a1^2 - a2^2)^((beta-2)/2); the
    chi-weight power beta-1 and the constraint Jacobian 1/b combine to
    beta-2.
    """
    r2 = 2.0 * big_l(2, beta)
    q = (beta - 2.0) / 2.0

    def num(rho):
        return rho**3 / 2.0 * (r2 - rho * rho) ** q

    def den(rho):
        return rho * (r2 - rho * rho) ** q

    top = si.quad(num, 0, sqrt(r2), limit=300)[0]
    bot = si.quad(den, 0, sqrt(r2), limit=300)[0]
    return top / bot


class TestSphereSamplingGuard:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_mc_matches_constraint_quadrature(self, beta):
        # the designated validity check for rescale-to-sphere sampling
        quad = fixed_trace_a1_sq_quadrature(beta)
        p = EnsembleParams(2, beta, EnsembleKind.FIXED_TRACE)
        m = moment_mc(p, MomentIndex.single_a(2, 1, 2), 40_000, 11)
        assert abs(m.mean - quad) <= 3.0 * m.std_error

    def test_quadrature_closed_form(self):
        # the reduced integral evaluates to r^2/(beta+2)
        for beta in (1.0, 2.0, 4.0, 6.5):
            r2 = 2.0 * big_l(2, beta)
            assert fixed_trace_a1_sq_quadrature(beta) == pytest.approx(
                r2 / (beta + 2.0), rel=1e-9
            )


class TestEquivalence:
    @pytest.mark.parametrize("exact, within", [(1.25, True), (1.35, False)])
    def test_within_3_sigma_follows_the_ratios(self, exact, within):
        # the verdict is derived from the two ratios and the standard error, and the
        # constructor takes no verdict of its own
        assert EquivalenceReport(1.0, 0.1, exact).within_3_sigma is within
        with pytest.raises(TypeError):
            EquivalenceReport(1.0, 0.1, 1.25, within_3_sigma=False)

    def test_n10_beta2_within_3_sigma(self):
        rep = verify_moment_equivalence(
            EnsembleParams(10, 2.0), MomentIndex.single_a(10, 1, 2),
            10_000, 21,
        )
        assert rep.within_3_sigma
        assert rep.exact_ratio == moment_ratio_sphere(10, 2.0, 2)

    @pytest.mark.parametrize("n, beta", [(n, b) for n in (2, 3) for b in (1.0, 2.0, 4.0)])
    def test_small_n_obeys_the_sphere_ratio(self, n, beta):
        # at n = 2, 3 the sphere ratio (1) and the bounded-trace one (L/(L+1))
        # are many standard errors apart at 4e4 replicates
        rep = verify_moment_equivalence(
            EnsembleParams(n, beta), MomentIndex.single_a(n, 1, 2), 40_000, 5,
        )
        assert rep.within_3_sigma, (rep.mc_ratio, rep.std_error)
        assert abs(rep.mc_ratio - moment_ratio_exact(n, beta, 2)) > 3.0 * rep.std_error

    def test_mixed_degree(self):
        # a_1^2 a_2^2 b_4^2 at n = 5, beta = 3: degree 6, the top subdiagonal entry
        idx = MomentIndex((2, 2, 0, 0, 0), (0, 0, 0, 2))
        rep = verify_moment_equivalence(EnsembleParams(5, 3.0), idx, 40_000, 7)
        assert idx.s == 6 and rep.exact_ratio == moment_ratio_sphere(5, 3.0, 6)
        assert rep.within_3_sigma, (rep.mc_ratio, rep.exact_ratio, rep.std_error)

    @pytest.mark.parametrize("idx", [MomentIndex.single_a(6, 1, 1),
                                     MomentIndex((1, 1, 0, 0, 0, 0), (0,) * 5)],
                             ids=["a1", "a1-a2"])
    def test_refuses_odd_diagonal_exponent(self, idx):
        # the Gaussian moment is 0, so there is no ratio to compare, at odd and even degree
        with pytest.raises(ValueError):
            verify_moment_equivalence(EnsembleParams(6, 2.0), idx, 1000, 22)

    def test_trace_moment(self):
        # <tr H^2> = 2L for the Gaussian sampler
        from betahermite.ensemble import trace_sq_rows

        n, beta = 20, 1.0
        vals = np.concatenate([trace_sq_rows(diag, sub) for _, diag, sub
                               in replicate_blocks(EnsembleParams(n, beta), 23, 5000)])
        se = vals.std(ddof=1) / sqrt(len(vals))
        assert abs(vals.mean() - 2.0 * big_l(n, beta)) <= 3.0 * se
