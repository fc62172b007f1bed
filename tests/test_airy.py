"""Airy functions against closed forms, the ODE, an independent
ODE-integrated oracle, and the scipy implementation they wrap."""

import warnings

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from betahermite import airy_ai, airy_ai_prime, airy_tail, edge_density_closed
from betahermite.airy import _TAIL_BLOCK, AI0, AIP0, AiryAccuracyWarning, ai_derivatives

AI1_AT_0 = 0.1853301684089364   # AIP0^2 + AI0/3
AI2_AT_0 = 0.0669874837796640   # AIP0^2
AI4_AT_0 = 0.0078161414650278   # AIP0^2 - AI0/6


def per_point_tail(x):
    """Integral of Ai over (x, 20) on panels of width at most 0.2 laid from x itself,
    and the two-term exponential tail formula at x >= 20: one point per call."""
    if x >= 20.0:
        zeta = (2.0 / 3.0) * x**1.5
        return np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x**0.75) * (1.0 - 41.0 / (72.0 * zeta))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(x, 20.0, int(np.ceil((20.0 - x) / 0.2)) + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    pts = (mid[:, None] + half[:, None] * nodes).ravel()
    return float(scipy.special.airy(pts)[0] @ (half[:, None] * weights).ravel())


class TestPointValues:
    def test_at_zero(self):
        assert airy_ai(0.0) == pytest.approx(AI0, abs=1e-15)
        assert airy_ai_prime(0.0) == pytest.approx(AIP0, abs=1e-15)

    def test_against_scipy_band(self):
        x = np.linspace(-10, 10, 2001)
        ai, aip, _, _ = scipy.special.airy(x)
        assert np.max(np.abs(airy_ai(x) - ai)) <= 1e-12
        assert np.max(np.abs(airy_ai_prime(x) - aip)) <= 1e-12

    def test_against_scipy_positive_far(self):
        x = np.linspace(10, 100, 500)
        ai, aip, _, _ = scipy.special.airy(x)
        assert np.max(np.abs(airy_ai(x) / ai - 1.0)) <= 1e-10
        assert np.max(np.abs(airy_ai_prime(x) / aip - 1.0)) <= 1e-10

    def test_against_scipy_negative_far(self):
        x = np.linspace(-100, -10, 500)
        ai, _, _, _ = scipy.special.airy(x)
        envelope = np.abs(x) ** (-0.25)
        assert np.max(np.abs(airy_ai(x) - ai) / envelope) <= 1e-12

    def test_accuracy_warning(self):
        with pytest.warns(AiryAccuracyWarning):
            airy_ai(-250.0)

    def test_large_positive_x_is_zero_without_warning(self):
        # Ai and Ai' underflow to 0 from x ~ 103 on: the correctly rounded value, not NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert airy_ai(250.0) == 0.0
            x = np.array([150.0, 250.0, 2e6, 1e300, np.inf])
            assert airy_ai(x).tolist() == airy_ai_prime(x).tolist() == [0.0] * 5


class TestOde:
    def test_residual_five_point(self):
        # |Ai'' - x Ai| <= 1e-8 with a 4th-order central stencil; h balances
        # h^4 truncation against evaluator noise amplified by 1/h^2
        h = 0.004
        xs = np.arange(-10.0, 10.0 + 1e-9, 0.25)
        worst = 0.0
        for x in xs:
            f = airy_ai(np.array([x - 2 * h, x - h, x, x + h, x + 2 * h]))
            second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            worst = max(worst, abs(second - x * f[2]))
        assert worst <= 1e-8

    def test_derivative_consistency(self):
        h = 1e-5
        xs = np.arange(-8.0, 6.0, 0.5)
        fd = (airy_ai(xs + h) - airy_ai(xs - h)) / (2 * h)
        assert np.max(np.abs(fd - airy_ai_prime(xs))) <= 1e-7

    def test_differentiated_ode_residual(self):
        # Ai''' = Ai + x Ai', via the stencil applied to Ai'
        h = 0.004
        xs = np.arange(-10.0, 10.0 + 1e-9, 0.5)
        worst = 0.0
        for x in xs:
            g = airy_ai_prime(np.array([x - 2 * h, x - h, x, x + h, x + 2 * h]))
            second = (-g[0] + 16 * g[1] - 30 * g[2] + 16 * g[3] - g[4]) / (12 * h * h)
            worst = max(worst, abs(second - airy_ai(x) - x * g[2]))
        assert worst <= 1e-8

    def test_first_zero_against_ode_oracle(self):
        # bisect our own evaluator, then confirm with an independent
        # high-accuracy integration of y'' = x y from the exact origin values
        lo, hi = -2.5, -2.2
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if airy_ai(mid) * airy_ai(lo) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert abs(airy_ai(root)) <= 1e-8
        sol = si.solve_ivp(
            lambda t, y: [y[1], t * y[0]],
            (0.0, root),
            [AI0, AIP0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        assert abs(sol.y[0, -1]) <= 1e-8
        assert root == pytest.approx(-2.3381074104597674, abs=1e-9)


class TestTail:
    def test_at_zero(self):
        # quadrature oracle agrees with the 1/3 identity
        oracle = si.quad(lambda t: scipy.special.airy(t)[0], 0, 30, limit=300)[0]
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert airy_tail(0.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_far_right(self):
        assert airy_tail(50.0) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_huge_x_is_zero_without_warning(self):
        # the asymptotic branch is 0 from x = 200 on; x^1.5 overflows from x ~ 3.2e205
        assert airy_tail(1e300) == 0.0
        assert airy_tail(np.array([200.0, 1e300, np.inf])).tolist() == [0.0, 0.0, 0.0]

    def test_far_left(self):
        v = airy_tail(-50.0)
        oracle = si.quad(
            lambda t: scipy.special.airy(t)[0], -50, 30, limit=2000
        )[0]
        assert abs(v - 1.0) <= 0.05
        assert v == pytest.approx(oracle, abs=1e-8)

    def test_mid_values_against_quad(self):
        for x in (-5.0, -1.0, 1.0, 4.0):
            oracle = si.quad(lambda t: scipy.special.airy(t)[0], x, 30, limit=500)[0]
            assert airy_tail(x) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_x_below_accuracy_domain(self):
        # the panel count grows like |x|: -200 is the last x it integrates
        assert abs(airy_tail(-200.0) - 1.0) <= 0.05
        for x in (-200.5, -1e9, -1e300):
            with pytest.raises(ValueError, match="x >= -200"):
                airy_tail(x)


    def test_against_the_per_point_recipe(self):
        rng = np.random.default_rng(15)
        xs = np.concatenate([[-200.0, 0.0, 20.0, 25.0], rng.uniform(-200.0, 25.0, 60)])
        oracle = np.array([per_point_tail(x) for x in xs])
        assert np.max(np.abs(airy_tail(xs) - oracle)) <= 1e-12

    @given(st.lists(st.floats(-200.0, 30.0), min_size=1, max_size=40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_point_independent_of_the_array(self, xs, data):
        i = data.draw(st.integers(0, len(xs) - 1))
        assert airy_tail(xs[i]) == airy_tail(np.array(xs))[i]

    def test_blocks_do_not_change_values(self):
        xs = np.linspace(-12.0, 21.0, 2 * _TAIL_BLOCK + 7)
        tails = airy_tail(xs)
        for i in (0, _TAIL_BLOCK - 1, _TAIL_BLOCK, 2 * _TAIL_BLOCK + 6):
            assert airy_tail(xs[i]) == tails[i]

    def test_shapes(self):
        assert isinstance(airy_tail(0.5), float)
        xs = np.array([[-1.0, 0.0, 2.0], [21.0, 3.0, -4.0]])
        assert airy_tail(xs).shape == (2, 3)
        assert airy_tail(xs)[1, 2] == airy_tail(-4.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -200.5])
    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_rejects_a_bad_point_anywhere_in_an_array(self, bad, pos):
        xs = np.linspace(-3.0, 3.0, 5)
        xs[pos] = bad
        with pytest.raises(ValueError, match="x >= -200"):
            airy_tail(xs)

    def test_lattice_stays_in_the_accuracy_domain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AiryAccuracyWarning)
            airy_tail(-200.0)
            airy_tail(np.array([5.0, -199.93, -200.0]))


class TestEdgeDensityClosed:
    def test_beta2_at_zero(self):
        assert edge_density_closed(2, 0.0) == pytest.approx(AI2_AT_0, abs=1e-12)

    def test_beta1_at_zero(self):
        assert edge_density_closed(1, 0.0) == pytest.approx(AI1_AT_0, abs=1e-9)

    def test_beta4_at_zero(self):
        assert edge_density_closed(4, 0.0) == pytest.approx(AI4_AT_0, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1, 4])
    def test_huge_x_is_zero_without_warning(self, beta):
        assert edge_density_closed(beta, 1e300) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_plus_infinity_is_zero_without_warning(self, beta):
        assert edge_density_closed(beta, np.inf) == 0.0
        xs = np.array([0.0, 1e300, np.inf])
        v = edge_density_closed(beta, xs)
        assert v[0] > 0.0 and np.array_equal(v[1:], [0.0, 0.0])

    @pytest.mark.parametrize("beta", [1, 4])
    def test_minus_infinity_refused(self, beta):
        with pytest.raises(ValueError, match="airy_tail needs x >= -200"):
            edge_density_closed(beta, -np.inf)

    def test_unsupported_beta(self):
        with pytest.raises(ValueError, match="kontsevich"):
            edge_density_closed(6, 0.0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_nonnegative(self, beta):
        xs = np.arange(-10.0, 5.0, 0.1)
        v = edge_density_closed(beta, xs)
        assert np.min(v) >= -1e-12

    def test_beta2_decay(self):
        xs = np.arange(1.0, 8.0, 0.25)
        v = edge_density_closed(2, xs)
        assert np.all(np.diff(v) < 0)

    def test_beta2_semicircle_asymptote(self):
        # Ai_2(x) ~ sqrt(-x)/pi toward the bulk
        x = -30.0
        ratio = edge_density_closed(2, x) / (np.sqrt(-x) / np.pi)
        assert abs(ratio - 1.0) <= 0.05


def test_ai_derivatives_recurrence():
    x = 0.7
    d = ai_derivatives(x, 6)
    ai, aip, _, _ = scipy.special.airy(x)
    assert d[0] == pytest.approx(ai, abs=1e-13)
    assert d[1] == pytest.approx(aip, abs=1e-13)
    assert d[2] == pytest.approx(x * ai, abs=1e-13)
    assert d[3] == pytest.approx(ai + x * aip, abs=1e-13)
    # 4th: (x Ai)'' = 2 Ai' + x Ai'' = 2 Ai' + x^2 Ai
    assert d[4] == pytest.approx(2 * aip + x * x * ai, abs=1e-12)


def test_ai_derivatives_take_arrays():
    # row m holds Ai^(m) at every point, as the scalar call gives it point by point
    x = np.array([[-3.0, 0.0], [0.7, 5.0]])
    d = ai_derivatives(x, 5)
    assert d.shape == (6, 2, 2)
    for idx in np.ndindex(x.shape):
        np.testing.assert_array_equal(d[(slice(None), *idx)], ai_derivatives(x[idx], 5))
