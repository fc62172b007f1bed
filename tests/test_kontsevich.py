"""Multiple Airy integrals: reduction identities, the quadrature route against
mpmath and closed forms, and the even-beta edge-density normalization."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

from betahermite import kontsevich
from betahermite.airy import AiryAccuracyWarning, ai_derivatives, airy_tail, edge_density_closed
from betahermite.kontsevich import (KontsevichResult, _vandermonde_power_poly, edge_prefactor,
                                    kontsevich_edge_density, kontsevich_k)

K22_AT_0 = 0.1339749675593280  # 2 * Ai'(0)^2
QUADRATURE_BETAS = (4.0, 3.0, 2.0, 1.5, 1.0, 0.8, 0.7, 2.0 / 3.0, 0.5, 1.0 / 3.0, 0.1)
QUADRATURE_XS = (-5.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


def k22_closed(x):
    ai, aip, _, _ = scipy.special.airy(x)
    return 2.0 * (aip**2 - x * ai**2)


def heine_k(n, x):
    """K_{n,2}(x) by Heine's identity, (-1)^n n! (-1)^(n(n-1)/2) det[Ai^(j+k)(x)]_{j,k<n},
    with the Airy derivatives and the determinant in 30-digit mpmath."""
    with mpmath.workdps(30):
        d = [mpmath.airyai(x, derivative=m) for m in range(2 * n - 1)]
        det = mpmath.det(mpmath.matrix([[d[j + k] for k in range(n)] for j in range(n)]))
        return float((-1) ** n * math.factorial(n) * (-1) ** (n * (n - 1) // 2) * det)


def k2_mellin(beta, x):
    """K_{2,beta}(x) = 2^(-1/3)/pi Int_0^inf u^p Ai(a + b u^2) du, p = 4/beta, in mpmath.

    With w = b u^2 the integral is b^(-s)/2 Int_0^inf w^(s-1) Ai(a + w) dw,
    s = (p + 1)/2; Taylor's series in a and the Mellin transform of Ai (DLMF
    9.10.17), continued analytically to each derivative, give
    Gamma(s) sum_k (-a)^k / k! 3^(-(s-k+2)/3) / Gamma((s-k+2)/3), an entire
    series that no quadrature enters.  Summed at 60 digits past three
    consecutive terms below 1e-40 of the sum.
    """
    with mpmath.workdps(60):
        a = mpmath.cbrt(4) * x
        b = mpmath.mpf(2) ** (mpmath.mpf(-4) / 3)
        s = (4 / mpmath.mpf(beta) + 1) / 2
        total, k, small = mpmath.mpf(0), 0, 0
        while small < 3:
            term = ((-a) ** k / mpmath.factorial(k) * mpmath.power(3, -(s - k + 2) / 3)
                    * mpmath.rgamma((s - k + 2) / 3))
            total += term
            small = small + 1 if k > 20 and abs(term) < mpmath.mpf(10) ** -40 * abs(total) else 0
            k += 1
        return float(mpmath.cbrt(0.5) / mpmath.pi * b ** (-s) / 2 * mpmath.gamma(s) * total)


class TestReduction:
    def test_k1_is_minus_ai(self):
        for route in ("auto", "reduction", "quadrature"):
            for x in (-2.0, 0.0, 2.0):
                r = kontsevich_k(1, 3.7, x, route=route)
                assert r.value == pytest.approx(-scipy.special.airy(x)[0], abs=1e-12)
                assert r.route == "closed"

    def test_k22_against_closed_form(self):
        for x in np.arange(-5.0, 3.01, 0.5):
            r = kontsevich_k(2, 2.0, float(x), route="reduction")
            assert r.value == pytest.approx(k22_closed(x), abs=1e-10)

    def test_k22_at_zero_frozen(self):
        assert kontsevich_k(2, 2.0, 0.0).value == pytest.approx(K22_AT_0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_beta2_matches_heine_determinant(self, n):
        # an oracle independent of the Vandermonde expansion: the Hankel
        # determinant of Airy derivatives
        for x in np.arange(-4.0, 3.01, 0.5):
            r = kontsevich_k(n, 2.0, float(x), route="reduction")
            heine = heine_k(n, float(x))
            assert abs(r.value - heine) <= min(r.error, 1e-10 * abs(heine))

    def test_auto_prefers_reduction(self):
        assert kontsevich_k(2, 2.0, 0.0).route == "reduction"

    def test_monomial_cap(self, monkeypatch):
        # n=3, beta=2 expands a degree-6 polynomial in 3 variables: at most C(8, 2) = 28 monomials
        monkeypatch.setattr(kontsevich, "MAX_MONOMIALS", 28)
        r = kontsevich_k(3, 2.0, 0.0)
        monkeypatch.setattr(kontsevich, "MAX_MONOMIALS", 27)
        with pytest.raises(ValueError, match="28 monomials"):
            kontsevich_k(3, 2.0, 0.0)
        assert r.route == "reduction"

    def test_reduction_rejects_odd_power(self):
        with pytest.raises(ValueError, match="even integer"):
            kontsevich_k(2, 4.0, 0.0, route="reduction")

    def test_vandermonde_expansion_small(self):
        # (t1 - t2)^2 = t1^2 - 2 t1 t2 + t2^2
        poly = _vandermonde_power_poly(2, 2)
        assert poly == {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0}

    def test_error_bounds_the_rounding_of_the_sum(self):
        # n=4, beta=1 cancels: its sum of |terms| is far above the value, and
        # the error is 2 N u sum|term| for the N monomials, not the 1e-10 floor
        poly = _vandermonde_power_poly(4, 4)
        derivs = ai_derivatives(0.0, 24)
        magnitude = sum(abs(c * np.prod(derivs[list(e)])) for e, c in poly.items())
        r = kontsevich_k(4, 1.0, 0.0)
        assert r.route == "reduction"
        assert r.error == pytest.approx(2.0 * len(poly) * 2.0**-53 * magnitude, rel=1e-12)
        assert 1e-8 < r.error < 1e-6 and r.error < abs(r.value)
        assert kontsevich_k(2, 2.0, 0.0).error == 1e-10

    def test_cancelled_sum_is_refused(self):
        # n=2, beta=0.02 sums 201 terms of size up to 5e162 to about 5e145
        with pytest.raises(ValueError, match="rounding bound"):
            kontsevich_k(2, 0.02, 0.0)

    @pytest.mark.parametrize("x", [80.0, 100.0])
    @pytest.mark.parametrize("route", ["reduction", "quadrature"])
    def test_underflowed_sum_is_zero(self, route, x):
        # every Airy term underflows past x ~ 103 / 2^(2/3): K is 0 within the 1e-10 floor
        r = kontsevich_k(2, 2.0, x, route=route)
        assert r.converged and r.value == 0.0 and r.error == 1e-10
        assert kontsevich_edge_density(2, x).value == 0.0

    def test_vandermonde_expansion_degree(self):
        poly = _vandermonde_power_poly(3, 2)
        assert all(sum(e) == 6 for e in poly)
        # evaluate against the direct product at a point
        t = np.array([0.3, -1.2, 2.0])
        direct = ((t[0] - t[1]) * (t[0] - t[2]) * (t[1] - t[2])) ** 2
        total = sum(c * np.prod(t**np.array(e)) for e, c in poly.items())
        assert total == pytest.approx(direct, rel=1e-12)


class TestQuadratureRoute:
    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_matches_reduction_to_1e3(self, x):
        kq = kontsevich_k(2, 2.0, x, route="quadrature")
        assert kq.converged and kq.route == "quadrature-airy"
        assert abs(kq.value - k22_closed(x)) <= 1e-3

    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_matches_closed_form_to_1e6(self, x):
        kq = kontsevich_k(2, 2.0, x, route="quadrature")
        assert abs(kq.value - k22_closed(x)) <= 1e-6

    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_error_estimate_honest(self, x):
        kq = kontsevich_k(2, 2.0, x, route="quadrature")
        assert abs(kq.value - k22_closed(x)) <= max(kq.error, 1e-4)

    @pytest.mark.parametrize("beta", QUADRATURE_BETAS)
    def test_n2_meets_mpmath_within_its_error(self, beta):
        for x in QUADRATURE_XS:
            r = kontsevich_k(2, beta, x, route="quadrature")
            ref = k2_mellin(beta, x)
            assert r.converged and r.route == "quadrature-airy"
            assert abs(r.value - ref) <= r.error, (beta, x, r.value, ref, r.error)

    def test_n2_beta4_is_the_airy_tail(self):
        # p = 1: u Ai(a + b u^2) du = dz / (2 b), so K_{2,4}(x) = airy_tail(2^(2/3) x) / pi
        for x in np.arange(-5.0, 3.01, 0.5):
            r = kontsevich_k(2, 4.0, float(x))
            assert r.route == "quadrature-airy"
            assert abs(r.value - airy_tail(2.0 ** (2.0 / 3.0) * x) / math.pi) <= r.error

    @pytest.mark.parametrize("beta", [2.0, 1.0, 2.0 / 3.0, 0.5])  # p = 2, 4, 6, 8
    def test_routes_agree_at_even_power(self, beta):
        for x in QUADRATURE_XS:
            kq = kontsevich_k(2, beta, x, route="quadrature")
            kr = kontsevich_k(2, beta, x, route="reduction")
            assert abs(kq.value - kr.value) <= kq.error + kr.error, (beta, x)

    def test_warns_only_where_the_airy_phase_is_lost(self):
        # at x = 100 the nodes reach z ~ 218, where Ai is 0; at x = -130, z(0) < -200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kontsevich_k(2, 0.7, 100.0).value == 0.0
        with pytest.warns(AiryAccuracyWarning):
            kontsevich_k(2, 0.7, -130.0)

    def test_overflowing_kernel_is_not_converged(self):
        # p = 4/0.0099 ~ 404: the kernel u^p overflows a double on the panels
        r = kontsevich_k(2, 0.0099, 0.0, route="quadrature")
        assert not r.converged and r.error == np.inf
        # p = 4/0.021 ~ 190 stays finite
        assert kontsevich_k(2, 0.021, 0.0).converged

    def test_closed_form_that_is_nan_is_not_converged(self):
        # Ai has lost its phase at x = -1e10 and reads NaN; the closed route used to
        # report it as converged
        with pytest.warns(AiryAccuracyWarning):
            r = kontsevich_k(1, 2.0, -1e10)
        assert math.isnan(r.value) and not r.converged

    @pytest.mark.parametrize("route", ["auto", "reduction", "quadrature"])
    @pytest.mark.parametrize("n, beta", [(1, 2.0), (2, 2.0), (2, 0.7), (4, 4.0)])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_is_refused(self, route, n, beta, x):
        with pytest.raises(ValueError, match="x must be finite"):
            kontsevich_k(n, beta, x, route=route)

    @pytest.mark.parametrize("beta", [1.5, 4.0, 2.0])
    def test_no_backend_for_n3_general_beta(self, beta):
        with pytest.raises(ValueError, match="no quadrature backend"):
            kontsevich_k(3, beta, 0.0, route="quadrature")

    @pytest.mark.parametrize("n, beta", [(3, 2.0), (4, 1.0), (4, 0.04)])
    def test_even_power_quadrature_refused_before_any_grid(self, n, beta, monkeypatch):
        # an even 4/beta at n >= 3 has the exact reduction and no quadrature;
        # n=4, beta=0.04 is also over the reduction's monomial cap
        def no_moments(j, m_max, x):
            raise AssertionError("an Airy integral was evaluated")

        monkeypatch.setattr(kontsevich, "_airy_moments", no_moments)
        with pytest.raises(ValueError, match="no quadrature backend"):
            kontsevich_k(n, beta, 0.0, route="quadrature")

    def test_n_limits(self):
        with pytest.raises(ValueError):
            kontsevich_k(5, 2.0, 0.0)
        with pytest.raises(ValueError):
            kontsevich_k(0, 2.0, 0.0)


class TestEdgeDensity:
    def test_prefactor_beta2(self):
        assert edge_prefactor(2) == pytest.approx(0.5, abs=1e-14)

    def test_prefactor_beta4_frozen(self):
        assert edge_prefactor(4) == pytest.approx(0.822467033424, abs=1e-10)

    def test_prefactor_rejects_odd(self):
        with pytest.raises(ValueError):
            edge_prefactor(3)

    def test_beta2_equals_closed_on_grid(self):
        xs = np.arange(-5.0, 3.01, 0.25)
        worst = 0.0
        for x in xs:
            r = kontsevich_edge_density(2, float(x))
            assert r.route == "reduction"
            worst = max(worst, abs(r.value - edge_density_closed(2, float(x))))
        assert worst <= 1e-8

    def test_beta4_matches_closed_within_error(self):
        for x in np.linspace(-5.0, 3.0, 17):
            r = kontsevich_edge_density(4, float(x))
            closed = edge_density_closed(4, float(x))
            assert r.route == "quadrature-pfaffian" and r.error <= 1e-9
            assert abs(r.value - closed) <= 1e-12

    def test_beta4_second_point(self):
        r = kontsevich_edge_density(4, -1.0)
        closed = edge_density_closed(4, -1.0)
        assert abs(r.value - closed) <= max(3.0 * r.error, 5e-2)

    def test_odd_beta_rejected(self):
        with pytest.raises(ValueError):
            kontsevich_edge_density(3, 0.0)

    def test_convergence_failure_propagates(self, monkeypatch):
        # beta=4 takes the quadrature route; an Airy integral that is not finite
        # (an overflow times an underflow) spoils it
        def spoiled(j, m_max, x):
            return np.full(m_max + 1, np.nan), np.full(m_max + 1, np.nan), 1

        monkeypatch.setattr(kontsevich, "_airy_moments", spoiled)
        r = kontsevich_edge_density(4, 0.0)
        assert not r.converged and r.error == np.inf

    @pytest.mark.parametrize("beta", [2.0, 4.0])
    def test_integral_float_beta_is_accepted(self, beta):
        assert edge_prefactor(beta) == edge_prefactor(int(beta))
        assert kontsevich_edge_density(beta, 0.5) == kontsevich_edge_density(int(beta), 0.5)

    def test_fractional_beta_is_refused(self):
        with pytest.raises(ValueError, match="beta=3.5"):
            edge_prefactor(3.5)
        with pytest.raises(ValueError, match="beta=3.5"):
            kontsevich_edge_density(3.5, 0.0)


@pytest.mark.parametrize("value, error", [(1.0, math.inf), (math.nan, 1e-10)])
def test_converged_follows_value_and_error(value, error):
    # converged is derived from the numbers, so no result can claim it beside an
    # infinite error or a NaN value, and the constructor takes no flag
    assert not KontsevichResult(value, error, "r").converged
    assert KontsevichResult(1.0, 1e-10, "r").converged
    with pytest.raises(TypeError):
        KontsevichResult(1.0, 1e-10, "r", converged=True)
