"""Multiple Airy integrals: reduction identities, quadrature cross-checks,
and the even-beta edge-density normalization."""

import math

import mpmath
import numpy as np
import pytest
import scipy.fft
import scipy.special

from betahermite import (
    edge_density_closed,
    edge_prefactor,
    kontsevich_edge_density,
    kontsevich_k,
)
from betahermite import kontsevich
from betahermite.airy import ai_derivatives
from betahermite.kontsevich import (
    EPS_LADDER,
    MAX_EVALUATIONS,
    MAX_NODES_PER_AXIS,
    _damped_phase,
    _grid,
    _k_eps_pair,
    _k_eps_tensor,
    _vandermonde_power_poly,
)

K22_AT_0 = 0.1339749675593280  # 2 * Ai'(0)^2


def k22_closed(x):
    ai, aip, _, _ = scipy.special.airy(x)
    return 2.0 * (aip**2 - x * ai**2)


def k2_eps_double_sum(beta, x, eps, t, order=None):
    """O(m^2) oracle for the n = 2 damped sum: (-1)^2 (2 pi)^-2 h^2 Re(g^T W g)
    with W_ij = |t_i - t_j|^(4/beta) formed block by block, over the nodes in
    `order` (grid order by default).  Also returns the scale
    S = h^2 (2 pi)^-2 |g|^T W |g| that bounds the sum's rounding."""
    p = 4.0 / beta
    h = t[1] - t[0]
    if order is not None:
        t = t[order]
    g = _damped_phase(t, x, eps)
    gr, gi, ga = g.real, g.imag, np.abs(g)
    m = len(t)
    acc = scale = 0.0
    chunk = max(1, int(4e6 // m))
    for lo in range(0, m, chunk):
        w = np.abs(t[lo : lo + chunk, None] - t[None, :]) ** p
        acc += gr[lo : lo + chunk] @ (w @ gr) - gi[lo : lo + chunk] @ (w @ gi)
        scale += ga[lo : lo + chunk] @ (w @ ga)
    c = h * h / (2.0 * np.pi) ** 2
    return acc * c, scale * c


def heine_k(n, x):
    """K_{n,2}(x) by Heine's identity, (-1)^n n! (-1)^(n(n-1)/2) det[Ai^(j+k)(x)]_{j,k<n},
    with the Airy derivatives and the determinant in 30-digit mpmath."""
    with mpmath.workdps(30):
        d = [mpmath.airyai(x, derivative=m) for m in range(2 * n - 1)]
        det = mpmath.det(mpmath.matrix([[d[j + k] for k in range(n)] for j in range(n)]))
        return float((-1) ** n * math.factorial(n) * (-1) ** (n * (n - 1) // 2) * det)


def fft_rung_cost(m):
    """The cost model of an n = 2 rung: size * ceil(log2 size) for the FFT length."""
    size = scipy.fft.next_fast_len(2 * m - 1)
    return size * math.ceil(math.log2(size))


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
        assert kq.converged and kq.route == "quadrature-tensor"
        assert abs(kq.value - k22_closed(x)) <= 1e-3

    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_matches_closed_form_to_1e6(self, x):
        kq = kontsevich_k(2, 2.0, x, route="quadrature")
        assert abs(kq.value - k22_closed(x)) <= 1e-6

    @pytest.mark.parametrize("eps", [0.32, 0.16])
    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.8, 3.0, 1.0 / 3.0])  # p = 2, 4, 5, 4/3, 12
    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_fft_matches_double_sum(self, eps, beta, x):
        t = _grid(eps, math.ceil(4.0 / beta))
        direct, scale = k2_eps_double_sum(beta, x, eps, t)
        assert abs(_k_eps_tensor(2, beta, x, eps, t) - direct) <= 1e-11 * scale

    def test_reports_the_rungs_it_ran(self):
        kq = kontsevich_k(2, 2.0, 0.0, route="quadrature")
        assert kq.eps_used == EPS_LADDER
        assert kq.evaluations == sum(fft_rung_cost(len(_grid(eps, 2))) for eps in EPS_LADDER)
        for r in (kontsevich_k(2, 2.0, 0.0), kontsevich_k(1, 2.0, 0.0)):
            assert r.route in ("reduction", "closed")
            assert r.eps_used == () and r.evaluations == 0

    def test_extrapolation_leaves_out_a_rung_that_spoils_it(self, monkeypatch):
        # a smooth damping error, e^eps, on five rungs; the finest is thrown off
        def backend(n, beta, x, eps, t):
            return math.exp(eps) + (0.5 if eps == EPS_LADDER[-1] else 0.0)

        monkeypatch.setattr(kontsevich, "_k_eps_tensor", backend)
        r = kontsevich_k(2, 2.0, 0.0, route="quadrature")
        assert r.converged and r.eps_used == EPS_LADDER[:-1]
        assert r.evaluations == sum(fft_rung_cost(len(_grid(eps, 2))) for eps in EPS_LADDER)
        assert abs(r.value - 1.0) <= 1e-5
        # the error still owns up to how far the left-out rung moved the value
        ladder = np.asarray(EPS_LADDER)
        full, _ = kontsevich._richardson(ladder, np.asarray([backend(2, 2.0, 0.0, e, None)
                                                            for e in ladder]))
        assert r.error >= abs(full - r.value) > 1.0

    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_error_estimate_honest(self, x):
        kq = kontsevich_k(2, 2.0, x, route="quadrature")
        assert abs(kq.value - k22_closed(x)) <= max(kq.error, 1e-4)

    def test_pair_vs_tensor_n2_beta4(self):
        # both backends integrate the same damped object
        for eps in (0.32, 0.16):
            t = _grid(eps, 3)
            vt = _k_eps_tensor(2, 4.0, 0.0, eps, t)
            vp = _k_eps_pair(2, 4.0, 0.0, eps, t)
            assert vp == pytest.approx(vt, abs=2e-4)

    def test_node_order_invariance(self):
        # the double sum does not depend on the order of the nodes, but the FFT
        # rung needs them in grid order: it must match the oracle summed over
        # a shuffled order
        eps, x = 0.32, 1.0
        for beta in (2.0, 0.8):
            t = _grid(eps, math.ceil(4.0 / beta))
            order = np.random.default_rng(0).permutation(len(t))
            direct, scale = k2_eps_double_sum(beta, x, eps, t, order)
            assert abs(_k_eps_tensor(2, beta, x, eps, t) - direct) <= 1e-11 * scale

    def test_budget_flag(self, monkeypatch):
        monkeypatch.setattr(kontsevich, "MAX_EVALUATIONS", 10.0)
        r = kontsevich_k(2, 2.0, 0.0, route="quadrature")
        assert not r.converged and r.error == np.inf

    def test_budget_counts_true_grid_size(self, monkeypatch):
        # one evaluation short of the finest rung's true FFT cost skips that rung
        costs = [fft_rung_cost(len(_grid(eps, 2))) for eps in EPS_LADDER]

        def k22(ladder, budget):
            monkeypatch.setattr(kontsevich, "EPS_LADDER", ladder)
            monkeypatch.setattr(kontsevich, "MAX_EVALUATIONS", budget)
            return kontsevich_k(2, 2.0, 0.0, route="quadrature")

        r = k22(EPS_LADDER, sum(costs) - 1.0)
        assert r == k22(EPS_LADDER[:-1], MAX_EVALUATIONS)
        assert r != k22(EPS_LADDER, sum(costs))

    def test_rung_over_node_cap_is_skipped(self, monkeypatch):
        # at n=2, beta=2 the eps=1e-3 rung has 2.6e6 nodes: its FFT fits the
        # budget but its grid is over the node cap
        costs = [fft_rung_cost(len(_grid(eps, 2))) for eps in (0.32, 0.16, 0.08, 1e-3)]
        assert sum(costs) <= MAX_EVALUATIONS
        assert len(_grid(1e-3, 2)) > MAX_NODES_PER_AXIS
        monkeypatch.setattr(kontsevich, "EPS_LADDER", (0.32, 0.16, 0.08, 1e-3))
        r = kontsevich_k(2, 2.0, 0.0, route="quadrature")
        monkeypatch.setattr(kontsevich, "EPS_LADDER", (0.32, 0.16, 0.08))
        assert r == kontsevich_k(2, 2.0, 0.0, route="quadrature")

    def test_overflowing_kernel_is_not_converged(self):
        # p = 4/0.021 ~ 190: (2 t_max)^p overflows on every rung, so none runs
        r = kontsevich_k(2, 0.021, 0.0, route="quadrature")
        assert not r.converged and r.error == np.inf

    @pytest.mark.parametrize("beta", [1.5, 4.0, 2.0])
    def test_no_backend_for_n3_general_beta(self, beta):
        with pytest.raises(ValueError, match="no quadrature backend"):
            kontsevich_k(3, beta, 0.0, route="quadrature")

    @pytest.mark.parametrize("n, beta", [(3, 2.0), (4, 1.0), (4, 0.04)])
    def test_even_power_quadrature_refused_before_any_grid(self, n, beta, monkeypatch):
        # an even 4/beta at n >= 3 has the exact reduction and no quadrature;
        # n=4, beta=0.04 is also over the reduction's monomial cap
        def no_grid(eps, poly_degree):
            raise AssertionError("a quadrature grid was sized")

        monkeypatch.setattr(kontsevich, "_grid_size", no_grid)
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
        r = kontsevich_edge_density(4, 0.0)
        closed = edge_density_closed(4, 0.0)
        assert r.error <= 5e-2
        assert abs(r.value - closed) <= max(r.error, 1e-6)

    def test_beta4_second_point(self):
        r = kontsevich_edge_density(4, -1.0)
        closed = edge_density_closed(4, -1.0)
        assert abs(r.value - closed) <= max(3.0 * r.error, 5e-2)

    def test_odd_beta_rejected(self):
        with pytest.raises(ValueError):
            kontsevich_edge_density(3, 0.0)

    def test_convergence_failure_propagates(self, monkeypatch):
        # beta=4 takes the quadrature route, which cannot run on this budget
        monkeypatch.setattr(kontsevich, "MAX_EVALUATIONS", 10.0)
        r = kontsevich_edge_density(4, 0.0)
        assert not r.converged and r.error == np.inf
