"""Multiple Airy integrals K_{n,beta} and the general-even-beta edge density.

K_{n,beta}(x) is an n-fold oscillatory integral over the imaginary axis
(v_j = i t_j) of prod_j exp(v_j^3/3 - x v_j) weighted by the modulus of the
Vandermonde factor to the power 4/beta.  The sign convention is fixed so that
even-beta edge densities come out nonnegative:

    K_{n,beta}(x) = (-1)^n (2 pi)^{-n} Int_{R^n} prod_j e^{-i(t_j^3/3 + x t_j)}
                    prod_{k<l} |t_k - t_l|^{4/beta} dt

which leaves the single-variable case with a leading minus,
K_{1,beta} = -Ai; n = 1 returns it in closed form on every route.

Evaluation routes:

* reduction (4/beta an even integer): expand the Vandermonde power as a
  polynomial; each monomial integrates to a product of Airy derivatives,
  which reduce to Ai and Ai' through the Airy equation.  Exact up to the
  Airy evaluator and the rounding of the sum: the error is
  max(1e-10, 2 N u sum|term|) for N monomials and u = 2^-53; where every
  term underflows (large x) K is 0 to within the 1e-10 floor.  An expansion
  that may exceed ``MAX_MONOMIALS`` monomials, whose coefficients or sum
  leave the double range, or whose nonzero terms' rounding bound reaches the
  value itself (small beta) raises ValueError.
* quadrature (n = 2 at any beta, and n = 4 at beta = 4): with s = v - u/2,
  t = v + u/2 (u > 0) in a pair of variables, g(s) g(t) =
  exp(-i[2v^3/3 + (u^2/2 + 2x) v]), and the v-integral closes:
  Int v^m g(s) g(t) dv = 2 pi 2^{-(m+1)/3} i^m Ai^(m)(z), z = 2^{2/3} x +
  2^{-4/3} u^2.  With M(j, m) = Int_0^inf u^j Ai^(m)(z) du, K_{2,beta} =
  2^{-1/3}/pi M(4/beta, 0), and K_{4,4} is de Bruijn's Pfaffian of pair
  integrals, each a sum of M(j, m) over odd j.  M is summed on Gauss panels
  in u, and the error follows the reduction's rule, max(1e-10, 2 N u
  sum|term|) over the N nodes; a value or error that is not finite (u^j
  overflows a double from 4/beta ~ 280) carries an infinite error.  Any other
  n >= 2 and beta raises ValueError before any integral is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, product
from math import exp, lgamma, log, pi, sqrt

import numpy as np
import scipy.special

from .airy import AIRY_ERROR, ai_derivatives, airy_ai
from .exact import log_z_beta_he
from .quadrature import gauss_panels

__all__ = [
    "KontsevichResult",
    "kontsevich_k",
    "edge_prefactor",
    "kontsevich_edge_density",
]


MAX_MONOMIALS = 500_000  # monomials the reduction route may expand
_UNIT_ROUNDOFF = 2.0**-53
_Z_PER_X, _Z_PER_U2 = 2.0 ** (2.0 / 3.0), 2.0 ** (-4.0 / 3.0)  # z = 2^(2/3) x + 2^(-4/3) u^2
_PANEL, _PANEL_POINTS = 0.5, 20  # width in u and Gauss nodes of a quadrature panel
_Z_SPAN = 60.0  # the quadrature's panels end at z = max(z(0), 0) + _Z_SPAN
_Z_RESOLVED = 40.0  # below z(0) = -_Z_RESOLVED the panels narrow like 1/|z(0)|


@dataclass
class KontsevichResult:
    """A value of K_{n,beta} with its error estimate and the route that gave it."""

    value: float
    error: float
    route: str

    @property
    def converged(self) -> bool:
        """Whether both the value and its error estimate are finite."""
        return math.isfinite(self.value) and math.isfinite(self.error)


def _vandermonde_power_poly(n: int, power: int) -> dict[tuple[int, ...], float]:
    """Expansion of prod_{k<l} (t_k - t_l)^power as {exponent tuple: coeff}."""
    poly = {tuple([0] * n): 1.0}
    for k, l in combinations(range(n), 2):
        # (t_k - t_l)^power via binomial theorem
        factor = {}
        for i in range(power + 1):
            e = [0] * n
            e[k] = i
            e[l] = power - i
            factor[tuple(e)] = math.comb(power, i) * (-1.0) ** (power - i)
        new = {}
        for ea, ca in poly.items():
            for eb, cb in factor.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                new[key] = new.get(key, 0.0) + ca * cb
        poly = new
    return poly


def _even_power(beta: float) -> int | None:
    """4/beta as an int when it is an even integer, to within 1e-12; else None."""
    power = round(4.0 / beta)
    return power if abs(4.0 / beta - power) < 1e-12 and power % 2 == 0 else None


def _k_reduction(n: int, beta: float, x: float) -> tuple[float, float]:
    """Exact Airy-derivative reduction, valid when 4/beta is an even integer.

    Returns the value and its error, max(AIRY_ERROR, 2 N u sum|term|) for the
    N monomials of the expansion: the Airy evaluator's floor, or the rounding
    bound of the sum where it cancels.  A sum of terms that all underflowed to 0
    is K = 0 with the floor as its error; any other sum whose rounding bound
    reaches its own size carries no digit and raises ValueError.
    """
    power = _even_power(beta)
    if power is None:
        raise ValueError(f"reduction route needs 4/beta an even integer, got 4/beta={4.0 / beta}")
    degree = power * n * (n - 1) // 2
    # the expansion has at most as many monomials as there are of its degree
    bound = math.comb(degree + n - 1, n - 1)
    if bound > MAX_MONOMIALS:
        raise ValueError(f"reduction route at n={n}, beta={beta} may expand {bound} monomials, "
                         f"over the cap of {MAX_MONOMIALS}")
    try:
        poly = _vandermonde_power_poly(n, power)
    except OverflowError as exc:
        raise ValueError(f"reduction route at n={n}, beta={beta}: a coefficient of the "
                         "Vandermonde power overflows a double") from exc
    derivs = ai_derivatives(x, degree).tolist()
    total = magnitude = 0.0
    for expo, coeff in poly.items():
        term = coeff
        for m in expo:
            term *= derivs[m]
        total += term
        magnitude += abs(term)
    if not math.isfinite(magnitude):
        raise ValueError(f"reduction route at n={n}, beta={beta}, x={x}: the sum is not finite")
    if magnitude == 0.0:  # every term underflowed (Ai(x) is 0 from x ~ 103): K is 0
        return 0.0, AIRY_ERROR
    rounding = 2.0 * len(poly) * _UNIT_ROUNDOFF * magnitude
    if rounding >= abs(total):
        raise ValueError(f"reduction route at n={n}, beta={beta}, x={x}: the sum {total:.3g} "
                         f"cancels below its rounding bound {rounding:.3g}")
    # each contour moment contributes i^m Ai^(m); total phase i^degree is real
    sign = (-1.0) ** n * (-1.0) ** ((degree // 2) % 2)
    return sign * total, max(AIRY_ERROR, rounding)


def _airy_moments(j: float, m_max: int, x: float) -> tuple[np.ndarray, np.ndarray, int]:
    """M(j, m) = Int_0^inf u^j Ai^(m)(z) du, z = 2^(2/3) x + 2^(-4/3) u^2, for m <= m_max.

    Returns the values, the sums of |term| over the nodes and the node count.
    Panels of width h carry ``_PANEL_POINTS`` nodes, Gauss-Jacobi(0, j) for the
    weight u^j on [0, h] and Gauss-Legendre above, up to z = max(z(0), 0) +
    ``_Z_SPAN`` (Ai(60) < 1e-135).  h is ``_PANEL`` times ``_Z_RESOLVED`` /
    max(``_Z_RESOLVED``, -z(0)), which bounds Ai's oscillations per panel.
    """
    z0 = _Z_PER_X * x
    h = _PANEL * _Z_RESOLVED / max(_Z_RESOLVED, -z0)
    top = sqrt((max(z0, 0.0) + _Z_SPAN - z0) / _Z_PER_U2)
    edges = h * np.arange(1, math.ceil(top / h) + 1)
    pts, wts = gauss_panels(edges[:-1], edges[1:], _PANEL_POINTS)
    t, w = scipy.special.roots_jacobi(_PANEL_POINTS, 0.0, j)
    u = np.concatenate([0.5 * h * (1.0 + t), pts.ravel()])
    with np.errstate(over="ignore", invalid="ignore"):
        wu = np.concatenate([w * (0.5 * h) ** (j + 1), (wts * pts**j).ravel()])
        terms = ai_derivatives(z0 + _Z_PER_U2 * u * u, m_max) * wu
    return terms.sum(axis=1), np.abs(terms).sum(axis=1), u.size


def _pair_coefficients(k: int, l: int) -> dict[tuple[int, int], float]:
    """{(j, m): c} with (v - u/2)^k (v + u/2)^l - (k <-> l) = sum c u^j v^m; odd j only."""
    out: dict[tuple[int, int], float] = {}
    for a, b, sign in ((k, l, 1.0), (l, k, -1.0)):
        for i, i2 in product(range(a + 1), range(b + 1)):
            key = (i + i2, a + b - i - i2)
            c = sign * math.comb(a, i) * math.comb(b, i2) * (-1) ** i * 0.5 ** (i + i2)
            out[key] = out.get(key, 0.0) + c
    return {key: c for key, c in out.items() if c}


def _k44_pfaffian(x: float) -> tuple[float, float, int]:
    """K_{4,4}(x) = 4! (2 pi)^-4 Pf(A) by de Bruijn's pairing; value, sum |term|, nodes.

    On the ordered sector |Delta(t)| is the Vandermonde determinant, and its
    sector integral is the Pfaffian of A_kl = Int_{s<t} (s^k t^l - s^l t^k)
    g(s) g(t) ds dt.  In s, t = v -+ u/2 each A_kl is
    2 pi sum_jm c^kl_jm i^m 2^(-(m+1)/3) M(j, m).  The sum of |term| is the
    Pfaffian's expansion with every coefficient and M taken in modulus.
    """
    moments = {j: _airy_moments(j, 5 - j, x) for j in (1, 3, 5)}
    a = np.zeros((4, 4), dtype=complex)
    bound = np.zeros((4, 4))
    for k, l in combinations(range(4), 2):
        for (j, m), c in _pair_coefficients(k, l).items():
            val, mag, _ = moments[j]
            f = 2.0 * pi * 2.0 ** (-(m + 1) / 3.0)
            a[k, l] += c * 1j**m * f * val[m]
            bound[k, l] += abs(c) * f * mag[m]
    pf = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    pf_bound = bound[0, 1] * bound[2, 3] + bound[0, 2] * bound[1, 3] + bound[0, 3] * bound[1, 2]
    c = math.factorial(4) / (2.0 * pi) ** 4
    return c * pf.real, c * pf_bound, sum(nodes for _, _, nodes in moments.values())


def _k_quadrature(n: int, beta: float, x: float) -> KontsevichResult:
    """n = 2 at any beta and n = 4 at beta = 4; any other (n, beta) raises ValueError."""
    p = 4.0 / beta
    if n == 2:
        val, mag, nodes = _airy_moments(p, 0, x)
        c = 2.0 ** (-1.0 / 3.0) / pi
        value, magnitude, route = c * val[0], c * mag[0], "quadrature-airy"
    elif n == 4 and abs(p - 1.0) < 1e-12:
        (value, magnitude, nodes), route = _k44_pfaffian(x), "quadrature-pfaffian"
    else:
        raise ValueError(f"no quadrature backend for n={n}, beta={beta}")
    error = max(AIRY_ERROR, 2.0 * nodes * _UNIT_ROUNDOFF * magnitude)
    res = KontsevichResult(value=float(value), error=float(error), route=route)
    return res if res.converged else replace(res, error=math.inf)


def kontsevich_k(n: int, beta: float, x: float, route: str = "auto") -> KontsevichResult:
    """Evaluate K_{n,beta}(x) with an explicit error estimate.

    ``route`` is one of "auto", "reduction", "quadrature"; a non-finite x
    raises ValueError.  n = 1 returns K_{1,beta} = -Ai on every route.  Auto
    takes the exact reduction when 4/beta is an even integer and the
    quadrature otherwise.  The reduction's error is max(1e-10, rounding bound
    of its sum), and a sum that cancels below that bound raises ValueError.
    The quadrature covers n = 2 at any beta and n = 4 at beta = 4 (else
    ValueError) through Int v^m g(v - u/2) g(v + u/2) dv =
    2 pi 2^{-(m+1)/3} i^m Ai^(m)(2^{2/3} x + 2^{-4/3} u^2): K_{2,beta} is
    2^{-1/3}/pi times the integral of u^(4/beta) Ai over u > 0 (route
    "quadrature-airy"), K_{4,4} a Pfaffian of such integrals
    ("quadrature-pfaffian").  Its error is max(1e-10, 2 N u sum|term|) over
    the N Gauss nodes; a value or error that is not finite carries an
    infinite error, so the result is not ``converged``.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got x={x}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 4:
        raise ValueError("direct evaluation is limited to n <= 4")
    if not beta > 0 or math.isinf(4.0 / beta):
        raise ValueError("beta must be > 0, with 4/beta finite")
    if route not in ("auto", "reduction", "quadrature"):
        raise ValueError(f"unknown route {route!r}")
    if n == 1:
        return KontsevichResult(value=-float(airy_ai(float(x))), error=1e-13, route="closed")
    if route == "reduction" or (route == "auto" and _even_power(beta) is not None):
        value, error = _k_reduction(n, beta, float(x))
        return KontsevichResult(value=value, error=error, route="reduction")
    return _k_quadrature(n, beta, float(x))


def _even_beta(beta: float, what: str) -> int:
    """beta as an int when it is an even integer >= 2 (4.0 counts), else ValueError."""
    if not (float(beta).is_integer() and beta >= 2 and int(beta) % 2 == 0):
        raise ValueError(f"{what} needs even beta >= 2, got beta={beta}")
    return int(beta)


def edge_prefactor(beta: int) -> float:
    """Constant multiplying K_{beta,beta} in the general-even-beta edge law: (1/2 pi)
    (4 pi/beta)^(beta/2) Gamma(1 + beta/2) over `log_z_beta_he`'s Gamma product at
    n = beta and beta' = 4/beta."""
    beta = _even_beta(beta, "edge_prefactor")
    log_c = ((beta / 2.0) * log(8.0 * pi * pi / beta) + lgamma(1.0 + beta / 2.0)
             - log_z_beta_he(beta, 4.0 / beta))
    return exp(log_c) / (2.0 * pi)


def kontsevich_edge_density(beta: int, x: float) -> KontsevichResult:
    """Edge density for even beta from the multiple-integral representation.

    Returns `kontsevich_k` of K_{beta,beta}(x) with its value and error scaled
    by `edge_prefactor(beta)`, in the edge coordinate of the closed forms.  A
    quadrature that did not converge keeps its infinite error, so the result
    is still not ``converged``.  beta may be an integral float such as 4.0.
    """
    beta = _even_beta(beta, "kontsevich_edge_density")
    res = kontsevich_k(beta, float(beta), float(x))
    c = edge_prefactor(beta)
    return replace(res, value=c * res.value, error=c * res.error)
