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
  max(1e-10, 2 N u sum|term|) for N monomials and u = 2^-53.  An expansion
  that may exceed ``MAX_MONOMIALS`` monomials, whose coefficients or sum
  leave the double range, or whose rounding bound reaches the value itself
  (small beta) raises ValueError.
* quadrature (n = 2 at any beta, and n = 4 at beta = 4): Gaussian damping
  exp(-eps sum t^2), the ladder ``EPS_LADDER`` = (0.32, 0.16, 0.08, 0.04,
  0.02, 0.01) of eps values, and polynomial extrapolation eps -> 0.  The
  damped integral is evaluated on uniform 1-D grids (step eps/6 keeps the
  aliasing error of the cubic phase at machine level for low polynomial
  degree).  For n = 2 the kernel |t_i - t_j|^p = (h |i - j|)^p is Toeplitz,
  so the double sum is one FFT convolution, O(m log m) on m nodes where the
  sum itself is O(m^2).  For n = 4 with 4/beta = 1 a pairing identity turns
  the ordered-sector integral into the Pfaffian of nested 1-D integrals.
  Any other n >= 2 and beta raises ValueError before a grid is built; auto
  sends an even 4/beta to the reduction.  A rung is skipped when its grid
  exceeds ``MAX_NODES_PER_AXIS``, when its cost (see `_k_quadrature`)
  exceeds what remains of ``MAX_EVALUATIONS``, or when its largest kernel
  value overflows a double.  Of the extrapolations over the leading 2, 3,
  ... rungs the one with the smallest error estimate is reported, since
  below some eps aliasing or rounding overtakes the damping error; its
  error is at least the change the next rung makes to it.  The constants
  are read at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from math import lgamma, pi, sqrt

import numpy as np
import scipy.fft

from .airy import ai_derivatives, airy_ai

__all__ = [
    "KontsevichResult",
    "kontsevich_k",
    "edge_prefactor",
    "kontsevich_edge_density",
]


GRID_STEP_FACTOR = 6.0  # grid step = eps / GRID_STEP_FACTOR
EPS_LADDER = (0.32, 0.16, 0.08, 0.04, 0.02, 0.01)  # damping values of the quadrature rungs
MAX_EVALUATIONS = 5e8  # cost one quadrature may spend, in the units of `_k_quadrature`
MAX_NODES_PER_AXIS = 2_000_000
MAX_MONOMIALS = 500_000  # monomials the reduction route may expand
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_UNIT_ROUNDOFF = 2.0**-53


@dataclass
class KontsevichResult:
    """A value of K_{n,beta} with its error estimate and the route that gave it.

    ``eps_used`` lists the quadrature rungs the value is extrapolated from and
    ``evaluations`` the cost charged against ``MAX_EVALUATIONS`` by every rung
    that ran, finer rungs left out of the extrapolation included.  Both are
    empty (``()``, 0) on the closed and reduction routes.
    """

    value: float
    error: float
    converged: bool
    route: str
    eps_used: tuple[float, ...] = ()
    evaluations: int = 0


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


def _k_reduction(n: int, beta: float, x: float) -> tuple[float, float]:
    """Exact Airy-derivative reduction, valid when 4/beta is an even integer.

    Returns the value and its error, max(1e-10, 2 N u sum|term|) for the N
    monomials of the expansion: the Airy evaluator's floor, or the rounding
    bound of the sum where it cancels.  A sum whose rounding bound reaches its
    own size carries no digit and raises ValueError.
    """
    p = 4.0 / beta
    power = int(round(p))
    if abs(p - power) > 1e-12 or power % 2 != 0:
        raise ValueError(f"reduction route needs 4/beta an even integer, got 4/beta={p}")
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
    rounding = 2.0 * len(poly) * _UNIT_ROUNDOFF * magnitude
    if rounding >= abs(total):
        raise ValueError(f"reduction route at n={n}, beta={beta}, x={x}: the sum {total:.3g} "
                         f"cancels below its rounding bound {rounding:.3g}")
    # each contour moment contributes i^m Ai^(m); total phase i^degree is real
    sign = (-1.0) ** n * (-1.0) ** ((degree // 2) % 2)
    return sign * total, max(1e-10, rounding)


def _grid_size(eps: float, poly_degree: int) -> tuple[float, int]:
    """Half-width and node count of the grid resolving the damped cubic phase."""
    h = eps / GRID_STEP_FACTOR
    t_max = sqrt((42.0 + 3.0 * poly_degree) / eps)
    return t_max, int(2.0 * t_max / h) + 1


def _grid(eps: float, poly_degree: int) -> np.ndarray:
    """Uniform grid resolving the damped cubic phase at machine level."""
    t_max, m = _grid_size(eps, poly_degree)
    return np.linspace(-t_max, t_max, m)


def _damped_phase(t: np.ndarray, x: float, eps: float) -> np.ndarray:
    phase = t**3 / 3.0 + x * t
    return np.exp(-eps * t * t) * (np.cos(phase) - 1j * np.sin(phase))


def _fft_size(m: int) -> int:
    """Circulant length that holds the linear convolution of two m-vectors."""
    return scipy.fft.next_fast_len(2 * m - 1)


def _fft_cost(m: int) -> int:
    """Cost an n = 2 rung on m nodes charges: size * ceil(log2 size)."""
    size = _fft_size(m)
    return size * (size - 1).bit_length()


def _k_eps_tensor(n: int, beta: float, x: float, eps: float, t: np.ndarray) -> float:
    """Tensor-product evaluation of the damped n = 2 integral on a uniform grid.

    The double sum Re(g^T W g), W_ij = |t_i - t_j|^p = (h |i - j|)^p, is a
    Toeplitz product, 2 Re sum_{i>j} g_i (h (i - j))^p g_j, which one FFT
    convolution on a circulant of length `_fft_size` evaluates.  The kernel
    is tilted, (h d)^p = e^{a h d} (h d)^p e^{-a h d} with the e^{a h d} =
    e^{a t_i} e^{-a t_j} moved onto g: at a = sqrt(p eps) the tilted kernel
    and the tilted g's peak at the scale of the pairs that carry the sum, so
    the FFT's rounding stays at u * sum_ij |g_i| W_ij |g_j| for every p
    instead of growing with the kernel's largest entry (2 t_max)^p.
    """
    h = t[1] - t[0]
    g = _damped_phase(t, x, eps)
    p = 4.0 / beta
    a = sqrt(p * eps)
    m, size = len(t), _fft_size(len(t))
    d = h * np.arange(1, m)
    kernel = np.zeros(size)
    kernel[1:m] = np.exp(p * np.log(d) - a * d)
    tilt = np.exp(a * t)
    lower = scipy.fft.ifft(scipy.fft.fft(kernel) * scipy.fft.fft(g / tilt, size))[:m]
    val = 2.0 * float(np.real((g * tilt) @ lower)) * h * h
    return (2.0 * pi) ** (-2) * val


def _k_eps_pair(n: int, beta: float, x: float, eps: float, t: np.ndarray) -> float:
    """Pairing (Pfaffian) evaluation for n = 2 or 4 with 4/beta = 1.

    On the ordered sector the modulus of the Vandermonde power is the
    Vandermonde determinant itself, and the sector integral of a single
    determinant is the Pfaffian of pair integrals
    A_kl = Int_{s<t} (s^k t^l - s^l t^k) g(s) g(t) ds dt,
    each computable from cumulative 1-D integrals.
    """
    h = t[1] - t[0]
    g = _damped_phase(t, x, eps)
    psi = [g * t**k for k in range(n)]
    cum = []
    for p_k in psi:
        c = np.empty_like(p_k)
        c[0] = 0.0
        np.cumsum((p_k[1:] + p_k[:-1]) * (h / 2.0), out=c[1:])
        cum.append(c)
    b = np.empty((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            b[k, l] = np.sum(psi[l] * cum[k]) * h
    a = b - b.T
    pf = a[0, 1] if n == 2 else a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    out = ((-1.0) ** n * (2.0 * pi) ** (-n)) * (math.factorial(n) * pf)
    return out.real


def _richardson(eps_values: np.ndarray, vals: np.ndarray):
    """Neville extrapolation of two or more rungs to eps = 0; error from the last corrections."""
    m = len(vals)
    tab = np.zeros((m, m))
    tab[:, 0] = vals
    for j in range(1, m):
        for i in range(m - j):
            tab[i, j] = (
                eps_values[i] * tab[i + 1, j - 1] - eps_values[i + j] * tab[i, j - 1]
            ) / (eps_values[i] - eps_values[i + j])
    est = tab[0, m - 1]
    err = abs(tab[0, m - 1] - tab[0, m - 2]) + abs(tab[0, m - 1] - tab[1, m - 2])
    return float(est), float(err)


def _k_quadrature(n: int, beta: float, x: float) -> KontsevichResult:
    """Damped quadrature down ``EPS_LADDER``, extrapolated to eps = 0.

    The backends are the n = 2 FFT tensor rule (any beta) and the n = 4
    pairing rule (beta = 4); any other (n, beta) raises ValueError before a
    grid is built.  A rung on m grid nodes charges its cost against
    ``MAX_EVALUATIONS``: size * ceil(log2 size) for the FFT of n = 2, with
    size = next_fast_len(2m - 1), and m * (2n + n^2) for the pairing rule.
    """
    p = 4.0 / beta
    if n == 2:
        backend, name, degree = _k_eps_tensor, "quadrature-tensor", int(np.ceil(p))
    elif n == 4 and abs(p - 1.0) < 1e-12:
        backend, name, degree = _k_eps_pair, "quadrature-pair", 3 * (n - 1)
    else:
        raise ValueError(f"no quadrature backend for n={n}, beta={beta}")

    spent = 0
    eps_run, vals = [], []
    for eps in EPS_LADDER:
        t_max, m = _grid_size(eps, degree)
        cost = _fft_cost(m) if n == 2 else m * (2 * n + n * n)
        # the kernel |t_k - t_l|^p peaks at (2 t_max)^p, which must be a double
        overflows = p * math.log(2.0 * t_max) > _LOG_FLOAT_MAX
        if m > MAX_NODES_PER_AXIS or spent + cost > MAX_EVALUATIONS or overflows:
            continue
        vals.append(backend(n, beta, x, eps, _grid(eps, degree)))
        eps_run.append(eps)
        spent += cost
    # extrapolations over the leading 2, 3, ... rungs; the one with the smallest
    # error estimate wins, because a fine rung can be limited by aliasing or
    # rounding rather than by the damping, and then it spoils the extrapolation
    fits = [_richardson(np.asarray(eps_run[:j]), np.asarray(vals[:j]))
            for j in range(2, len(vals) + 1)]
    finite = [j for j, fit in enumerate(fits) if all(map(math.isfinite, fit))]
    if finite:
        best = min(finite, key=lambda j: fits[j][1])
        est, err = fits[best]
        if best + 1 < len(fits):
            # the next rung moved the extrapolation by this much: no less is known
            err = max(err, abs(fits[best + 1][0] - est))
        used = best + 2
    else:
        est, err = (vals[0] if vals else float("nan")), float("inf")
        used = len(vals)
    converged = math.isfinite(est) and math.isfinite(err)
    return KontsevichResult(value=est, error=err if converged else float("inf"),
                            converged=converged, route=name, eps_used=tuple(eps_run[:used]),
                            evaluations=spent)


def kontsevich_k(n: int, beta: float, x: float, route: str = "auto") -> KontsevichResult:
    """Evaluate K_{n,beta}(x) with an explicit error estimate.

    ``route`` is one of "auto", "reduction", "quadrature".  K_{1,beta} = -Ai
    is closed, and n = 1 returns it on every route.  Auto takes the exact
    reduction when 4/beta is an even integer and the regularized quadrature
    otherwise.  The reduction's error is the larger of 1e-10 and the
    rounding bound of its sum, and a sum that cancels below that bound raises
    ValueError.  The quadrature covers n = 2 at any beta (one FFT
    convolution per rung) and n = 4 at beta = 4 (the pairing rule); any
    other (n, beta) raises ValueError.  It runs the rungs of
    ``EPS_LADDER``, charging each one's cost (for n = 2, size * ceil(log2
    size) with size the FFT length) against ``MAX_EVALUATIONS``, and reports
    the extrapolation over the leading rungs whose error estimate is
    smallest; the result's ``eps_used`` and ``evaluations`` say which rungs
    it used and what it spent.  A quadrature that cannot run two rungs
    within ``MAX_EVALUATIONS``, ``MAX_NODES_PER_AXIS`` and the double range, or
    whose extrapolation is not finite, carries converged=False.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 4:
        raise ValueError("direct evaluation is limited to n <= 4")
    if not beta > 0 or math.isinf(4.0 / beta):
        raise ValueError("beta must be > 0, with 4/beta finite")
    if route not in ("auto", "reduction", "quadrature"):
        raise ValueError(f"unknown route {route!r}")
    if n == 1:
        return KontsevichResult(
            value=-float(airy_ai(float(x))), error=1e-13, converged=True, route="closed"
        )
    p = 4.0 / beta
    reducible = abs(p - round(p)) < 1e-12 and int(round(p)) % 2 == 0
    if route == "reduction" or (route == "auto" and reducible):
        value, error = _k_reduction(n, beta, float(x))
        return KontsevichResult(value=value, error=error, converged=True, route="reduction")
    return _k_quadrature(n, beta, float(x))


def edge_prefactor(beta: int) -> float:
    """Constant multiplying K_{beta,beta} in the general-even-beta edge law."""
    if beta % 2 != 0 or beta < 2:
        raise ValueError("edge prefactor is defined for even beta >= 2")
    log_num = lgamma(1.0 + beta / 2.0)
    log_den = 0.0
    for j in range(2, beta + 1):
        log_den += lgamma(1.0 + 2.0 * j / beta) - lgamma(1.0 + 2.0 / beta)
    return float(
        (1.0 / (2.0 * pi)) * (4.0 * pi / beta) ** (beta / 2.0) * np.exp(log_num - log_den)
    )


def kontsevich_edge_density(beta: int, x: float) -> KontsevichResult:
    """Edge density for even beta from the multiple-integral representation.

    Returns `kontsevich_k` of K_{beta,beta}(s x) with its value and error
    scaled by s * prefactor, where s = (beta/2)^(1/3); the edge-variable
    rescale puts the integral representation in the same units as the closed
    forms (s = 1 for beta = 2, so that case is the plain prefactor * K).  A
    quadrature that did not converge keeps converged=False and an infinite
    error.
    """
    if beta % 2 != 0 or beta < 2:
        raise ValueError("kontsevich_edge_density needs even beta >= 2")
    s = (beta / 2.0) ** (1.0 / 3.0)
    res = kontsevich_k(beta, float(beta), s * float(x))
    c = s * edge_prefactor(beta)
    return replace(res, value=c * res.value, error=c * res.error)
