"""Exact and oracle computations: partition functions, small-n densities,
the Gaussian/fixed-trace integral equation, the Vandermonde maximum on the
trace sphere, and the finite-N density upper bound.

All partition-function and bound arithmetic runs in the log domain, and
those functions return the plain float log; the partition values overflow
doubles well before N = 100.

Fixed-trace normalization convention: the partition functions equal the
integral of |Delta|^beta over the trace sphere with respect to the surface
measure, so the one-point marginal carries the sphere-slice Jacobian 1/y
with y = sqrt(1 - x^2) (unit strength, the sphere of radius 1).  With that
pairing the density integrates to one and the radial integral equation is
an identity.  `exact_density_small_n` rescales to the sampler's radius
sqrt(n(n-1)/2).
"""

from __future__ import annotations

from math import inf, lgamma, log, pi, sqrt

import numpy as np
import scipy.integrate
import scipy.special

from .ensemble import EnsembleKind
from .moments import big_l

__all__ = [
    "log_z_beta_he",
    "log_z_fte",
    "exact_density_small_n",
    "verify_integral_equation",
    "hermite_zeros",
    "log_vandermonde_sq",
    "log_vandermonde_sq_max",
    "c_beta",
    "log_g_n_beta",
    "density_upper_bound",
]


def _log_gamma_product(n: int, beta: float) -> float:
    """log prod_{j=1..n} Gamma(1 + j beta/2)/Gamma(1 + beta/2)."""
    return float(sum(lgamma(1.0 + j * beta / 2.0) for j in range(1, n + 1))
                 - n * lgamma(1.0 + beta / 2.0))


def log_z_beta_he(n: int, beta: float) -> float:
    """log of the Gaussian-ensemble normalization (2 pi)^(n/2) prod Gamma ratios."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < beta < inf:
        raise ValueError("beta must be finite and > 0")
    return (n / 2.0) * log(2.0 * pi) + _log_gamma_product(n, beta)


def log_z_fte(n: int, beta: float) -> float:
    """log of the fixed-trace normalization Z_1 on the unit trace sphere.

    On the sphere of radius r the normalization is Z_r = r^(N_beta - 1) Z_1,
    with N_beta = 2L; the sampler's canonical radius is r^2 = n(n-1)/2.
    """
    if n < 2:
        raise ValueError("fixed-trace partition function needs n >= 2")
    nb = 2.0 * big_l(n, beta)
    return ((n / 2.0) * log(2.0 * pi) + (1.0 - nb / 2.0) * log(2.0)
            - lgamma(nb / 2.0) + _log_gamma_product(n, beta))


# ---------------------------------------------------------------------------
# small-n exact densities

def _rho_gauss_n2(beta: float, x1: float) -> float:
    lz = log_z_beta_he(2, beta)

    def f(y):
        return np.abs(x1 - y) ** beta * np.exp(-y * y / 2.0)

    v = (scipy.integrate.quad(f, -np.inf, x1, limit=200)[0]
         + scipy.integrate.quad(f, x1, np.inf, limit=200)[0])
    return float(np.exp(-x1 * x1 / 2.0 - lz) * v)


_GL220 = np.polynomial.legendre.leggauss(220)


def _rho_gauss_n3(beta: float, x1: float) -> float:
    # tensor Gauss-Legendre on [-12, 12]^2; geometric convergence for even
    # beta, slower (kinked |Delta|) otherwise
    lz = log_z_beta_he(3, beta)
    nodes, wts = _GL220
    y = nodes * 12.0
    w = wts * 12.0
    yy, zz = np.meshgrid(y, y, indexing="ij")
    ww = np.outer(w, w)
    d = (np.abs((x1 - yy) * (x1 - zz) * (yy - zz))) ** beta
    e = np.exp(-(yy**2 + zz**2) / 2.0)
    return float(np.exp(-x1 * x1 / 2.0 - lz) * np.sum(d * e * ww))


def _rho_fte1_n2(beta: float, s: float) -> float:
    if abs(s) >= 1.0:
        return 0.0
    lz = log_z_fte(2, beta)
    y = sqrt(1.0 - s * s)
    return float((abs(s - y) ** beta + abs(s + y) ** beta) / y * np.exp(-lz))


def _phi_kinks(s: float, y: float) -> list[float]:
    """Angles where a pair of the three circle coordinates coincides."""
    ks = [pi / 4.0, 5.0 * pi / 4.0]
    if y > 0 and abs(s / y) <= 1.0:
        a = float(np.arccos(s / y))
        b = float(np.arcsin(np.clip(s / y, -1, 1)))
        ks += [a, 2.0 * pi - a, b % (2.0 * pi), (pi - b) % (2.0 * pi)]
    return sorted(k for k in ks if 0.0 < k < 2.0 * pi)


_GL20 = np.polynomial.legendre.leggauss(20)


def _rho_fte1_n3(beta: float, s: float) -> float:
    if abs(s) >= 1.0:
        return 0.0
    lz = log_z_fte(3, beta)
    y = sqrt(1.0 - s * s)

    def integrand(phi):
        x2 = y * np.cos(phi)
        x3 = y * np.sin(phi)
        return (np.abs((s - x2) * (s - x3) * (x2 - x3))) ** beta

    if float(beta).is_integer() and int(beta) % 2 == 0:
        # smooth periodic integrand, trapezoid is spectral
        phi = np.linspace(0.0, 2.0 * pi, 4096, endpoint=False)
        val = integrand(phi).mean() * 2.0 * pi
    else:
        # split at the |.| kinks, Gauss panels on each analytic piece
        pts = [0.0, *_phi_kinks(s, y), 2.0 * pi]
        nodes, wts = _GL20
        val = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            sub = np.linspace(a, b, 9)
            for aa, bb in zip(sub[:-1], sub[1:]):
                mid, half = 0.5 * (aa + bb), 0.5 * (bb - aa)
                val += float(np.sum(integrand(mid + half * nodes) * wts) * half)
    return float(val * np.exp(-lz))


def _rho_fte1(n: int, beta: float, s: float) -> float:
    return _rho_fte1_n2(beta, s) if n == 2 else _rho_fte1_n3(beta, s)


def exact_density_small_n(n: int, beta: float, kind: EnsembleKind, x_grid):
    """One-point density at n = 2 or 3 by direct quadrature.

    Returns the ndarray of heights at the points of ``x_grid``.  For the
    fixed-trace kind the delta constraint is eliminated
    analytically on the circle (n=2) or the 2-sphere (n=3) of the canonical
    radius sqrt(n(n-1)/2), the one the sampler draws.  Intended accuracy
    ~1e-8 (even beta at n=3; the kinked odd-beta integrands at n=3 converge
    more slowly).
    """
    if n not in (2, 3):
        raise ValueError("exact densities are implemented for n in {2, 3}")
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if kind is EnsembleKind.GAUSSIAN:
        f = _rho_gauss_n2 if n == 2 else _rho_gauss_n3
        vals = np.array([f(beta, x) for x in xs])
    else:
        r = sqrt(n * (n - 1) / 2.0)
        vals = np.array([_rho_fte1(n, beta, x / r) / r for x in xs])
    return vals


def verify_integral_equation(n: int, beta: float, x_grid) -> float:
    """Max |LHS - RHS| of the radial identity linking the two densities.

    LHS: Gaussian density at n.  RHS: (1/C) Int_|x| e^{-r^2/2} r^(Nb-2)
    rho_fte1(x/r) dr with C = Gamma(Nb/2) 2^(Nb/2-1).  The endpoint
    square-root singularity of the unit-strength density is removed by the
    substitution r = |x| + w^2.
    """
    if n not in (2, 3):
        raise ValueError("integral equation check is implemented for n in {2, 3}")
    nb = 2.0 * big_l(n, beta)
    lc = lgamma(nb / 2.0) + (nb / 2.0 - 1.0) * log(2.0)
    gauss = _rho_gauss_n2 if n == 2 else _rho_gauss_n3

    def rhs(x1: float) -> float:
        ax = abs(x1)
        if ax < 1e-12:
            f = lambda r: np.exp(-r * r / 2.0 + (nb - 2.0) * np.log(r) - lc) * _rho_fte1(n, beta, 0.0)
            return scipy.integrate.quad(f, 1e-300, 40.0, limit=300)[0]

        def fw(w):
            r = ax + w * w
            return (np.exp(-r * r / 2.0 + (nb - 2.0) * np.log(r) - lc)
                    * _rho_fte1(n, beta, x1 / r) * 2.0 * w)

        return scipy.integrate.quad(fw, 0.0, sqrt(max(40.0 - ax, 1.0)), limit=300)[0]

    worst = 0.0
    for x1 in np.atleast_1d(np.asarray(x_grid, dtype=float)):
        worst = max(worst, abs(gauss(beta, float(x1)) - rhs(float(x1))))
    return worst


# ---------------------------------------------------------------------------
# Hermite zeros and the Vandermonde maximum on the trace sphere

def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return scipy.special.roots_hermite(n)[0]


def log_vandermonde_sq(points) -> float:
    """log prod_{j<k} (x_j - x_k)^2."""
    x = np.asarray(points, dtype=float)
    n = len(x)
    diffs = np.abs(x[:, None] - x[None, :])[np.triu_indices(n, k=1)]
    if np.any(diffs == 0.0):
        return float("-inf")
    return float(2.0 * np.sum(np.log(diffs)))


def log_vandermonde_sq_max(n: int) -> float:
    """log of the maximum of the squared Vandermonde over sum x^2 <= n(n-1)/2.

    Attained at the Hermite zeros; the closed form is
    2^(-n(n-1)/2) prod_v exp(v ln v).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    v = np.arange(1, n + 1)
    return -(n * (n - 1) / 2.0) * log(2.0) + float(np.sum(v * np.log(v)))


# ---------------------------------------------------------------------------
# density upper bound

def c_beta(beta: float) -> float:
    """Limit constant exp(1 - ln sqrt(2 pi) + b/2 - (b/2) ln(b/2)) Gamma(1+b/2)."""
    b = float(beta)
    return float(np.exp(1.0 - log(sqrt(2.0 * pi)) + b / 2.0 - (b / 2.0) * log(b / 2.0)
                        + lgamma(1.0 + b / 2.0)))


def log_g_n_beta(n: int, beta: float) -> float:
    """log of the finite-N constant multiplying (1-x^2)^((N-2)/2) in the bound."""
    if n < 2:
        raise ValueError("n must be >= 2")
    nb = 2.0 * big_l(n, beta)
    v = np.arange(1, n + 1)
    s_vlnv = float(np.sum(v * np.log(v)))
    return ((beta / 2.0) * s_vlnv - 0.5 * log(pi) - lgamma((n - 1) / 2.0)
            + ((n - 2.0) / 2.0) * log(n * (n - 1) / 2.0)
            + lgamma(nb / 2.0) - ((nb - 1.0) / 2.0) * log(n * (n - 1) / 2.0)
            - _log_gamma_product(n, beta))


def density_upper_bound(n: int, beta: float, x) -> np.ndarray | float:
    """Finite-N upper bound g_{N beta} (1-x^2)^((N-2)/2) on the rescaled
    fixed-trace density rho(sqrt(n(n-1)/2) x), for |x| <= 1."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("bulk coordinate must satisfy |x| <= 1")
    lg = log_g_n_beta(n, beta)
    with np.errstate(divide="ignore"):
        out = np.exp(lg + ((n - 2.0) / 2.0) * np.log(np.maximum(1.0 - xs * xs, 0.0)))
    out = np.where((np.abs(xs) == 1.0) & (n > 2), 0.0, out)
    return float(out[0]) if np.ndim(x) == 0 else out
