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
pairing the density integrates to one, the radial integral equation is an
identity, and the density bound g (1 - x^2)^((N-3)/2) carries the same 1/y.
`exact_density_small_n` rescales to the sampler's radius sqrt(n(n-1)/2).  The
Gaussian n = 2 density is Kummer's closed form; at n = 3 both densities take
Gauss-Jacobi(beta, beta) on the pieces between coinciding coordinates, in the
log domain.
"""

from __future__ import annotations

from math import ceil, inf, isfinite, lgamma, log, pi, sqrt

import numpy as np
import scipy.special

from .ensemble import EnsembleKind, big_l, trace_sphere
from .quadrature import gauss_panels

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


def log_z_beta_he(n: int, beta: float) -> float:
    """log of the Gaussian normalization (2 pi)^(n/2) prod_j Gamma(1+j beta/2)/Gamma(1+beta/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < beta < inf:
        raise ValueError("beta must be finite and > 0")
    gammas = sum(lgamma(1.0 + j * beta / 2.0) for j in range(1, n + 1))
    return (n / 2.0) * log(2.0 * pi) + (gammas - n * lgamma(1.0 + beta / 2.0))


def _log_radial(nb: float) -> float:
    """log Int_0^inf e^{-r^2/2} r^(Nb-1) dr = log Gamma(Nb/2) 2^(Nb/2-1), for N_beta = nb."""
    return lgamma(nb / 2.0) + (nb / 2.0 - 1.0) * log(2.0)


def log_z_fte(n: int, beta: float) -> float:
    """log of the fixed-trace normalization Z_1 on the unit trace sphere, the Gaussian
    one over the radial integral.  On the sphere of radius r it is Z_r = r^(N_beta - 1)
    Z_1, with N_beta = 2L; the sampler's canonical radius is r^2 = n(n-1)/2."""
    if n < 2:
        raise ValueError("fixed-trace partition function needs n >= 2")
    return log_z_beta_he(n, beta) - _log_radial(2.0 * big_l(n, beta))


# ---------------------------------------------------------------------------
# small-n exact densities

# scipy's hyp1f1(-beta/2, 1/2, -x^2/2) was held to 40-digit mpmath for beta up to 140
_N2_BETA_MAX = 140.0


def _rho_gauss_n2(beta: float, xs: np.ndarray) -> np.ndarray:
    # int |x - y|^beta e^{-y^2/2} dy = 2^((beta+1)/2) Gamma((beta+1)/2) M(-beta/2, 1/2, -x^2/2)
    # with M Kummer's function; the prefactor is taken in the log domain
    if not beta <= _N2_BETA_MAX:
        raise ValueError(f"the n=2 exact density holds beta <= {_N2_BETA_MAX:g}, where its "
                         f"Kummer function was checked; got n=2, beta={beta}")
    half_x2 = xs * xs / 2.0
    log_c = 0.5 * (beta + 1.0) * log(2.0) + lgamma(0.5 * (beta + 1.0)) - log_z_beta_he(2, beta)
    m = scipy.special.hyp1f1(-beta / 2.0, 0.5, -half_x2)
    # M overflows only far in the tail (from |x| = 1145 at beta = 140, farther out at
    # smaller beta), where the density is below e^-650000 and its prefactor is 0
    return np.exp(log_c - half_x2) * np.where(np.isfinite(m), m, 0.0)


_N3_BETA_MAX = 113.0  # Gamma(3 beta/2 + 1) in the Laguerre weights overflows past beta ~ 113.7


def _n3_rules(beta: float):
    """(nodes, log weights) of the n = 3 rules: Jacobi(beta, beta) with 30 nodes and
    generalized Laguerre(3 beta/2) with 40 for the Gaussian side, and Jacobi(beta,
    beta) with 20 + ceil(3 sqrt beta) nodes (the arc integrand's peak narrows as
    1/sqrt beta), divided by (1 - xi^2)^beta, for the arcs."""
    if not beta <= _N3_BETA_MAX:
        raise ValueError(f"the n=3 exact rules hold beta <= {_N3_BETA_MAX:g}, where their "
                         f"Gauss-Laguerre weights stay finite; got n=3, beta={beta}")
    xi, wj = scipy.special.roots_jacobi(30, beta, beta)
    t, wl = scipy.special.roots_genlaguerre(40, 1.5 * beta)
    arc, wa = scipy.special.roots_jacobi(20 + ceil(3.0 * sqrt(beta)), beta, beta)
    return (xi, np.log(wj)), (t, np.log(wl)), (arc, np.log(wa) - beta * np.log1p(-arc * arc))


def _rho_gauss_n3(beta: float, xs: np.ndarray) -> np.ndarray:
    # x lowest, middle or highest of x, y < z (times 2 for y <-> z): the gaps
    # u = r w, v = r (1 - w) of the ordered triple give |Delta| = r^3 w (1 - w)
    # and e^{-x^2 - b x r - a r^2}; Jacobi in w, Laguerre in t = a r^2.
    (xi, lw), (t, lt), _ = _n3_rules(beta)
    w = 0.5 * (1.0 + xi)
    v = 1.0 - w
    a = np.stack([1.0 + w * w, w * w + v * v, 1.0 + v * v]) / 2.0
    b = np.stack([1.0 + w, 1.0 - 2.0 * w, -1.0 - v])
    br = (b[..., None] * np.sqrt(t / a[..., None])).ravel()
    lc = (lw[:, None] + lt - (1.5 * beta + 1.0) * np.log(a)[..., None]).ravel()
    lsum = scipy.special.logsumexp(lc - xs[:, None] * br, axis=1)
    return np.exp(lsum - (2.0 * beta + 1.0) * log(2.0) - 1.5 * xs * xs - log_z_beta_he(3, beta))


def _rho_fte1_n2(beta: float, s: np.ndarray) -> np.ndarray:
    lz = log_z_fte(2, beta)
    inside = np.abs(s) < 1.0
    s_in = s[inside]
    y = np.sqrt(1.0 - s_in * s_in)
    out = np.zeros(s.shape)
    out[inside] = (np.abs(s_in - y) ** beta + np.abs(s_in + y) ** beta) / y * np.exp(-lz)
    return out


# arc-node elements per block of |s| values in `_rho_fte1_n3`, which bounds its working set
_ARC_BLOCK = 1 << 18


def _log_arc_sums(beta: float, u: np.ndarray, xi: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """log of the circle integral of |Delta|^beta at each |s| of the column ``u``."""
    y = np.sqrt(1.0 - u * u)
    alpha = np.arccos(np.minimum(u / y, 1.0))
    meet = np.where(u <= y, np.hstack([alpha, 2.0 * pi - alpha, pi / 2.0 - alpha,
                                       pi / 2.0 + alpha]), pi / 4.0)
    kinks = np.sort(np.hstack([meet, np.tile([pi / 4.0, 5.0 * pi / 4.0], (len(u), 1))]))
    lo, hi = kinks, np.hstack([kinks[:, 1:], kinks[:, :1] + 2.0 * pi])
    half = (0.5 * (hi - lo))[..., None]
    phi = 0.5 * (hi + lo)[..., None] + half * xi
    x2, x3 = y[..., None] * np.cos(phi), y[..., None] * np.sin(phi)
    with np.errstate(divide="ignore"):  # empty arcs and nodes on a kink weigh nothing
        lf = beta * np.log(np.abs((u[..., None] - x2) * (u[..., None] - x3) * (x2 - x3)))
        return scipy.special.logsumexp(lf + np.log(half) + lw, axis=(1, 2))


def _rho_fte1_n3(beta: float, s: np.ndarray) -> np.ndarray:
    # On the circle y = sqrt(1 - s^2) in the plane x1 = s, |Delta|^beta vanishes
    # like |phi - kink|^beta at the <= 6 angles where two coordinates meet, so a
    # Jacobi(beta, beta) rule per arc sees a smooth integrand.  Each |s| runs
    # once, in blocks of about `_ARC_BLOCK` arc nodes.
    _, _, (xi, lw) = _n3_rules(beta)
    u, back = np.unique(np.abs(s), return_inverse=True)
    u = u[u < 1.0, None]
    rows = max(1, _ARC_BLOCK // (6 * xi.size))
    lsum = np.empty(u.size)
    for lo in range(0, u.size, rows):
        lsum[lo:lo + rows] = _log_arc_sums(beta, u[lo:lo + rows], xi, lw)
    out = np.zeros(back.size)
    inside = back < u.size
    out[inside] = np.exp(lsum - log_z_fte(3, beta))[back[inside]]
    return out.reshape(s.shape)


def _rho_fte1(n: int, beta: float, s) -> np.ndarray:
    """Unit-sphere fixed-trace density at the points of ``s``."""
    s = np.asarray(s, dtype=float)
    out = (_rho_fte1_n2 if n == 2 else _rho_fte1_n3)(beta, s.ravel())
    return out.reshape(s.shape)


def exact_density_small_n(n: int, beta: float, kind: EnsembleKind, x_grid):
    """One-point density at n = 2 or 3 by direct quadrature.

    Returns the ndarray of heights at the points of ``x_grid``.  For the
    fixed-trace kind the delta constraint is eliminated
    analytically on the circle (n=2) or the 2-sphere (n=3) of the canonical
    radius sqrt(n(n-1)/2), the one the sampler draws.  Accuracy: ~3e-14
    relative for the Gaussian n = 2 density, Kummer's closed form (hyp1f1
    against 40-digit mpmath, beta in [0.3, 140], |x| <= 100); ~1e-15 at n = 3,
    but for the fixed-trace density at non-integer beta just above |x|/r =
    1/sqrt(2), where two kinks have just left the circle (~3e-4 at beta = 0.5).
    Refuses first a beta that is not finite and > 0; the Gaussian n = 2
    density refuses beta > 140 (`_N2_BETA_MAX`), and n = 3 refuses beta > 113
    (`_N3_BETA_MAX`), before building any array.
    """
    if not (isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and > 0, got beta={beta}")
    if n not in (2, 3):
        raise ValueError("exact densities are implemented for n in {2, 3}")
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if kind is EnsembleKind.GAUSSIAN:
        return (_rho_gauss_n2 if n == 2 else _rho_gauss_n3)(beta, xs)
    r = sqrt(trace_sphere(n))
    return _rho_fte1(n, beta, xs / r) / r


_GRADE_RATIO = 0.25
_GRADE_LEVELS = 12


def _kink_panel_edges(kink: float, top: float, graded: bool, panels: int) -> np.ndarray:
    """Edges of `panels` equal panels on each side of the kink in [0, top].

    With `graded`, the panel on each side of the kink is refined geometrically
    toward it, for a fractional power of |w - kink|.
    """
    left = np.linspace(0.0, kink, panels + 1)
    right = np.linspace(kink, top, panels + 1)
    if graded:
        steps = _GRADE_RATIO ** np.arange(_GRADE_LEVELS + 1)
        left = np.concatenate([left[:-2], kink - (kink - left[-2]) * steps, [kink]])
        right = np.concatenate([[kink], kink + (right[1] - kink) * steps[::-1], right[2:]])
    return np.concatenate([left[:-1], right]) if kink > 0.0 else right


def _radial_rhs(n: int, beta: float, xs: np.ndarray) -> np.ndarray:
    """(1/C) Int_|x| e^{-r^2/2} r^(Nb-2) rho_fte1(x/r) dr at each x, on Gauss panels.

    r = |x| + w^2 removes the endpoint square-root singularity; the range of w
    splits at the n = 2 kink x/r = 1/sqrt(2), w = sqrt((sqrt 2 - 1)|x|), into
    max(3, ceil(sqrt Nb)) panels a side, as the peak of r^(Nb-2) e^{-r^2/2}
    narrows in w.  All nodes of all x go through one density call.
    """
    nb = 2.0 * big_l(n, beta)
    panels = max(3, ceil(sqrt(nb)))  # 20 nodes each
    # rho_fte1 carries |s - 1/sqrt 2|^beta at n = 2 and |s - 1/sqrt 2|^(beta + 1/2) at
    # n = 3 (where two kinks merge): smooth only for integer, respectively even, beta
    graded = not float(beta / (n - 1)).is_integer()
    ws, wts, rows = [], [], []
    for i, ax in enumerate(np.abs(xs)):
        top = sqrt(max(40.0 - ax, 1.0))
        kink = min(sqrt((sqrt(2.0) - 1.0) * ax), top)
        edges = _kink_panel_edges(kink, top, graded, panels)
        w, wt = (a.ravel() for a in gauss_panels(edges[:-1], edges[1:], 20))
        ws.append(w)
        wts.append(wt)
        rows.append(np.full(len(w), i))
    w, wt, rows = np.concatenate(ws), np.concatenate(wts), np.concatenate(rows)
    r = np.abs(xs)[rows] + w * w
    f = (np.exp(-r * r / 2.0 + (nb - 2.0) * np.log(r) - _log_radial(nb))
         * _rho_fte1(n, beta, xs[rows] / r) * 2.0 * w)
    return np.bincount(rows, weights=f * wt, minlength=len(xs))


def verify_integral_equation(n: int, beta: float, x_grid) -> float:
    """Max |LHS - RHS| of the radial identity linking the two densities.

    LHS: the Gaussian `exact_density_small_n`, which refuses an n outside
    {2, 3} and the n = 2 and n = 3 beta caps before the RHS is built.  RHS: (1/C)
    Int_|x| e^{-r^2/2} r^(Nb-2) rho_fte1(x/r) dr with C = Gamma(Nb/2)
    2^(Nb/2-1), on Gauss-Legendre panels in w, r = |x| + w^2.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        lhs = exact_density_small_n(n, beta, EnsembleKind.GAUSSIAN, xs)
        if xs.size == 0:
            return 0.0
        rhs = _radial_rhs(n, beta, xs)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise ValueError(f"the integral equation at n={n}, beta={beta} overflows the "
                         "double range; its sides are not finite")
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Hermite zeros and the Vandermonde maximum on the trace sphere

def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return scipy.special.roots_hermite(n)[0]


def log_vandermonde_sq(points) -> float | np.ndarray:
    """log prod_{j<k} (x_j - x_k)^2 over the last axis, -inf where two coordinates tie.

    A float for one point set, an array of one value per row for a stack of them.
    """
    x = np.asarray(points, dtype=float)
    rows, cols = np.triu_indices(x.shape[-1], k=1)
    diffs = np.abs(x[..., rows] - x[..., cols])
    with np.errstate(divide="ignore"):
        out = 2.0 * np.sum(np.log(diffs), axis=-1)
    out = np.where(np.any(diffs == 0.0, axis=-1), -inf, out)
    return float(out) if x.ndim == 1 else out


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
    """log of the finite-N constant g_{N beta} multiplying (1-x^2)^((N-3)/2) in the bound.

    rho(r x) <= max|Delta|^beta |S^(n-2)| y^(n-2) / (Z_1 r y) on the slice x_1 = x of
    the unit sphere, a sphere S^(n-2) of radius y = sqrt(1 - x^2); g is its four terms.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    log_r2 = log(trace_sphere(n))
    log_delta_max = (beta / 2.0) * (log_vandermonde_sq_max(n) - (n * (n - 1) / 2.0) * log_r2)
    log_slice_area = log(2.0) + ((n - 1) / 2.0) * log(pi) - lgamma((n - 1) / 2.0)
    return log_delta_max + log_slice_area - log_z_fte(n, beta) - 0.5 * log_r2


def density_upper_bound(n: int, beta: float, x) -> np.ndarray | float:
    """Finite-N upper bound g_{N beta} (1-x^2)^((N-3)/2) on the rescaled
    fixed-trace density rho(sqrt(n(n-1)/2) x), for |x| <= 1.

    At |x| = 1 it is 0 for n > 3, g_{3 beta} at n = 3 and inf at n = 2.  Where
    the bound exceeds the double range it is inf, the correctly rounded value,
    with no warning: from n = 519 at beta = 4 (666 at beta = 2, 893 at beta = 1)
    near x = 0, where log g_{N beta} passes log(DBL_MAX) ~ 709.78."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("bulk coordinate must satisfy |x| <= 1")
    with np.errstate(over="ignore"):
        out = np.exp(log_g_n_beta(n, beta) + scipy.special.xlogy((n - 3.0) / 2.0, 1.0 - xs * xs))
    return float(out[0]) if np.ndim(x) == 0 else out
