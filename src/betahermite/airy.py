"""Airy function evaluators and the closed-form soft-edge densities.

Ai and Ai' are computed from the Maclaurin pair of power series for moderate
arguments (summed in extended precision to control cancellation) and from the
standard exponential/trigonometric asymptotic expansions outside that band.
The series band is asymmetric: on the positive axis the recessive solution is
exponentially smaller than the series terms, so the crossover sits at +6.2,
while the oscillatory negative axis supports the series out to -8.

Edge densities: ``edge_density_closed`` evaluates the classical closed forms
for beta in {1, 2, 4}.  Note a units caveat for beta=4: the closed form is
written in the doubled-argument convention, while edge histograms produced by
this package's scaling follow the rescaled profile
(beta/2)^(-1/3) * Ai_beta((beta/2)^(-1/3) t); the two agree for beta in
{1, 2}.  See ``kontsevich.kontsevich_edge_density`` for the multiple-integral
route, which is normalized to agree with the closed forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gamma, pi, sqrt

import numpy as np

__all__ = [
    "AI0",
    "AIP0",
    "AiryAccuracyWarning",
    "EdgeDensityValue",
    "airy_ai",
    "airy_ai_prime",
    "airy_tail",
    "edge_density_closed",
    "has_closed_edge_form",
    "ai_derivatives",
]

AI0 = 3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0)   # Ai(0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / gamma(1.0 / 3.0)  # Ai'(0)

_SWITCH_POS = 6.2
_SWITCH_NEG = -8.0
_X_LIMIT = 200.0


class AiryAccuracyWarning(UserWarning):
    """Raised when |x| exceeds the double-precision accuracy domain."""


def _series(x):
    """Maclaurin pair, extended precision.  Returns (Ai, Ai')."""
    x = np.asarray(x, dtype=np.longdouble)
    x3 = x * x * x
    nonzero = x != 0
    inv_x = np.where(nonzero, x, 1.0)
    inv_x = np.where(nonzero, 1.0 / inv_x, 0.0)

    f = np.ones_like(x)
    g = x.copy()
    fp = np.zeros_like(x)
    gp = np.ones_like(x)
    ta = np.ones_like(x)
    tb = x.copy()
    eps = np.finfo(np.longdouble).eps
    for k in range(1, 200):
        ta = ta * x3 / ((3 * k - 1) * (3 * k))
        tb = tb * x3 / ((3 * k) * (3 * k + 1))
        f += ta
        g += tb
        fp += ta * (3 * k) * inv_x
        gp += tb * (3 * k + 1) * inv_x
        if np.all(np.abs(ta) < eps) and np.all(np.abs(tb) < eps):
            break
    c1 = np.longdouble(AI0)
    c2 = np.longdouble(AIP0)
    ai = c1 * f + c2 * g
    aip = c1 * fp + c2 * gp
    # x = 0 has exact constants; the masked inv_x already gives fp=0, gp=1
    return np.asarray(ai, dtype=float), np.asarray(aip, dtype=float)


def _uv_coefficients(kmax=40):
    u = np.empty(kmax + 1)
    v = np.empty(kmax + 1)
    u[0] = v[0] = 1.0
    for k in range(1, kmax + 1):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        v[k] = u[k] * (6 * k + 1) / (1.0 - 6 * k)
    return u, v


_U, _V = _uv_coefficients()


def _asymptotic_pos(x):
    """Exponential expansion for x >> 0, optimally truncated per element."""
    x = np.asarray(x, dtype=float)
    zeta = (2.0 / 3.0) * x**1.5
    zi = 1.0 / zeta
    su = np.zeros_like(x)
    sv = np.zeros_like(x)
    prev = np.full_like(x, np.inf)
    stop = np.zeros(x.shape, dtype=bool)
    for k in range(len(_U)):
        mag = np.abs(_U[k]) * zi**k
        grow = mag > prev
        use = ~stop & ~grow
        sgn = -1.0 if k % 2 else 1.0
        su = np.where(use, su + sgn * _U[k] * zi**k, su)
        sv = np.where(use, sv + sgn * _V[k] * zi**k, sv)
        stop |= grow
        prev = mag
    with np.errstate(under="ignore"):
        damp = np.exp(-zeta)
    ai = damp / (2.0 * sqrt(pi) * x**0.25) * su
    aip = -(x**0.25) * damp / (2.0 * sqrt(pi)) * sv
    return ai, aip


def _asymptotic_neg(x):
    """Trigonometric expansion for x << 0, optimally truncated per element."""
    z = -np.asarray(x, dtype=float)
    zeta = (2.0 / 3.0) * z**1.5
    zi = 1.0 / zeta
    c = np.cos(zeta - pi / 4.0)
    s = np.sin(zeta - pi / 4.0)
    ue = np.zeros_like(z)
    uo = np.zeros_like(z)
    ve = np.zeros_like(z)
    vo = np.zeros_like(z)
    prev = np.full_like(z, np.inf)
    stop = np.zeros(z.shape, dtype=bool)
    for k in range(len(_U) // 2 - 1):
        sgn = -1.0 if k % 2 else 1.0
        t_even = _U[2 * k] * zi ** (2 * k)
        grow = np.abs(t_even) > prev
        use = ~stop & ~grow
        ue = np.where(use, ue + sgn * t_even, ue)
        uo = np.where(use, uo + sgn * _U[2 * k + 1] * zi ** (2 * k + 1), uo)
        ve = np.where(use, ve + sgn * _V[2 * k] * zi ** (2 * k), ve)
        vo = np.where(use, vo + sgn * _V[2 * k + 1] * zi ** (2 * k + 1), vo)
        stop |= grow
        prev = np.abs(t_even)
    q = sqrt(pi) * z**0.25
    ai = (c * ue + s * uo) / q
    aip = (z**0.25 / sqrt(pi)) * (s * ve - c * vo)
    return ai, aip


def _ai_aip(x):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(np.abs(x) > _X_LIMIT):
        warnings.warn(
            f"|x| > {_X_LIMIT:g}: Airy evaluation loses double precision "
            "(oscillation phase error / exponent range)",
            AiryAccuracyWarning,
            stacklevel=3,
        )
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    m_ser = (x >= _SWITCH_NEG) & (x <= _SWITCH_POS)
    m_pos = x > _SWITCH_POS
    m_neg = x < _SWITCH_NEG
    if m_ser.any():
        ai[m_ser], aip[m_ser] = _series(x[m_ser])
    if m_pos.any():
        ai[m_pos], aip[m_pos] = _asymptotic_pos(x[m_pos])
    if m_neg.any():
        ai[m_neg], aip[m_neg] = _asymptotic_neg(x[m_neg])
    if scalar:
        return float(ai[0]), float(aip[0])
    return ai, aip


def airy_ai(x):
    """Ai(x); scalar in, float out; ndarray in, ndarray out."""
    return _ai_aip(x)[0]


def airy_ai_prime(x):
    """Ai'(x), same accuracy contract as airy_ai."""
    return _ai_aip(x)[1]


def airy_tail(x, upper: float = 20.0):
    """Integral of Ai over (x, infinity), absolute error well under 1e-10.

    Composite 12-point Gauss-Legendre panels up to ``upper``; the remainder
    beyond 20 is below 1e-26 and is dropped.
    """
    x = float(x)
    if x >= upper:
        # deep decay: two-term exponential tail formula
        zeta = (2.0 / 3.0) * x**1.5
        return float(np.exp(-zeta) / (2.0 * sqrt(pi) * x**0.75) * (1.0 - 41.0 / (72.0 * zeta)))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    width = 0.2
    n_panels = int(np.ceil((upper - x) / width))
    edges = np.linspace(x, upper, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = airy_ai(pts.ravel()).reshape(pts.shape)
    return float(np.sum(vals @ weights * half))


@dataclass
class EdgeDensityValue:
    """Edge-density value at one scaled coordinate."""

    x: float
    value: float
    beta: float
    error: float | None = None


def has_closed_edge_form(beta: float) -> bool:
    """True for the beta values with a closed-form edge density: 1, 2 and 4."""
    return beta in (1, 2, 4)


def edge_density_closed(beta: int, x) -> EdgeDensityValue:
    """Closed-form edge density Ai_beta(x) for beta in {1, 2, 4}.

    beta=1: Ai'^2 - x Ai^2 + Ai/2 * (1 - int_x^inf Ai)
    beta=2: Ai'^2 - x Ai^2
    beta=4: doubled arguments, Ai'(2x)^2 - 2x Ai(2x)^2 - Ai(2x) int_x^inf Ai(2t) dt
    """
    if not has_closed_edge_form(beta):
        raise ValueError(
            f"closed forms exist for beta in {{1, 2, 4}}, got {beta}; "
            "use kontsevich_edge_density for other even beta"
        )
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if beta == 2:
        ai, aip = _ai_aip(xs)
        val = aip**2 - xs * ai**2
    elif beta == 1:
        ai, aip = _ai_aip(xs)
        tails = np.array([airy_tail(t) for t in xs])
        val = aip**2 - xs * ai**2 + 0.5 * ai * (1.0 - tails)
    else:
        ai, aip = _ai_aip(2.0 * xs)
        # int_x^inf Ai(2t) dt = airy_tail(2x)/2
        tails = np.array([0.5 * airy_tail(2.0 * t) for t in xs])
        val = aip**2 - 2.0 * xs * ai**2 - ai * tails
    if np.ndim(x) == 0:
        return EdgeDensityValue(x=float(x), value=float(val[0]), beta=float(beta))
    return EdgeDensityValue(x=np.asarray(x, dtype=float), value=val, beta=float(beta))


def ai_derivatives(x: float, m_max: int) -> np.ndarray:
    """[Ai(x), Ai'(x), ..., Ai^(m_max)(x)] via the differential recurrence.

    Orders >= 2 reduce through A_m = x*A_{m-2} + (m-2)*A_{m-3}.
    """
    ai, aip = _ai_aip(float(x))
    out = np.empty(m_max + 1)
    out[0] = ai
    if m_max >= 1:
        out[1] = aip
    for m in range(2, m_max + 1):
        out[m] = x * out[m - 2] + (m - 2) * (out[m - 3] if m >= 3 else 0.0)
    return out
