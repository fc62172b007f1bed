"""Airy function evaluators and the closed-form soft-edge densities.

Ai and Ai' come from ``scipy.special.airy``; ``airy_tail`` integrates Ai with
Gauss-Legendre panels on one fixed lattice, and ``ai_derivatives`` extends the
pair to higher orders through the Airy equation.  Ai and Ai' warn
``AiryAccuracyWarning`` for x < -200, where their oscillation outruns double
precision; for large positive x they are 0, the correctly rounded value, without
a warning.

Edge densities: ``edge_density_closed`` evaluates the classical closed forms
for beta in {1, 2, 4}.  It, ``airy_ai``, ``airy_ai_prime`` and ``airy_tail``
take whole arrays: a float for a scalar, an ndarray for an array.  Note a
units caveat for beta=4: the closed form is written in the doubled-argument
convention, while edge histograms produced by this package's scaling follow
the rescaled profile (beta/2)^(-1/3) * Ai_beta((beta/2)^(-1/3) t); the two
agree for beta in {1, 2}.  See ``kontsevich.kontsevich_edge_density`` for the
multiple-integral route, which is normalized to agree with the closed forms.
"""

from __future__ import annotations

import warnings
from math import gamma, pi, sqrt

import numpy as np
import scipy.special

from .quadrature import gauss_panels

__all__ = [
    "AI0",
    "AIP0",
    "AiryAccuracyWarning",
    "airy_ai",
    "airy_ai_prime",
    "airy_tail",
    "edge_density_closed",
    "has_closed_edge_form",
    "ai_derivatives",
]

AI0 = 3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0)   # Ai(0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / gamma(1.0 / 3.0)  # Ai'(0)

_X_LIMIT = 200.0
_TAIL_TOP, _TAIL_STEP = 20.0, 0.2  # airy_tail's lattice edges are _TAIL_TOP - _TAIL_STEP k
_TAIL_BLOCK = 1 << 13  # points per block of airy_tail


class AiryAccuracyWarning(UserWarning):
    """Raised for x < -200, where Ai and Ai' oscillate too fast for double
    precision to hold their phase.  Large positive x needs no warning: Ai and
    Ai' underflow to 0, the correctly rounded value, from x ~ 103 on."""


def _ai_aip(x):
    """(Ai(x), Ai'(x)): floats for a scalar x, ndarrays for an array."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -_X_LIMIT):
        warnings.warn(
            f"x < {-_X_LIMIT:g}: Airy evaluation loses double precision "
            "(oscillation phase error)",
            AiryAccuracyWarning,
            stacklevel=3,
        )
    # Ai and Ai' are 0 at x = 200 already; the clamp keeps out scipy's NaN above x ~ 1e6
    ai, aip, _, _ = scipy.special.airy(np.minimum(x, _X_LIMIT))
    if x.ndim == 0:
        return float(ai), float(aip)
    return ai, aip


def airy_ai(x):
    """Ai(x); scalar in, float out; ndarray in, ndarray out."""
    return _ai_aip(x)[0]


def airy_ai_prime(x):
    """Ai'(x), same accuracy contract as airy_ai."""
    return _ai_aip(x)[1]


def airy_tail(x):
    """Integral of Ai over (x, infinity), absolute error well under 1e-10;
    scalar in, float out; ndarray in, ndarray out.

    12-point Gauss-Legendre panels on the lattice of edges 20 - 0.2 k are
    summed once, from 20 down to the lowest point; each point, in blocks of
    ``_TAIL_BLOCK``, adds its own panel up to the lattice edge above it, so its
    value does not depend on the other points.  The remainder past 20 (< 1e-26)
    is dropped; x >= 20 takes the two-term exponential tail at min(x, 200),
    where it is already exactly 0, so x^1.5 cannot overflow.  The lattice grows
    like |x|, so x below -200 or NaN raises ValueError before any array is built.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= -_X_LIMIT):  # NaN fails too
        raise ValueError(f"airy_tail needs x >= {-_X_LIMIT:g}, got x={np.min(x):g}")
    xs = x.ravel()
    near = np.minimum(xs, _TAIL_TOP)
    k = np.floor((_TAIL_TOP - near) / _TAIL_STEP).astype(np.int64)  # the lattice edge at or above
    k -= _TAIL_TOP - _TAIL_STEP * k < near
    edges = _TAIL_TOP - _TAIL_STEP * np.arange(k.max(initial=0) + 1)
    pts, w = gauss_panels(edges[1:], edges[:-1], 12)
    above = np.concatenate([[0.0], np.cumsum((airy_ai(pts) * w).sum(axis=1))])
    out = np.empty(xs.size)
    for lo in range(0, xs.size, _TAIL_BLOCK):
        block = slice(lo, lo + _TAIL_BLOCK)
        pts, w = gauss_panels(near[block], edges[k[block]], 12)
        out[block] = above[k[block]] + (airy_ai(pts) * w).sum(axis=1)
    deep = xs >= _TAIL_TOP
    far = np.minimum(xs[deep], _X_LIMIT)
    zeta = (2.0 / 3.0) * far ** 1.5
    out[deep] = np.exp(-zeta) / (2.0 * sqrt(pi) * far ** 0.75) * (1.0 - 41.0 / (72.0 * zeta))
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def has_closed_edge_form(beta: float) -> bool:
    """True for the beta values with a closed-form edge density: 1, 2 and 4."""
    return beta in (1, 2, 4)


def edge_density_closed(beta: float, x):
    """Closed-form edge density Ai_beta(x) for beta in {1, 2, 4}, int or float;
    scalar in, float out; ndarray in, ndarray out.  Other beta raise ValueError.

    beta=1: Ai'^2 - x Ai^2 + Ai/2 * (1 - int_x^inf Ai)
    beta=2: Ai'^2 - x Ai^2
    beta=4: doubled arguments, Ai'(2x)^2 - 2x Ai(2x)^2 - Ai(2x) int_x^inf Ai(2t) dt
    """
    if not has_closed_edge_form(beta):
        raise ValueError(
            f"closed forms exist for beta in {{1, 2, 4}}, got {beta}; for other even beta "
            "use kontsevich_edge_density, or `special --fn kontsevich` from the command line"
        )
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    y = 2.0 * xs if beta == 4 else xs
    # tails first: airy_tail rejects an x its panels cannot reach
    tails = None if beta == 2 else airy_tail(y)
    ai, aip = _ai_aip(y)
    # Ai is 0 from x ~ 103 on, so the clamp changes no value and keeps inf * 0 out at x = +inf
    val = aip**2 - np.minimum(y, _X_LIMIT) * ai**2
    if beta == 1:
        val += 0.5 * ai * (1.0 - tails)
    elif beta == 4:
        val -= ai * (0.5 * tails)  # int_x^inf Ai(2t) dt = airy_tail(2x)/2
    return float(val[0]) if np.ndim(x) == 0 else val


def ai_derivatives(x, m_max: int) -> np.ndarray:
    """[Ai(x), Ai'(x), ..., Ai^(m_max)(x)] via the differential recurrence; for an
    array x, row m holds Ai^(m) at every point, shape (m_max + 1, *x.shape).

    Orders >= 2 reduce through A_m = x*A_{m-2} + (m-2)*A_{m-3}.
    """
    x = np.asarray(x, dtype=float)
    ai, aip = _ai_aip(x)
    out = np.empty((m_max + 1, *x.shape))
    out[0] = ai
    if m_max >= 1:
        out[1] = aip
    for m in range(2, m_max + 1):
        out[m] = x * out[m - 2] + (m - 2) * (out[m - 3] if m >= 3 else 0.0)
    return out
