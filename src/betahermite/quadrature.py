"""Gauss-Legendre tables and composite panels, shared by the reference layers.

A table is built on first use and cached, so importing the package solves no
eigenproblem.  ``gauss_panels`` lays a k-point rule on each panel [lo, hi] and
returns its nodes and weights as one row per panel, so a panel's integral is
the row sum of ``f(nodes) * weights``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["legendre", "gauss_panels"]


@lru_cache(maxsize=None)
def legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_panels(lo, hi, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a k-point rule on each panel [lo[i], hi[i]], one row per panel."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    nodes, weights = legendre(k)
    mid, half = (0.5 * (hi + lo))[:, None], (0.5 * (hi - lo))[:, None]
    return mid + half * nodes, half * weights
