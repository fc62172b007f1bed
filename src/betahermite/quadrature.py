"""Gauss-Legendre tables and composite panels, shared by the reference layers.

A table is built on first use and cached, so importing the package solves no
eigenproblem.  ``gauss_panels`` lays a k-point rule on each interval between
consecutive edges and returns flat nodes and weights, so an integral over the
edges' span is ``weights @ f(nodes)``.
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


def gauss_panels(edges, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of a k-point rule on each panel [edges[i], edges[i+1]]."""
    edges = np.asarray(edges, dtype=float)
    nodes, weights = legendre(k)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * nodes).ravel(),
            (half[:, None] * weights).ravel())
