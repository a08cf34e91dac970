"""Quadrature rules on the reference triangle and the reference edge.

The reference triangle is {(0,0), (1,0), (0,1)} (area 1/2), the reference
edge is [-1, 1].  Every triangle rule is a collapsed (conical product)
Gauss rule: an n x n Gauss-Legendre tensor rule on the unit square, mapped
onto the triangle by (u, v) -> (u (1 - v), v) (Stroud, Approximate
Calculation of Multiple Integrals, 1971).  Its points lie inside the
triangle, its weights are positive, and any exactness degree is available.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "triangle_quadrature", "edge_quadrature"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights exact for polynomials up to ``degree``."""

    points: np.ndarray  # (n, 2) on the triangle, (n,) on the edge
    weights: np.ndarray  # (n,)
    degree: int


def triangle_quadrature(degree):
    """Rule on the reference triangle exact for polynomials up to ``degree``:
    the collapsed n x n Gauss rule, n = (degree + 3) // 2 (the Jacobian
    1 - v of the map raises the v-degree by one)."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    x, w = np.polynomial.legendre.leggauss((degree + 3) // 2)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - vv)
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    return QuadratureRule(pts, ww.ravel(), degree)


def edge_quadrature(n_points):
    """``n_points``-point Gauss rule on [-1, 1], exact to degree 2n - 1."""
    if n_points < 1:
        raise ValueError("edge quadrature needs at least one point")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return QuadratureRule(x, w, 2 * n_points - 1)
