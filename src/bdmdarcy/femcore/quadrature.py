"""Quadrature rules on the reference triangle and the reference edge.

The reference triangle is {(0,0), (1,0), (0,1)} (area 1/2), the reference
edge is [-1, 1].  Triangle rules use the classic symmetric point sets of
degrees 2 and 4 up to degree 4 and a collapsed tensor-product Gauss rule
beyond that, so any requested exactness degree is available.
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


# Symmetric triangle rules, given in barycentric orbits.  Weights are
# normalized to sum to 1 and scaled by the reference area 1/2 below.
_SYMMETRIC_RULES = {
    2: [((2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0), 1.0 / 3.0)],
    4: [
        ((0.108103018168070, 0.445948490915965, 0.445948490915965), 0.223381589678011),
        ((0.816847572980459, 0.091576213509771, 0.091576213509771), 0.109951743655322),
    ],
}


def _orbit(bary):
    """Distinct cyclic/symmetric permutations of a barycentric triple."""
    perms = {bary}
    a, b, c = bary
    perms.update({(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)})
    return sorted(perms)


def _symmetric_rule(degree):
    pts, wts = [], []
    for bary, w in _SYMMETRIC_RULES[degree]:
        for lam in _orbit(bary):
            pts.append((lam[1], lam[2]))  # vertex order (0,0), (1,0), (0,1)
            wts.append(w)
    pts = np.array(pts)
    wts = 0.5 * np.array(wts)  # reference area
    return QuadratureRule(pts, wts, degree)


def _collapsed_rule(degree):
    """Tensor Gauss rule mapped by (u, v) -> (u (1 - v), v)."""
    n = (degree + 3) // 2  # the Jacobian (1 - v) raises the v-degree by one
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - vv)
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    return QuadratureRule(pts, ww.ravel(), degree)


def triangle_quadrature(degree):
    """Rule on the reference triangle exact for polynomials up to ``degree``."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if degree <= 2:
        return _symmetric_rule(2)
    if degree <= 4:
        return _symmetric_rule(4)
    return _collapsed_rule(degree)


def edge_quadrature(n_points):
    """``n_points``-point Gauss rule on [-1, 1], exact to degree 2n - 1."""
    if n_points < 1:
        raise ValueError("edge quadrature needs at least one point")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return QuadratureRule(x, w, 2 * n_points - 1)
