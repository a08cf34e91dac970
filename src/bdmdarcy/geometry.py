"""Curved physical boundaries and the closest-point projection.

Each boundary component supplies the projection map rho(x_h) = x_h +
delta(x_h) nu(x_h) onto the physical boundary, the distance delta, the unit
direction nu, and the pulled-back outward normal of the physical domain.
Components are circles (disk and ring domains) or straight lines (polygonal
test domains, where the projection is the identity on the boundary itself).
"""

from dataclasses import dataclass

import numpy as np

from bdmdarcy.correction import edge_trace_geometry
from bdmdarcy.femcore.quadrature import edge_quadrature

__all__ = [
    "GeometryError",
    "BoundaryCurve",
    "StraightBoundary",
    "check_geometry_assumption",
]


class GeometryError(Exception):
    """Projection is ambiguous or a point is not where it should be."""


@dataclass(frozen=True)
class BoundaryCurve:
    """One circular boundary component.

    ``domain_inside`` records on which side the physical domain lies: True
    for an outer boundary (disk, outer ring circle), False for a hole (inner
    ring circle), where the outward normal of the domain points toward the
    circle center.
    """

    center: tuple
    radius: float
    domain_inside: bool = True
    component_id: int = 0

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("circle radius must be positive")

    def project_many(self, pts):
        """Vectorized closest-point data for query points (n, 2).

        Returns (x, delta, nu, n_gamma) arrays.  Fails if any query point is
        outside the reach tube of the circle (distance >= radius), where the
        projection stops being single-valued.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        center = np.asarray(self.center, dtype=float)
        d = pts - center
        r = np.hypot(d[:, 0], d[:, 1])
        if np.any(r <= 1e-14):
            raise GeometryError("projection undefined at the circle center")
        radial = d / r[:, None]
        x = center + self.radius * radial
        delta = np.abs(self.radius - r)
        if np.any(delta >= self.radius):
            raise GeometryError(
                "query point outside the projection reach of the circle"
            )
        sign = np.where(r <= self.radius, 1.0, -1.0)
        n_gamma = radial if self.domain_inside else -radial
        nu = np.where(delta[:, None] > 0.0, sign[:, None] * radial, n_gamma)
        return x, delta, nu, n_gamma

    def distance(self, pts):
        """Unsigned distance of points to the circle."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        center = np.asarray(self.center, dtype=float)
        r = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        return np.abs(r - self.radius)


@dataclass(frozen=True)
class StraightBoundary:
    """A flat boundary component: the line through ``point`` with outward
    normal ``normal``.  Projection is orthogonal, so boundary edges lying on
    the line have delta = 0 identically."""

    point: tuple
    normal: tuple
    component_id: int = 0

    def __post_init__(self):
        n = np.hypot(*self.normal)
        if abs(n - 1.0) > 1e-12:
            object.__setattr__(self, "normal", tuple(np.asarray(self.normal) / n))

    def project_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a = np.asarray(self.point, dtype=float)
        n = np.asarray(self.normal, dtype=float)
        s = (pts - a) @ n
        x = pts - s[:, None] * n
        delta = np.abs(s)
        n_gamma = np.broadcast_to(n, pts.shape).copy()
        nu = np.where(delta[:, None] > 0.0, -np.sign(s)[:, None] * n, n_gamma)
        return x, delta, nu, n_gamma

    def distance(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a = np.asarray(self.point, dtype=float)
        n = np.asarray(self.normal, dtype=float)
        return np.abs((pts - a) @ n)


def check_geometry_assumption(mesh, curves, n_nodes=8):
    """Diagnostics for the projection distance and the normal gap.

    Samples Gauss nodes on every boundary edge and reports the sup of delta
    and of |n_gamma - n_h| together with their ratios against h^2 and h.  On
    a refinement family both ratios should stay bounded.
    """
    from bdmdarcy.mesh import mesh_stats

    stats = mesh_stats(mesh)
    geom = edge_trace_geometry(mesh, curves, edge_quadrature(n_nodes), stats.h_K)
    delta_max = float(geom.delta.max(initial=0.0))
    gaps = np.linalg.norm(geom.n_gamma - geom.n_h[:, None, :], axis=-1)
    gap_max = float(gaps.max(initial=0.0))
    h = stats.h
    return {
        "delta_max": delta_max,
        "sup_normal_gap": gap_max,
        "delta_max_over_h2": delta_max / h**2,
        "sup_normal_gap_over_h": gap_max / h,
    }
