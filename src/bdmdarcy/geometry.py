"""Curved physical boundaries and the closest-point projection.

Each boundary component supplies the projection map rho(x_h) = x_h +
delta(x_h) nu(x_h) onto the physical boundary, the distance delta, the unit
direction nu, and the pulled-back outward normal of the physical domain.
A component is the position of its curve in the domain's list of curves,
and every curve is a circle: the disk has one, the ring two.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["GeometryError", "BoundaryCurve", "project"]


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


def project(curves, component, points):
    """(x, delta, nu, n_gamma) of points (n, ..., 2), row i projected onto
    ``curves[component[i]]``: one ``project_many`` call per curve, in row order."""
    out = [np.empty(points.shape[:-1] + tail) for tail in ((2,), (), (2,), (2,))]
    for i, curve in enumerate(curves):
        sel = component == i
        for part, values in zip(out, curve.project_many(points[sel].reshape(-1, 2))):
            part[sel] = values.reshape((-1,) + part.shape[1:])
    return tuple(out)
