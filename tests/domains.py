"""Polygonal test domains, the polynomial patch-test case, and the mesh and
geometry measures that only the tests read.

The straight components pass through ``mesh``, ``assembly`` and
``correction`` by duck typing: they supply ``project_many`` and
``distance`` as ``geometry.BoundaryCurve`` does, and
``mesh.coarse_mesh`` only meshes circles, so polygonal meshes are built
here with ``mesh._build_mesh``.
"""

from dataclasses import dataclass
from math import pi

import numpy as np

from bdmdarcy.analysis import ManufacturedCase, _Poly2D
from bdmdarcy.correction import edge_trace_geometry
from bdmdarcy.femcore.quadrature import edge_quadrature
from bdmdarcy.mesh import _build_mesh


@dataclass(frozen=True)
class StraightBoundary:
    """A flat boundary component: the line through ``point`` with outward
    normal ``normal``.  Projection is orthogonal, so boundary edges lying on
    the line have delta = 0 identically."""

    point: tuple
    normal: tuple

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


def square_domain():
    """Sides of the unit square as four straight components."""
    return [
        StraightBoundary(point=(0.0, 0.0), normal=(0.0, -1.0)),
        StraightBoundary(point=(1.0, 0.0), normal=(1.0, 0.0)),
        StraightBoundary(point=(1.0, 1.0), normal=(0.0, 1.0)),
        StraightBoundary(point=(0.0, 1.0), normal=(-1.0, 0.0)),
    ]


def triangle_domain(verts):
    """The sides of one counterclockwise triangle as straight components."""
    verts = np.asarray(verts, dtype=float)
    comps = []
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        t = b - a
        n = np.array([t[1], -t[0]]) / np.hypot(*t)
        comps.append(StraightBoundary(point=tuple(a), normal=tuple(n)))
    return comps


def unit_square_mesh(n, level=0):
    """Structured n-by-n unit square mesh, two triangles per cell."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    triangles = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles.append([v00, v10, v11])
            triangles.append([v00, v11, v01])
    return _build_mesh(vertices, np.array(triangles), square_domain(), level=level)


def single_triangle_mesh(verts):
    """A mesh of one counterclockwise triangle, its sides the boundary."""
    verts = np.asarray(verts, dtype=float)
    u, v = verts[1] - verts[0], verts[2] - verts[0]
    if u[0] * v[1] - u[1] * v[0] <= 0:
        raise ValueError("triangle vertices must be counterclockwise")
    return _build_mesh(verts, np.array([[0, 1, 2]]), triangle_domain(verts), level=0)


def signed_areas(mesh):
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    u, v = b - a, c - a
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def edge_lengths(mesh):
    d = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    return np.hypot(d[:, 0], d[:, 1])


@dataclass
class MeshQuality:
    min_angle: float  # smallest interior angle, in degrees
    uniformity: float  # largest over smallest element diameter


def mesh_quality(mesh):
    """Minimum interior angle and uniformity ratio of a mesh."""
    p = mesh.vertices[mesh.triangles]
    sides = np.stack(
        [
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        ],
        axis=1,
    )
    h_K = sides.max(axis=1)
    # law of cosines per corner
    a2, b2, c2 = sides[:, 0] ** 2, sides[:, 1] ** 2, sides[:, 2] ** 2
    angles = np.stack(
        [
            np.arccos(np.clip((b2 + c2 - a2) / (2 * np.sqrt(b2 * c2)), -1, 1)),
            np.arccos(np.clip((a2 + c2 - b2) / (2 * np.sqrt(a2 * c2)), -1, 1)),
            np.arccos(np.clip((a2 + b2 - c2) / (2 * np.sqrt(a2 * b2)), -1, 1)),
        ],
        axis=1,
    )
    return MeshQuality(
        min_angle=float(np.degrees(angles.min())),
        uniformity=float(h_K.max() / h_K.min()),
    )


def check_geometry_assumption(mesh, curves, n_nodes=8):
    """Diagnostics for the projection distance and the normal gap.

    Samples Gauss nodes on every boundary edge and reports the sup of delta
    and of |n_gamma - n_h| together with their ratios against h^2 and h.  On
    a refinement family both ratios should stay bounded.
    """
    geom = edge_trace_geometry(mesh, curves, edge_quadrature(n_nodes))
    delta_max = float(geom.delta.max(initial=0.0))
    gaps = np.linalg.norm(geom.n_gamma - geom.n_h[:, None, :], axis=-1)
    gap_max = float(gaps.max(initial=0.0))
    h = mesh.h
    return {
        "delta_max": delta_max,
        "sup_normal_gap": gap_max,
        "delta_max_over_h2": delta_max / h**2,
        "sup_normal_gap_over_h": gap_max / h,
    }


def case_polynomial_square(k):
    """Polynomial patch-test data on the unit square: p of degree k-1,
    u = -grad p (inside the discrete spaces), f = -lap p."""
    if k == 1:
        p = _Poly2D([[0.6]])
    elif k == 2:
        p = _Poly2D([[0.3, -0.6], [0.8, 0.0]])
    else:
        p = _Poly2D([[0.0, 0.2, 0.5], [-0.3, -1.0, 0.0], [1.0, 0.0, 0.0]])

    def source(pts):
        return -(p.derivative(pts, 2, 0) + p.derivative(pts, 0, 2))

    return ManufacturedCase(
        domain="square",
        pressure_derivative=p.derivative,
        source=source,
        homogeneous_neumann=False,
    )


def compatibility_residual(case, n_radial=48, n_angular=720):
    """| int_domain f - int_boundary g | / |domain|, by high-order polar (or
    tensor) quadrature on the analytic domain."""
    if case.domain == "circle":
        radii = [(0.0, 1.0)]
        circles = [(1.0, 1.0)]
    elif case.domain == "ring":
        radii = [(0.5, 1.0)]
        circles = [(1.0, 1.0), (0.5, -1.0)]
    elif case.domain == "square":
        x, wx = np.polynomial.legendre.leggauss(n_radial)
        x = 0.5 * (x + 1.0)
        wx = 0.5 * wx
        xx, yy = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        f_int = float(np.outer(wx, wx).ravel() @ case.source(pts))
        g_int = 0.0
        sides = [((0.0, 0.0), (1.0, 0.0), (0.0, -1.0)), ((1.0, 0.0), (1.0, 1.0), (1.0, 0.0)),
                 ((1.0, 1.0), (0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 0.0), (-1.0, 0.0))]
        for a, b, n in sides:
            a, b, n = map(np.asarray, (a, b, n))
            p = a + np.outer(x, b - a)
            normals = np.broadcast_to(n, p.shape)
            g_int += float(wx @ case.neumann(p, normals)) * np.hypot(*(b - a))
        return abs(f_int - g_int)
    else:
        raise ValueError(f"unknown domain {case.domain!r}")

    theta = 2.0 * pi * np.arange(n_angular) / n_angular
    w_theta = 2.0 * pi / n_angular
    unit = np.column_stack([np.cos(theta), np.sin(theta)])
    r, wr = np.polynomial.legendre.leggauss(n_radial)
    f_int = 0.0
    area = 0.0
    for r0, r1 in radii:
        rr = 0.5 * (r1 - r0) * (r + 1.0) + r0
        wrr = 0.5 * (r1 - r0) * wr
        pts = (rr[:, None, None] * unit[None, :, :]).reshape(-1, 2)
        fvals = case.source(pts).reshape(len(rr), n_angular)
        f_int += float(np.einsum("r,rt->", wrr * rr * w_theta, fvals))
        area += pi * (r1**2 - r0**2)
    g_int = 0.0
    for radius, sign in circles:
        pts = radius * unit
        normals = sign * unit
        g_int += float(w_theta * radius * case.neumann(pts, normals).sum())
    return abs(f_int - g_int) / area
