"""Body-fitted triangulations of the disk and the ring.

Meshes are generated deterministically: a small structured coarse mesh is
refined uniformly (red refinement), and midpoints of boundary edges are
projected onto their boundary component so every boundary vertex stays on
the physical boundary.  Edge topology carries a global orientation: each
edge gets the outward normal of its lower-indexed adjacent triangle
(boundary edges: outward of the meshed region).
"""

from dataclasses import dataclass, field

import numpy as np

from bdmdarcy.geometry import BoundaryCurve, GeometryError

__all__ = [
    "Mesh",
    "MeshStats",
    "disk_domain",
    "ring_domain",
    "coarse_mesh",
    "refine_project",
    "mesh_stats",
]


@dataclass
class Mesh:
    """Triangulation with edge topology and boundary tags.

    triangles are counterclockwise.  ``edge_tris[e]`` lists the adjacent
    triangles in increasing order (-1 in the second slot on the boundary),
    ``edge_normal[e]`` is the outward unit normal of ``edge_tris[e, 0]``, and
    ``tri_edges[t, l]`` is the global edge opposite local vertex ``l``.
    """

    vertices: np.ndarray  # (V, 2)
    triangles: np.ndarray  # (T, 3) int
    edges: np.ndarray  # (E, 2) int, sorted pairs
    edge_tris: np.ndarray  # (E, 2) int
    edge_normal: np.ndarray  # (E, 2)
    tri_edges: np.ndarray  # (T, 3) int
    boundary_edges: np.ndarray  # (Eb,) int
    edge_component: np.ndarray  # (E,) int, -1 on interior edges
    level: int = 0

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)


@dataclass
class MeshStats:
    h: float
    h_K: np.ndarray = field(repr=False)


def disk_domain(center=(0.0, 0.0), radius=1.0):
    """The unit disk boundary (one circle component)."""
    return [BoundaryCurve(center=tuple(center), radius=radius, component_id=0)]


def ring_domain(center=(0.0, 0.0), r_inner=0.5, r_outer=1.0):
    """The ring boundary: outer circle (id 0) and inner hole (id 1)."""
    if not 0.0 < r_inner < r_outer:
        raise GeometryError("ring radii must satisfy 0 < r_inner < r_outer")
    return [
        BoundaryCurve(center=tuple(center), radius=r_outer, component_id=0),
        BoundaryCurve(center=tuple(center), radius=r_inner, domain_inside=False, component_id=1),
    ]


def _build_mesh(vertices, triangles, curves, level):
    """Assemble topology, orientation, and boundary tags.  Each boundary
    edge takes the component of the curve nearest its midpoint."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    n_tri = len(triangles)

    # local edge l is opposite local vertex l
    raw = np.concatenate(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=0
    )
    # number the sorted vertex pairs (a, b) by the 1-D key a * n_vertices + b,
    # whose order is the lexicographic order of the pairs
    n_v = len(vertices)
    keys, inverse = np.unique(raw.min(axis=1) * n_v + raw.max(axis=1), return_inverse=True)
    edges = np.column_stack([keys // n_v, keys % n_v])
    tri_edges = inverse.reshape(3, n_tri).T

    counts = np.bincount(inverse, minlength=len(edges))
    if np.any(counts > 2):
        raise ValueError("non-manifold edge: more than two adjacent triangles")

    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    order = np.argsort(inverse, kind="stable")
    tri_of_incidence = np.tile(np.arange(n_tri), 3)[order]
    edge_of_incidence = inverse[order]
    starts = np.searchsorted(edge_of_incidence, np.arange(len(edges)))
    edge_tris[:, 0] = tri_of_incidence[starts]
    second = counts == 2
    edge_tris[second, 1] = tri_of_incidence[starts[second] + 1]
    edge_tris[second] = np.sort(edge_tris[second], axis=1)

    # outward normal of the lower-indexed adjacent triangle
    owner = edge_tris[:, 0]
    tri_verts = triangles[owner]
    a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]
    tangent = b - a
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
    centroid = vertices[tri_verts].mean(axis=1)
    d = centroid - 0.5 * (a + b)
    inward = d[:, 0] * normal[:, 0] + d[:, 1] * normal[:, 1] > 0
    normal[inward] *= -1.0

    boundary_edges = np.flatnonzero(counts == 1)
    edge_component = np.full(len(edges), -1, dtype=np.int64)
    mid = 0.5 * (a[boundary_edges] + b[boundary_edges])
    dists = np.column_stack([c.distance(mid) for c in curves])
    ids = np.array([c.component_id for c in curves])
    edge_component[boundary_edges] = ids[np.argmin(dists, axis=1)]

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        edge_normal=normal,
        tri_edges=tri_edges,
        boundary_edges=boundary_edges,
        edge_component=edge_component,
        level=level,
    )


def coarse_mesh(curves):
    """Coarse body-fitted mesh of the disk (six-triangle fan about the
    center) or the ring (16 angular sectors, two triangles each)."""
    circles = [c for c in curves if isinstance(c, BoundaryCurve)]
    if len(circles) == 1:
        (circle,) = circles
        angles = 2.0 * np.pi * np.arange(6) / 6.0
        rim = np.column_stack([np.cos(angles), np.sin(angles)])
        vertices = np.vstack([[0.0, 0.0], rim]) * circle.radius
        vertices += np.asarray(circle.center)
        triangles = np.array([[0, 1 + j, 1 + (j + 1) % 6] for j in range(6)])
        return _build_mesh(vertices, triangles, curves, level=0)
    if len(circles) == 2:
        outer = max(circles, key=lambda c: c.radius)
        inner = min(circles, key=lambda c: c.radius)
        n = 16
        angles = 2.0 * np.pi * np.arange(n) / n
        unit = np.column_stack([np.cos(angles), np.sin(angles)])
        center = np.asarray(outer.center)
        vertices = np.vstack([center + inner.radius * unit, center + outer.radius * unit])
        triangles = []
        for j in range(n):
            j1 = (j + 1) % n
            triangles.append([j, n + j, n + j1])
            triangles.append([j, n + j1, j1])
        return _build_mesh(vertices, np.array(triangles), curves, level=0)
    raise ValueError("coarse_mesh supports one circle (disk) or two (ring)")


def refine_project(mesh, curves):
    """Red refinement with boundary-midpoint projection.

    Every triangle splits into four via edge midpoints; the midpoint of each
    boundary edge is projected onto that edge's boundary component so the
    refined mesh stays body-fitted.
    """
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    by_id = {c.component_id: c for c in curves}
    for comp in np.unique(mesh.edge_component[mesh.boundary_edges]):
        sel = mesh.boundary_edges[mesh.edge_component[mesh.boundary_edges] == comp]
        projected, _, _, _ = by_id[comp].project_many(mid[sel])
        mid[sel] = projected

    n_old = mesh.n_vertices
    vertices = np.vstack([mesh.vertices, mid])
    m = n_old + mesh.tri_edges  # midpoint vertex ids per local edge
    t = mesh.triangles
    children = np.concatenate(
        [
            np.stack([t[:, 0], m[:, 2], m[:, 1]], axis=1),
            np.stack([t[:, 1], m[:, 0], m[:, 2]], axis=1),
            np.stack([t[:, 2], m[:, 1], m[:, 0]], axis=1),
            np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
        ],
        axis=0,
    )
    # interleave children so siblings stay adjacent in index order
    children = children.reshape(4, mesh.n_triangles, 3).transpose(1, 0, 2).reshape(-1, 3)
    return _build_mesh(vertices, children, curves, level=mesh.level + 1)


def mesh_stats(mesh):
    """Exact element diameters (longest sides) and their maximum h."""
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
    return MeshStats(h=float(h_K.max()), h_K=h_K)

