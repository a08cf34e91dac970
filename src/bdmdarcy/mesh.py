"""Body-fitted triangulations of the disk and the ring.

Meshes are generated deterministically: a small structured coarse mesh is
refined uniformly (red refinement), and midpoints of boundary edges are
projected onto their boundary component so every boundary vertex stays on
the physical boundary.  The 3T (triangle, local edge) incidences are sorted
once by (edge, triangle); each edge's one or two give its adjacent
triangles and its local index in each.  Each edge takes the outward normal
of its lower-indexed adjacent triangle (boundary edges: outward of the
meshed region), read off that triangle's counterclockwise vertex order, so
the triangles must be counterclockwise (``Assembler`` rejects any other).
"""

from dataclasses import dataclass

import numpy as np

from bdmdarcy.geometry import BoundaryCurve, GeometryError, project

__all__ = [
    "Mesh",
    "disk_domain",
    "ring_domain",
    "coarse_mesh",
    "refine_project",
]


@dataclass
class Mesh:
    """Triangulation with edge topology, boundary tags and diameters.

    triangles are counterclockwise.  ``edge_tris[e]`` lists the adjacent
    triangles in increasing order (-1 in the second slot on the boundary),
    ``edge_slots[e]`` the edge's local index in each (-1 likewise),
    ``edge_normal[e]`` is the outward unit normal of ``edge_tris[e, 0]``, and
    ``tri_edges[t, l]`` is the global edge opposite local vertex ``l``.
    ``h_K`` holds the triangle diameters (longest sides), ``h`` their maximum.
    """

    vertices: np.ndarray  # (V, 2)
    triangles: np.ndarray  # (T, 3) int
    edges: np.ndarray  # (E, 2) int, sorted pairs
    edge_tris: np.ndarray  # (E, 2) int
    edge_slots: np.ndarray  # (E, 2) int
    edge_normal: np.ndarray  # (E, 2)
    tri_edges: np.ndarray  # (T, 3) int
    boundary_edges: np.ndarray  # (Eb,) int
    edge_component: np.ndarray  # (E,) int, index into the curves; -1 on interior edges
    h_K: np.ndarray  # (T,)
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

    @property
    def h(self):
        return float(self.h_K.max())


def disk_domain(center=(0.0, 0.0), radius=1.0):
    """The unit disk boundary (one circle component)."""
    return [BoundaryCurve(center=tuple(center), radius=radius)]


def ring_domain(center=(0.0, 0.0), r_inner=0.5, r_outer=1.0):
    """The ring boundary: outer circle (component 0) and inner hole (1)."""
    if not 0.0 < r_inner < r_outer:
        raise GeometryError("ring radii must satisfy 0 < r_inner < r_outer")
    return [
        BoundaryCurve(center=tuple(center), radius=r_outer),
        BoundaryCurve(center=tuple(center), radius=r_inner, domain_inside=False),
    ]


def _build_mesh(vertices, triangles, curves, level):
    """Assemble topology, orientation, diameters and boundary tags.  Each
    boundary edge takes the component of the curve nearest its midpoint."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    n_tri = len(triangles)

    # incidence l * n_tri + t is local edge l of triangle t, opposite local
    # vertex l: the counterclockwise run from vertex l + 1 to vertex l + 2
    run = np.concatenate(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=0
    )
    # number the sorted vertex pairs (a, b) by the 1-D key a * n_vertices + b,
    # whose order is the lexicographic order of the pairs
    n_v = len(vertices)
    keys, inverse = np.unique(run.min(axis=1) * n_v + run.max(axis=1), return_inverse=True)
    edges = np.column_stack([keys // n_v, keys % n_v])
    tri_edges = inverse.reshape(3, n_tri).T

    counts = np.bincount(inverse, minlength=len(edges))
    if np.any(counts > 2):
        raise ValueError("non-manifold edge: more than two adjacent triangles")

    # the incidences sorted by (edge, triangle): one or two per edge
    order = np.lexsort((np.tile(np.arange(n_tri), 3), inverse))
    start = np.cumsum(counts) - counts
    first, second = order[start], counts == 2
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_slots = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_slots[:, 0], edge_tris[:, 0] = np.divmod(first, n_tri)
    edge_slots[second, 1], edge_tris[second, 1] = np.divmod(order[start[second] + 1], n_tri)

    # outward normal of the owner edge_tris[e, 0]: the right-hand normal of
    # its counterclockwise run, which is b - a unless the run starts at b
    a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]
    tangent = b - a
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
    normal[run[first, 0] > run[first, 1]] *= -1.0

    p = vertices[triangles]
    sides = np.linalg.norm(p[:, [2, 0, 1]] - p[:, [1, 2, 0]], axis=2)  # opposite vertex 0, 1, 2

    boundary_edges = np.flatnonzero(counts == 1)
    edge_component = np.full(len(edges), -1, dtype=np.int64)
    mid = 0.5 * (a[boundary_edges] + b[boundary_edges])
    dists = np.column_stack([c.distance(mid) for c in curves])
    edge_component[boundary_edges] = np.argmin(dists, axis=1)

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        edge_slots=edge_slots,
        edge_normal=normal,
        tri_edges=tri_edges,
        boundary_edges=boundary_edges,
        edge_component=edge_component,
        h_K=sides.max(axis=1),
        level=level,
    )


def coarse_mesh(curves):
    """Coarse body-fitted mesh of the disk (six-triangle fan about the
    center) or the ring (16 angular sectors, two triangles each)."""
    if len(curves) == 1:
        (circle,) = curves
        angles = 2.0 * np.pi * np.arange(6) / 6.0
        rim = np.column_stack([np.cos(angles), np.sin(angles)])
        vertices = np.vstack([[0.0, 0.0], rim]) * circle.radius
        vertices += np.asarray(circle.center)
        triangles = np.array([[0, 1 + j, 1 + (j + 1) % 6] for j in range(6)])
        return _build_mesh(vertices, triangles, curves, level=0)
    if len(curves) == 2:
        outer = max(curves, key=lambda c: c.radius)
        inner = min(curves, key=lambda c: c.radius)
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
    bnd = mesh.boundary_edges
    mid[bnd] = project(curves, mesh.edge_component[bnd], mid[bnd])[0]

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
