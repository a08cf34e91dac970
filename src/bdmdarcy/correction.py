"""Transfer of boundary data between the mesh boundary and the physical
boundary.

Every quadrature node x on a boundary edge e (owning triangle K) carries
the projection distance delta, the unit direction nu toward the physical
boundary, the pulled-back outward normal n_gamma, and the straight outward
normal n_h of e.  A field defined on K is extended toward the physical
boundary by the truncated Taylor sum

    sum_{j=0}^m  delta^j / j!  (d/d nu)^j v(x),

which for a polynomial of degree <= m equals plain evaluation at the
projected point x + delta nu; that shortcut is taken whenever it is exact.

All boundary nodes are handled at once: the trace geometry holds arrays
with a leading boundary-edge axis (n_b, in ``mesh.boundary_edges`` order)
and a node axis (q), and the Taylor sum runs over all of them together.
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from bdmdarcy.geometry import project

__all__ = [
    "TraceGeometry",
    "edge_trace_geometry",
    "directional_derivative",
    "dot2",
    "taylor_trace",
    "taylor_trace_normal",
    "pullback_neumann",
]


@dataclass
class TraceGeometry:
    """Projection data of the quadrature nodes of every boundary edge."""

    owner: np.ndarray  # (n_b,) the unique triangle containing each edge
    points: np.ndarray  # (n_b, q, 2) physical nodes on the edges
    weights: np.ndarray  # (n_b, q) weights on the straight edge: 0.5 |b - a| w_g
    delta: np.ndarray  # (n_b, q)
    nu: np.ndarray  # (n_b, q, 2)
    n_gamma: np.ndarray  # (n_b, q, 2)
    n_h: np.ndarray  # (n_b, 2) straight outward normals
    h_owner: np.ndarray  # (n_b,) diameters of the owning triangles
    projected: np.ndarray  # (n_b, q, 2) = points + delta * nu


def edge_trace_geometry(mesh, curves, rule):
    """Trace geometry of all boundary edges of ``mesh``.

    ``rule`` is an edge quadrature rule on [-1, 1]; nodes are mapped to each
    edge following the global (sorted-vertex) parametrization.  The owners'
    diameters are the mesh's ``h_K``.  Each boundary component projects all
    of its nodes in one call (``geometry.project``).
    """
    edges = mesh.boundary_edges
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    points = 0.5 * (a + b)[:, None, :] + 0.5 * rule.points[None, :, None] * (b - a)[:, None, :]
    weights = 0.5 * np.hypot((b - a)[:, 0], (b - a)[:, 1])[:, None] * rule.weights
    projected, delta, nu, n_gamma = project(curves, mesh.edge_component[edges], points)
    owner = mesh.edge_tris[edges, 0]
    return TraceGeometry(
        owner=owner,
        points=points,
        weights=weights,
        delta=delta,
        nu=nu,
        n_gamma=n_gamma,
        n_h=mesh.edge_normal[edges],
        h_owner=mesh.h_K[owner],
        projected=projected,
    )


def dot2(a, b):
    """a . b over a last axis of length 2, broadcast over the leading axes:
    the two products and one sum of ``np.einsum``, without its generic loop.
    einsum adds the products to a zeroed output, so its sum is never -0.0;
    the final + 0.0 gives the same bits.  Never ``@``: BLAS may fuse the
    multiply-adds and change the last bit."""
    out = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    out += 0.0
    return out


def directional_derivative(partial, direction, j):
    """The j-th derivative along ``direction`` (N, 2), from the mixed
    partials ``partial(rx, ry)`` whose leading axis runs over the same N
    nodes: sum_i C(j, i) dx^i dy^(j-i) v direction_x^i direction_y^(j-i)."""
    total = 0.0
    for i in range(j + 1):
        part = partial(i, j - i)
        factor = comb(j, i) * direction[:, 0] ** i * direction[:, 1] ** (j - i)
        total = total + factor.reshape((-1,) + (1,) * (part.ndim - 1)) * part
    return total


def taylor_trace(field, geom, m):
    """Taylor extension of order ``m`` (an int >= 0) of a field at every
    boundary node, shape (n_b, q, ..., 2).

    ``field`` exposes ``eval(points)`` for points of shape (n_b, q, 2) and
    ``nu_derivative(geom, j)``, the j-th derivative along nu at
    ``geom.points``; a ``degree`` attribute of None marks a non-polynomial
    field.  When the sum is exact, a polynomial field of degree <= m, the
    value is taken directly at the projected points; otherwise the
    truncated sum is assembled order by order.
    """
    if field.degree is not None and field.degree <= m:
        return field.eval(geom.projected)
    total = field.eval(geom.points)
    for j in range(1, m + 1):
        scale = geom.delta**j / factorial(j)
        term = field.nu_derivative(geom, j)
        total = total + scale.reshape(scale.shape + (1,) * (term.ndim - 2)) * term
    return total


def taylor_trace_normal(field, geom, m):
    """Normal component of the order-m Taylor extension against the
    pulled-back physical normal, shape (n_b, q, ...)."""
    trace = taylor_trace(field, geom, m)
    return dot2(trace, np.expand_dims(geom.n_gamma, tuple(range(2, trace.ndim - 1))))


def pullback_neumann(g, geom):
    """Neumann data pulled back from the physical boundary: evaluates the
    boundary functional at the projected points with the physical normal,
    shape (n_b, q)."""
    values = g(geom.projected.reshape(-1, 2), geom.n_gamma.reshape(-1, 2))
    return np.asarray(values, dtype=float).reshape(geom.delta.shape)
