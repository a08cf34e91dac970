"""Assembly of the mixed system on a body-fitted mesh.

Velocity unknowns are global BDM_k degrees of freedom: k+1 normal moments
per global edge (taken against Legendre polynomials in the sorted-vertex
parametrization, with the mesh's global edge normal) plus interior moments
per triangle, taken against covariantly mapped reference fields J^-T phi
(gradients, and curls of bubbles; see ``femcore.element``).  Every one of
these functionals is invariant under the contravariant Piola map up to a
sign, so the DOF matrix of an element's Piola-mapped reference nodal basis
is a +-1 diagonal S_K (``Assembler.dof_sign``): the edge normal's
orientation times the Legendre parity of the edge's parametrization, and +1
on interior moments.  The global-DOF shape functions are the mapped nodal
basis times S_K, and a global vector's local coefficients are S_K u_K.

Two modes are supported:

* ``corrected``: the penalized forms with the Taylor boundary extension and
  the practical second equation (mean-corrected load, boundary-mean term,
  one scalar multiplier pinning the pressure mean),
* ``uncorrected-strong``: plain mass + div-div forms with homogeneous
  normal moments imposed strongly on the mesh boundary (only valid for
  homogeneous Neumann data).

The boundary-mean term (c / area) flux.u of the second equation sits next
to the multiplier's c lam, so it is folded into the multiplier:
theta = lam + flux.u / area turns the pressure rows into B0 u + c theta and
leaves u and p as they are.  The system's unknowns are (u, p, theta) in
both modes; in strong mode the constrained dofs keep their numbers, as
identity rows with zero loads.

The border row c.p = gauge, the pressure's only normalisation, has the
units of area times pressure.  The system holds it, and the column c, times
``Assembler.theta_scale``, the power of two nearest 1 / (half-extent of the
mesh)^2: exactly 1 on the unit disk and ring, and an exact scaling
elsewhere, so that the row is sized like the others on a domain of any
size.  Unscaled, on a disk of radius 100 its terms c_l p_l reach 2.6e12,
and one unit in their last place is 8.9e-11 of the relative residual.

Every boundary form is an integral over the straight boundary edges, taken
with one rule: the trace geometry's k+3 Gauss nodes per edge
(``Assembler.trace``).  The penalty, the Neumann load and the error norms
contract one array there, the normal Taylor traces of the owning triangles'
shape functions, computed once per assembler (plain traces, Taylor order 0,
in strong mode), in corrected mode for the class representatives' edges
alone (below); the straight-normal term of B1 takes the shape functions'
values and the pressure basis at the same nodes.  All of these, and the
vertex velocities of the field export, evaluate shape functions through one
batched evaluator, ``ShapeFunctions``.

The system is held once, as one block per element shape.  Away from the
boundary, L_K depends on K only through (g = J^T J / det, det) and its
signs: L_K = S_K L^(g, det) S_K, S_K padded with +1 on pressure (the tensor
representation of Kirby & Logg).  g does not change when an element is
rotated or scaled, so rotated sectors and similar children of red refinement
share one block in exact arithmetic.  A boundary edge's terms depend on its
owner only through (g, det), the edge's local slot and the trace geometry in
the owner's frame (``Assembler._classes``), which rotation and translation
leave unchanged too.  ``Assembler._classes`` groups the elements by these,
rounded far above round-off and far below any real difference in shape
(``CLASS_BITS``), and numbers the classes by ``classes``;
``Assembler.elements`` writes one unsigned block L^ per class, from its
representative's geometry and boundary traces (in strong mode, with
identity rows and columns at the boundary edges' dofs).  So a class is an
element shape up to round-off: 153 classes for 6,144 elements at disk k=3
level 5, 150 for 8,192 at ring level 4.  Every member takes its
representative's geometry and the boundary traces, which the Neumann load
and the error norms read too, so the element applies, the CSR and the solve
use one operator exactly, but for the pressure integrals c of the border
row and column: the operator holds each element's own, so c.p = gauge
holds with them, and the solve inverts with its class representative's
(one per class) and leaves the round-off between them to its refinement.
``SaddleSystem.matvec`` applies S_K L^ S_K element by element
(``ElementBlocks.apply``): in rounds of one element per class on a prefix
of the class blocks, then the rest of each large class in one product
broadcast from its block (``apply_rounds``, the program's one
class-batched product, which the solver's fronts run too), and the
hybridized solve (``solver``) inverts each class block once.  Sign flips
are exact and LU with partial pivoting is sign-symmetric, so every signed
block, product and inverse equals, entry for entry, that of the element's
block from its class representative's geometry.  The solve's interface goes to it as the mesh holds it, each
interior edge's two (triangle, local edge) copies
(``ElementBlocks.copies``), and the solver numbers it.  The global
sparse matrix is built on request only, by one builder, ``operator_csr``:
it writes the canonical CSR straight from the class blocks, one element
row at a time, with no expanded (nel, nd + npr, nd + npr) blocks.
``SaddleSystem.matrix`` (checks and dumps) builds that CSR on each read
and keeps no copy, so it lives only as long as its reader holds it;
``Assembler.matrix_a`` and ``matrix_b`` (the blocks' own tests) are slices
of it.  Accumulation order is fixed (elements ascending, then boundary
edges ascending), so repeated assemblies are bit-identical.

Every contraction over a length-2 axis of per-element or per-node arrays
(the affine maps of reference points, the one Piola map ``_piola`` of the
shape functions and of the error norms' discrete velocity, the inverse
maps, J^T J, the normal components, v . n_h of B1) is two products and one
sum per coordinate plane (``_matvec2``, written a plane at a time into one
array, and ``correction.dot2``): the bits of ``np.einsum``, at several
times its speed.  No exception: never ``@`` for these, as BLAS fuses the
multiply-adds, and the last bit moves.  The contractions over
the quadrature nodes, in the loads (``Assembler.rhs``) and the error
norms, are BLAS GEMMs and GEMVs instead, with the weights folded into the
tabulated basis (``ReferenceTables.v_div_w``, ``p_vals_w``): their sums
run in BLAS's order, so the loads and the norms differ from the einsum
forms in the last bits (``tests/oracles.py`` keeps those forms).
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from bdmdarcy.correction import (
    directional_derivative,
    dot2,
    edge_trace_geometry,
    pullback_neumann,
    taylor_trace_normal,
)
from bdmdarcy.femcore.basis import triangle_basis
from bdmdarcy.femcore.element import bdm_reference_basis
from bdmdarcy.femcore.quadrature import edge_quadrature, triangle_quadrature

__all__ = [
    "DofMap",
    "ElementBlocks",
    "SaddleSystem",
    "Assembler",
    "ShapeFunctions",
    "build_saddle_system",
    "quadrature_orders",
]


# the bits of (g, det) that the element classes key on: g rounded to
# multiples of 2^-36 (its entries are O(1), as g does not depend on scale)
# and det to a 36-bit mantissa; the owners' trace geometry, O(1) in the
# owner's frame, is rounded as g.  Classes at k=3, with exact bits of
# (g, det) and one class per boundary owner in brackets: disk L5 152-153
# (2,301; 312), L6 312-316 (4,639; 632-635), ring L2 28 (446; 148), L4
# 148-150 (3,381; 628-630), at the quanta 2^-20, 2^-24, ..., 2^-36, the
# higher counts at 2^-36.  Within a class g (over its largest entry) and
# log2 det spread by at most 3.6e-14 (disk L6), round-off, and distinct
# (g, det) are at least 1.6e-3 apart (ring L4).  A bucket edge that splits
# a cluster costs one extra class, never accuracy.
CLASS_BITS = 36


def _bucket(v):
    """The CLASS_BITS bucket of each O(1) entry of v: v rounded to a
    multiple of 2^-CLASS_BITS, never -0.0 (its bits are not 0.0's)."""
    return np.rint(np.ldexp(v, CLASS_BITS)) + 0.0


def _matvec2(m, x):
    """m x with 2x2 matrices m and 2-vectors x, broadcast over the leading
    axes, written one coordinate plane at a time into one new array: per
    plane the two products, the sum and the + 0.0 of ``dot2``, the bits of
    ``np.einsum``, with no stacked copy and one scratch plane (a fresh
    temporary per product costs more than the product at 10^5 points)."""
    out = np.empty(np.broadcast_shapes(m.shape[:-1], x.shape))
    second = np.empty(out.shape[:-1])
    for a in (0, 1):
        plane = out[..., a]
        np.multiply(m[..., a, 0], x[..., 0], out=plane)
        np.multiply(m[..., a, 1], x[..., 1], out=second)
        plane += second
        plane += 0.0
    return out


def _piola(jac, det, values):
    """The contravariant Piola images J v / det of the vectors ``values``
    (n, r, 2), row i in element i of ``jac`` (n, 2, 2) and ``det`` (n,):
    the one Piola map, ``_matvec2`` then the division."""
    out = _matvec2(jac[:, None], values)
    out /= det[:, None, None]
    return out


def _contract(m, table):
    """sum_ab m[e, a, b] table[a, b, ...] as one GEMM, element-major and C-contiguous
    (an einsum's element-fastest result thrashes the cache at 2^j elements)."""
    return (m.reshape(len(m), 4) @ table.reshape(4, -1)).reshape(m.shape[:1] + table.shape[2:])


def quadrature_orders(k, vol_degree=None, bnd_points=None):
    """(volume exactness degree, boundary point count) for degree k.

    Defaults: 2k+2 for stiffness/mass volume terms, k+3 Gauss points
    (degree 2k+5) for boundary integrals.  Overrides may only go upward
    (coarser rules make the mass matrix singular or the boundary penalty
    inexact), to at most 2k+20 and k+20: far larger ones ask for gigabytes.
    """
    vol_min, vol_max, bnd_min, bnd_max = 2 * k + 2, 2 * k + 20, k + 3, k + 20
    if vol_degree is not None and not vol_min <= vol_degree <= vol_max:
        raise ValueError(f"volume quadrature degree must lie in {vol_min}..{vol_max} for k = {k}")
    if bnd_points is not None and not bnd_min <= bnd_points <= bnd_max:
        raise ValueError(f"boundary quadrature needs {bnd_min}..{bnd_max} points for k = {k}")
    return (
        vol_min if vol_degree is None else vol_degree,
        bnd_min if bnd_points is None else bnd_points,
    )


class ReferenceTables:
    """Per-degree reference tabulations shared by all assemblers, with the
    quadrature orders of ``quadrature_orders`` (error integrals use
    exactness 2k+4)."""

    def __init__(self, k, vol_degree=None, bnd_points=None):
        vol_degree, bnd_points = quadrature_orders(k, vol_degree, bnd_points)
        self.k = k
        self.element = bdm_reference_basis(k)
        self.pressure = triangle_basis(k - 1)

        self.vol = triangle_quadrature(vol_degree)
        w = self.vol.weights
        self.v_vals = self.element.tabulate(self.vol.points)  # (q, nd, 2)
        self.v_div = self.element.tabulate_div(self.vol.points)  # (q, nd)
        self.p_vals = self.pressure.eval(self.vol.points)  # (q, npr)
        # the loads' tables, the weights folded in: each load is one GEMM
        self.v_div_w = w[:, None] * self.v_div
        self.p_vals_w = w[:, None] * self.p_vals

        self.s_mass = np.einsum("q,qna,qmb->abnm", w, self.v_vals, self.v_vals)
        self.s_div = np.einsum("q,qn,qm->nm", w, self.v_div, self.v_div)
        self.b0_span = -np.einsum("q,ql,qn->ln", w, self.p_vals, self.v_div)

        pint = np.einsum("q,ql->l", w, self.p_vals)
        pint[np.abs(pint) < 1e-14] = 0.0  # orthogonality to constants is exact
        self.p_ref_integral = pint
        self.p_const_value = float(self.pressure.eval([[1.0 / 3.0, 1.0 / 3.0]])[0, 0])

        # over-integration rule for error norms and diagnostics
        self.err = triangle_quadrature(2 * k + 4)
        self.v_vals_err = self.element.tabulate(self.err.points)
        self.v_div_err = self.element.tabulate_div(self.err.points)
        self.p_vals_err = self.pressure.eval(self.err.points)

        # the one edge rule of every boundary-edge integral
        self.bnd_rule = edge_quadrature(bnd_points)


@lru_cache(maxsize=None)
def reference_tables(k, vol_degree=None, bnd_points=None):
    return ReferenceTables(k, vol_degree=vol_degree, bnd_points=bnd_points)


@dataclass(frozen=True)
class DofMap:
    """Global numbering: edge moments first (k+1 per edge), then interior
    velocity blocks per triangle; pressure is blocked per triangle."""

    k: int
    n_edges: int
    n_triangles: int
    n_interior: int
    n_pressure_local: int

    @property
    def n_edge_dofs(self):
        return (self.k + 1) * self.n_edges

    @property
    def n_u(self):
        return self.n_edge_dofs + self.n_interior * self.n_triangles

    @property
    def n_p(self):
        return self.n_pressure_local * self.n_triangles


@dataclass
class ElementBlocks:
    """Element saddle blocks and the interface of the hybridized system.

    Element K's block L_K = [A_K B1_K^T; B0_K 0], in local (velocity,
    pressure) order, is ``flip[K] * matrix[cls[K]] * flip[K]`` (rows, then
    columns): ``matrix`` holds one unsigned block per class, an element
    shape up to round-off (``CLASS_BITS``), built from its representative's
    geometry, numbered by ``classes``, and ``flip[K]`` is S_K padded with
    +1 on pressure.  ``apply`` runs ``rounds``, one element of each class per
    batched product, then tails, the rest of each large class in one
    product.  Every boundary term is folded into the
    edge's owner; in strong mode the rows and columns of the constrained
    velocity dofs are identity.  It is the only copy of the blocks:
    ``operator_csr`` writes the global CSR from ``matrix``, ``cls`` and
    ``flip``.
    Normal continuity is broken on interior edges: both adjacent elements
    keep a copy of the edge's k+1 moments, tied by one multiplier each.
    ``copies`` is that interface as the mesh holds it: per interior edge, in
    ascending order, its two (triangle, local edge) copies, the one on
    ``edge_tris[e, 0]`` (the lower triangle) first, i.e. the interior rows of
    ``mesh.edge_tris`` and ``mesh.edge_slots`` side by side.  The solver
    numbers the multipliers (``solver._nested_dissection``) and applies the
    ties.
    """

    matrix: np.ndarray  # (n_cls, nd + npr, nd + npr) unsigned class blocks
    cls: np.ndarray  # (nel,) class of each element
    flip: np.ndarray  # (nel, nd + npr) S_K, +1 on pressure
    udofs: np.ndarray  # (nel, nd) global velocity dofs of the local ones
    copies: np.ndarray  # (m, 2, 2) (triangle, local edge) per interior edge and copy
    c: np.ndarray  # (nel, npr) theta_scale times the element's own pressure integrals
    rep: np.ndarray  # (n_cls,) each class's representative, its lowest-numbered element

    @cached_property
    def rounds(self):
        """(order, flip, sizes, tails): ``rounds`` of the classes ``cls``,
        with the signs ``flip`` in round order (row i of a round-order array
        is element ``order[i]``)."""
        order, sizes, tails = rounds(self.cls)
        return order, self.flip[order], sizes, tails

    def apply(self, x, blocks=None):
        """S_K blocks[cls[K]] S_K x[K] for every element K, with x and the
        result of shape (nel, nd + npr) in round order (``rounds``);
        ``blocks`` defaults to ``matrix`` (the solver passes the class
        inverses), applied by ``apply_rounds``."""
        blocks = self.matrix if blocks is None else blocks
        _, flip, sizes, tails = self.rounds
        y = apply_rounds(blocks, flip * x, sizes, tails)
        y *= flip
        return y


def classes(key):
    """(cls, rep): the rows of the integer array ``key`` (n, w) in classes
    of equal rows.  The numbering rule of every class here (element
    classes, subtree patterns): largest class first, ties in key order
    (lexicographic, column 0 first), one ``lexsort``; ``rep[c]`` is class
    c's first row."""
    order = np.lexsort(key.T[::-1])
    new = np.ones(len(key), bool)
    new[1:] = np.any(key[order[1:]] != key[order[:-1]], axis=1)
    by_size = np.argsort(-np.diff(np.flatnonzero(np.r_[new, True])), kind="stable")
    cls = np.empty(len(key), np.int64)
    cls[order] = np.argsort(by_size)[np.cumsum(new) - 1]
    return cls, order[new][by_size]


def rounds(cls):
    """(order, sizes, tails): the items in round order, each round's item
    count n_r, and each tail's, for the class ``cls`` of each item, the
    classes numbered by the rule of ``classes``.  Round r is the r-th item
    (by index) of every class with more than r items, in class order: these
    are the classes 0..n_r - 1, so the round meets the contiguous blocks
    ``blocks[:n_r]``.  After R rounds, tail c is the rest of class c, for
    each class with more than R items, in class order.  R minimizes the
    number of batched products, R plus the number of tails: one large class
    is one tail, not a round per item."""
    size = np.bincount(cls)
    by_class = np.argsort(cls, kind="stable")
    rank = np.empty(len(cls), np.int64)
    rank[by_class] = np.arange(len(by_class)) - np.repeat(np.cumsum(size) - size, size)
    per_round = np.bincount(rank)
    n_rounds = int(np.argmin(np.arange(len(per_round) + 1) + np.append(per_round, 0)))
    tail = rank >= n_rounds
    order = np.lexsort((np.where(tail, rank, cls), np.where(tail, cls, rank), tail))
    return order, per_round[:n_rounds], size[size > n_rounds] - n_rounds


def apply_rounds(blocks, x, sizes, tails):
    """blocks[c] x[i] for every row x[i] of an item of class c, the rows in
    the round order of ``rounds`` with its ``sizes`` and ``tails``: each
    round is one batched product with a prefix of ``blocks``, each tail one
    product broadcast from its class's block.  These are the per-row
    products of gathered blocks, so their bits, with no gathered array: the
    one class-batched product of the element applies and the fronts'
    sweeps."""
    y = np.empty((len(x), blocks.shape[1]))
    lo = 0
    calls = [(blocks[:n], n) for n in sizes.tolist()]
    calls += [(blocks[c], n) for c, n in enumerate(tails.tolist())]
    for block, n in calls:
        np.matmul(block, x[lo : lo + n, :, None], out=y[lo : lo + n, :, None])
        lo += n
    return y


class SaddleSystem:
    """The saddle-point operator on the unknowns (u, p, theta) of
    ``build_saddle_system``: the element blocks ``elements`` plus the
    pressure-mean column and row c (times ``Assembler.theta_scale``), and no
    other term (the boundary-mean term is folded into theta).  ``matvec``
    applies it element by element, and its global CSR ``matrix`` is written
    from the same class blocks on each read and never kept (checks and
    dumps; the solve never reads it)."""

    # read by bench/gate.py, for which None means that every velocity dof
    # is an unknown and that there is no rank-one term
    free_u = rank1 = None

    def __init__(self, rhs, elements):
        self.rhs = rhs
        self.elements = elements
        self.n_p = elements.c.size
        self.n_u = len(rhs) - self.n_p - 1

    @property
    def dimension(self):
        return self.n_u + self.n_p + 1

    @cached_property
    def _index(self):
        """The position in x of each element unknown, in round order."""
        return _element_index(self.elements, self.n_u)[self.elements.rounds[0]]

    def matvec(self, x):
        n, idx, c = self.dimension, self._index, self.elements.c.ravel()
        y_loc = self.elements.apply(x[idx])
        y = np.bincount(idx.ravel(), weights=y_loc.ravel(), minlength=n)
        y[self.n_u : -1] += c * x[-1]
        y[-1] = c @ x[self.n_u : -1]
        return y

    @property
    def matrix(self):
        """Global CSR of the operator, written from the class blocks and the
        column and row c by ``operator_csr``, anew on each read: a reader
        that needs it twice keeps it, and the system never holds it."""
        return operator_csr(self.elements, self.n_u)

    def split(self, x):
        """(velocity, pressure, theta)."""
        return x[: self.n_u], x[self.n_u : -1], float(x[-1])


class ShapeFunctions:
    """The global-DOF shape functions of the triangles ``owner``, one
    triangle per row of points: at points of shape (n, q, 2) the values have
    shape (n, q, n_d, 2).  This is the program's one element evaluator; every
    element is affine, so one batched Piola map serves all of them.  Over
    the boundary edges' owners it is the field of ``correction.taylor_trace``.

    Derivatives along nu are taken in reference coordinates, along
    nu_hat = J^-1 nu, and mapped back by the Piola transform, so order j
    costs j+1 reference tabulations over all nodes.
    """

    def __init__(self, assembler, owner):
        self.element = assembler.tables.element
        self.degree = self.element.k
        self.v0 = assembler.v0[owner]
        self.jinv = assembler.jinv[owner]
        self.jac, self.det = assembler.jac[owner], assembler.det[owner]
        self.sign = assembler.dof_sign[owner]

    def _reference(self, points):
        return _matvec2(self.jinv[:, None], points - self.v0[:, None, :])

    def _physical(self, ref_values, n_q):
        """(n_b * q, n_d, 2) reference values -> (n_b, q, n_d, 2)."""
        n_b = len(self.sign)
        vals = _piola(self.jac, self.det, ref_values.reshape(n_b, -1, 2))
        vals = vals.reshape((n_b, n_q) + ref_values.shape[1:])
        vals *= self.sign[:, None, :, None]
        return vals

    def eval(self, points):
        ref = self._reference(points).reshape(-1, 2)
        return self._physical(self.element.tabulate(ref), points.shape[1])

    def nu_derivative(self, geom, j):
        ref = self._reference(geom.points).reshape(-1, 2)
        nu_hat = _matvec2(self.jinv[:, None], geom.nu).reshape(-1, 2)
        ref_deriv = directional_derivative(
            lambda rx, ry: self.element.tabulate_derivative(ref, rx, ry), nu_hat, j
        )
        return self._physical(ref_deriv, geom.points.shape[1])


class Assembler:
    """Assembles the forms of one (mesh, degree, Taylor order, mode) setup.

    Heavy per-element data (the affine maps v0, jac, det, jinv, the DOF
    signs S_K, which ``ShapeFunctions`` reads for any set of elements, and
    the element classes ``cls`` and their representatives ``rep``) and the
    boundary data (trace geometry, the shape functions ``boundary_shapes``
    of the owners of the ``source_edges``, the edges whose traces are
    computed, and every edge's normal traces ``basis_trace``, shape
    (n_b, q, n_d), its source's in its own signs) are computed once and
    shared by the matrix, load, and error-measurement routines.  ``m`` is
    the Taylor order, an int in 0..k (default k).  Strong mode has no Taylor
    extension: it ignores ``m`` and takes plain traces (``self.m`` = 0).
    """

    def __init__(self, mesh, curves, k, m=None, mode="corrected",
                 quad_volume=None, quad_boundary=None):
        if mode not in ("corrected", "uncorrected-strong"):
            raise ValueError(f"unknown mode {mode!r}")
        if k < 1:
            raise ValueError("BDM discretizations need k >= 1")
        m = 0 if mode == "uncorrected-strong" else k if m is None else m
        if not 0 <= m <= k:
            raise ValueError("Taylor order must satisfy 0 <= m <= k")
        self.mesh = mesh
        self.curves = list(curves)
        self.k = k
        self.m = m
        self.mode = mode
        self.tables = reference_tables(k, vol_degree=quad_volume, bnd_points=quad_boundary)

        t = self.tables
        verts = mesh.vertices[mesh.triangles]  # (nel, 3, 2)
        self.v0 = verts[:, 0, :]
        jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
        self.jac = jac
        self.det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if not np.all(np.isfinite(self.det) & (self.det > 0)):
            raise ValueError("mesh contains degenerate or clockwise triangles")
        jinv = np.empty_like(jac)
        jinv[:, 0, 0] = jac[:, 1, 1]
        jinv[:, 0, 1] = -jac[:, 0, 1]
        jinv[:, 1, 0] = -jac[:, 1, 0]
        jinv[:, 1, 1] = jac[:, 0, 0]
        self.jinv = jinv / self.det[:, None, None]
        self.area = float(self.det.sum() / 2.0)
        half = np.ptp(mesh.vertices, axis=0).max() / 2.0  # border row scale, see above
        self.theta_scale = 4.0 ** -np.round(np.log2(half))

        self.dofmap = DofMap(
            k=k,
            n_edges=mesh.n_edges,
            n_triangles=mesh.n_triangles,
            n_interior=t.element.n_interior,
            n_pressure_local=t.pressure.dim,
        )
        self._build_indices()
        self.trace = geom = edge_trace_geometry(mesh, self.curves, t.bnd_rule)
        self.cls, self.rep = self._classes()
        # each boundary edge's source: the edge in its slot of its class
        # representative in corrected mode, whose traces it takes in its own
        # signs, and itself in strong mode, whose key holds no trace
        slot = mesh.edge_slots[mesh.boundary_edges, 0]
        source = np.arange(len(slot))
        if mode == "corrected":
            edge_at = np.full((mesh.n_triangles, 3), -1)
            edge_at[geom.owner, slot] = source
            source = edge_at[self.rep[self.cls[geom.owner]], slot]
            if np.any(source < 0):  # the key's slot columns rule it out
                raise RuntimeError(
                    "a class representative has no boundary edge in the slot of its member's")
        own = source == np.arange(len(slot))
        self.source_edges = np.flatnonzero(own)
        self.boundary_shapes = ShapeFunctions(self, geom.owner[self.source_edges])
        tv = taylor_trace_normal(self.boundary_shapes, geom.rows(self.source_edges), self.m)
        flip = self.dof_sign[geom.owner] * self.dof_sign[geom.owner[source]]
        self.basis_trace = tv[(np.cumsum(own) - 1)[source]] * flip[:, None, :]

    # -- structural setup ---------------------------------------------------

    def _build_indices(self):
        k, mesh = self.k, self.mesh
        nel = mesh.n_triangles
        nd = self.tables.element.dim
        n_int = self.tables.element.n_interior
        edge_dofs = (k + 1) * mesh.tri_edges[:, :, None] + np.arange(k + 1)
        interior = self.dofmap.n_edge_dofs + n_int * np.arange(nel)[:, None] + np.arange(n_int)
        self.gidx = np.concatenate([edge_dofs.reshape(nel, -1), interior], axis=1)

        # local edge l runs from local vertex l + 1 to l + 2; the global
        # (sorted-vertex) parametrization runs the same way where that start
        # is the lower vertex
        direction = np.where(mesh.triangles[:, [1, 2, 0]] < mesh.triangles[:, [2, 0, 1]], 1, -1)

        # S_K: +1 on interior moments; an edge moment of degree j takes the
        # orientation of the global normal (outward of edge_tris[e, 0]) times
        # the parity direction^j of the Legendre polynomial
        outward = np.where(mesh.edge_tris[mesh.tri_edges, 0] == np.arange(nel)[:, None], 1.0, -1.0)
        edge_sign = outward[:, :, None] * direction[:, :, None] ** np.arange(k + 1)
        self.dof_sign = np.ones((nel, nd))
        self.dof_sign[:, : 3 * (k + 1)] = edge_sign.reshape(nel, -1)

        if self.mode == "uncorrected-strong":
            boundary = self.mesh.boundary_edges  # ascending, so the dofs are sorted
            self.constrained = ((k + 1) * boundary[:, None] + np.arange(k + 1)).ravel()
        else:
            self.constrained = np.empty(0, np.int64)

    # -- local helpers -------------------------------------------------------

    def local_coeffs(self, u_global):
        """Mapped-reference-nodal coefficients S_K u_K of a global velocity
        vector, shape (nel, nd)."""
        return self.dof_sign * u_global[self.gidx]

    # -- matrix blocks --------------------------------------------------------

    @cached_property
    def elements(self):
        """The element saddle blocks L_K = [A_K B1_K^T; B0_K 0], written once
        per class of elements into one (n_cls, nd + npr, nd + npr) array, and
        the two copies of each interior edge (see ``ElementBlocks``).

        A class is the elements of one key of ``_classes``, their (g, det)
        and boundary slots and, in corrected mode, their boundary edges'
        trace geometry, rounded (``CLASS_BITS``), with the first of them,
        by index, as the representative whose geometry and boundary traces
        they all take: the boundary terms are computed for the
        representatives alone.  A_K is mass + div-div, plus (corrected
        mode) each boundary edge's penalty in its owner; symmetric by
        construction.  B1_K is B0_K plus (corrected mode) the
        straight-normal term of the element's boundary edges.  In strong
        mode the constrained dofs' rows and columns are identity (strong
        imposition of homogeneous data)."""
        t, mesh = self.tables, self.mesh
        nel, nd = mesh.n_triangles, t.element.dim
        npr = t.pressure.dim
        s = self.dof_sign
        geom, cls, rep = self.trace, self.cls, self.rep
        jt = self.jac[rep].transpose(0, 2, 1)
        g = _matvec2(jt[:, None], jt) / self.det[rep, None, None]  # J^T J / det

        # the unsigned blocks L^: mass + div-div of the mapped nodal basis
        matrix = np.zeros((len(rep), nd + npr, nd + npr))
        a, bt, b0 = matrix[:, :nd, :nd], matrix[:, :nd, nd:], matrix[:, nd:, :nd]
        a[...] = _contract(g, t.s_mass)
        a += t.s_div[None, :, :] / self.det[rep, None, None]
        b0[...] = t.b0_span
        bt[...] = t.b0_span.T

        if self.mode == "corrected":
            # each boundary term T of L_R, R a representative, goes to its
            # class as S_R T S_R
            edges = self.source_edges
            owner = geom.owner[edges]
            flip, w = s[owner], geom.weights[edges]
            tv = self.basis_trace[edges]
            pen = np.einsum("bq,bqi,bqj->bij", w, tv, tv) / geom.h_owner[edges, None, None]
            np.add.at(a, cls[owner], flip[:, :, None] * pen * flip[:, None, :])

            # straight-normal term int_e p (v . n_h), on the same nodes
            shapes, points = self.boundary_shapes, geom.points[edges]
            vn = dot2(shapes.eval(points), geom.n_h[edges, None, None, :])  # (n, q, nd)
            pvals = t.pressure.eval(shapes._reference(points).reshape(-1, 2))
            pw = w[:, :, None] * pvals.reshape(vn.shape[:2] + (npr,))
            np.add.at(bt, cls[owner], flip[:, :, None] * (vn.transpose(0, 2, 1) @ pw))
        else:
            # identity rows and columns at the local dofs of the boundary
            # edges, in the same slots in every member of a class
            e = np.repeat(cls[geom.owner], self.k + 1)
            slot = mesh.edge_slots[mesh.boundary_edges, 0]
            constrained = ((self.k + 1) * slot[:, None] + np.arange(self.k + 1)).ravel()
            matrix[e, constrained, :] = 0.0
            matrix[e, :, constrained] = 0.0
            matrix[e, constrained, constrained] = 1.0

        interior = mesh.edge_tris[:, 1] >= 0  # the copy on edge_tris[e, 0] first
        return ElementBlocks(
            matrix=matrix,
            cls=cls,
            flip=np.concatenate([s, np.ones((nel, npr))], axis=1),
            udofs=self.gidx,
            copies=np.stack([mesh.edge_tris[interior], mesh.edge_slots[interior]], axis=2),
            c=self.theta_scale * self.pressure_integrals().reshape(nel, -1),
            rep=rep,
        )

    def _classes(self):
        """(cls, rep) of ``classes`` over each element's key: its (g, det),
        g rounded by ``_bucket`` and det to a CLASS_BITS-bit mantissa, and
        per local edge 0, or 1 plus the class of its trace if it is a
        boundary edge.  In strong mode all traces are one class, and in
        corrected mode a trace is keyed on its geometry in the owner's frame:
        per node the pulled-back node, J^-1 (delta nu) and J^T n_gamma /
        sqrt(det), and J^T n_h / sqrt(det) and h_owner / sqrt(det), all
        ``_bucket``-ed.  With the owner's (g, det) and the edge's slot these
        fix the boundary terms, which rotation and translation leave as
        they are."""
        mesh, geom, nel = self.mesh, self.trace, self.mesh.n_triangles
        jt = self.jac.transpose(0, 2, 1)
        g = _matvec2(jt[:, None], jt) / self.det[:, None, None]  # J^T J / det
        mantissa, exponent = np.frexp(self.det)
        det = np.ldexp(np.rint(np.ldexp(mantissa, CLASS_BITS)), exponent - CLASS_BITS)
        key = np.column_stack([_bucket(g.reshape(nel, 4)), det, np.zeros((nel, 3))]).view(np.int64)
        trace = 0
        if self.mode == "corrected":
            o = geom.owner
            root, jinv = np.sqrt(self.det[o]), self.jinv[o, None]
            nodes = np.concatenate([
                _matvec2(jinv, geom.points - self.v0[o, None]),
                _matvec2(jinv, geom.delta[..., None] * geom.nu),
                _matvec2(jt[o, None], geom.n_gamma) / root[:, None, None],
            ], axis=2)
            trace_key = np.column_stack([nodes.reshape(len(o), -1),
                                         _matvec2(jt[o], geom.n_h) / root[:, None],
                                         geom.h_owner / root])
            trace = classes(_bucket(trace_key).view(np.int64))[0]
        key[geom.owner, 5 + mesh.edge_slots[mesh.boundary_edges, 0]] = 1 + trace
        return classes(key)  # largest first: the applies run on prefixes

    def matrix_a(self):
        """Velocity block A, the (u, u) slice of ``operator_csr``."""
        n_u = self.dofmap.n_u
        return operator_csr(self.elements, n_u)[:n_u, :n_u]

    def matrix_b(self):
        """(B1, B0): the transposed (u, p) and the (p, u) slices of
        ``operator_csr``."""
        n_u = self.dofmap.n_u
        mat = operator_csr(self.elements, n_u)
        return mat[:n_u, n_u:-1].T.tocsr(), mat[n_u:-1, :n_u]

    def physical_points(self, ref_points):
        """The images v0 + J x of reference points (q, 2) in every element,
        shape (nel, q, 2)."""
        points = _matvec2(self.jac[:, None], ref_points)
        points += self.v0[:, None, :]
        return points

    def piola(self, ref_values):
        """The contravariant Piola images J v / det of reference vectors
        (nel, q, 2), one row of q per element."""
        return _piola(self.jac, self.det, ref_values)

    def rhs(self, case):
        """Velocity and pressure load vectors for a manufactured case."""
        t = self.tables
        pts = self.physical_points(t.vol.points)
        fvals = case.source(pts.reshape(-1, 2)).reshape(pts.shape[:2])
        r_span = fvals @ t.v_div_w
        # one scatter of the volume entries, then the Neumann entries, in
        # element and edge order: a dof of an owner with two boundary edges
        # takes two Neumann terms, and this order fixes the bits of its sum
        dofs, loads = [self.gidx.ravel()], [(r_span * self.dof_sign).ravel()]

        f_mean = float(self.det @ (fvals @ t.vol.weights)) / self.area
        rhs_p = -(self.det[:, None] * ((fvals - f_mean) @ t.p_vals_w)).ravel()

        if self.mode == "corrected":
            geom = self.trace
            gn = pullback_neumann(case.neumann, geom)
            contrib = ((geom.weights * gn)[:, None, :] @ self.basis_trace)[:, 0]
            dofs.append(self.gidx[geom.owner].ravel())
            loads.append((contrib / geom.h_owner[:, None]).ravel())
        elif not case.homogeneous_neumann:
            raise ValueError(
                "strong imposition on the mesh boundary requires homogeneous "
                "Neumann data"
            )
        rhs_u = np.bincount(np.concatenate(dofs), weights=np.concatenate(loads),
                            minlength=self.dofmap.n_u)
        return rhs_u, rhs_p

    def pressure_integrals(self):
        """c_l = integral of the l-th pressure basis function."""
        c = np.einsum("e,l->el", self.det, self.tables.p_ref_integral)
        return c.ravel()

    def system(self, case, gauge=0.0):
        return build_saddle_system(self, case, gauge=gauge)


ROW_CHUNK = 16_384  # element rows per gathered batch of ``operator_csr``


def _element_index(elements, n_u):
    """(nel, nd + npr) position of each element unknown in the system's x:
    the velocity dofs, then the element's pressure block after the n_u
    velocity unknowns."""
    c = elements.c
    return np.concatenate([elements.udofs, n_u + np.arange(c.size).reshape(c.shape)], axis=1)


def operator_csr(elements, n_u):
    """The canonical CSR of the saddle operator on (u, p, theta), written
    straight from the class blocks, with no expanded blocks and no COO
    triplets.  The element rows of every L_K are counting-sorted by global
    row and written N = nd + npr entries each, a chunk at a time, so a
    shared edge dof's row is its two element rows one after the other.  A
    pressure row belongs to one element, and its last entry, in L_K's zero
    pressure block, holds theta's column c instead; then come theta's row c.
    ``sum_duplicates`` adds the two terms of a shared entry (a + b = b + a,
    so their order does not set the bits) and ``eliminate_zeros`` drops the
    zeros, among them the ones that cancel (in B1, the boundary term can
    cancel the volume term), both in place.  It is the program's one use of
    scipy, which is imported here, on the first call."""
    import scipy.sparse as sp

    c = elements.c.ravel()
    N = elements.udofs.shape[1] + elements.c.shape[1]
    # the two large arrays first, N entries per element row and theta's
    # row, so that the temporaries cannot split the free space they need
    size = len(elements.cls) * N * N + len(c)
    indices, data = np.empty(size, np.int32), np.empty(size)
    idx = _element_index(elements, n_u)
    n = n_u + len(c) + 1
    rows = idx.ravel()
    order = np.argsort(rows, kind="stable")
    length = np.bincount(rows, minlength=n) * N
    length[-1] = len(c)
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(length, out=indptr[1:])
    block, cols = data[: len(rows) * N].reshape(-1, N), indices[: len(rows) * N].reshape(-1, N)
    for first in range(0, len(order), ROW_CHUNK):
        part = slice(first, first + ROW_CHUNK)
        e, a = np.divmod(order[part], N)
        np.multiply(elements.matrix[elements.cls[e], a], elements.flip[e], out=block[part])
        block[part] *= elements.flip[e, a][:, None]
        cols[part] = idx[e]
    block[-len(c) :, -1], cols[-len(c) :, -1] = c, n - 1  # the pressure rows come last
    data[indptr[-2] :], indices[indptr[-2] :] = c, np.arange(n_u, n - 1)
    mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def build_saddle_system(assembler, case, gauge=0.0):
    """The linear system of an assembler's element blocks and the loads of
    ``case``:
        [ A    B1^T  0 ] [u]       [rhs_u]
        [ B0   0     c ] [p]   =   [rhs_p]
        [ 0    c^T   0 ] [theta]   [gauge]
    with c and gauge times s = ``assembler.theta_scale`` (see the module
    docstring).  The paper's second equation,
    B0 u + c lam + (c / area) flux.u = rhs_p, with flux.u the total normal
    flux through the mesh boundary, is this row for
    theta = (lam + flux.u / area) / s; u and p are the same.  In strong mode
    the constrained velocity dofs have identity rows and zero loads, so they
    come out 0 (homogeneous data), their flux vanishes and theta = lam / s.
    """
    rhs_u, rhs_p = assembler.rhs(case)
    rhs_u[assembler.constrained] = 0.0
    border = assembler.theta_scale * gauge
    return SaddleSystem(np.concatenate([rhs_u, rhs_p, [border]]), assembler.elements)
