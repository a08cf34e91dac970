"""Assembly of the mixed system on a body-fitted mesh.

Velocity unknowns are global BDM_k degrees of freedom: k+1 normal moments
per global edge (taken against Legendre polynomials in the sorted-vertex
parametrization, with the mesh's global edge normal) plus interior moments
per triangle.  Each element's local shape functions are the dual basis of
those functionals, obtained by inverting the per-element DOF matrix applied
to the Piola-mapped reference nodal basis; this keeps the normal-moment
coupling conforming across edges without sign bookkeeping.

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

The boundary forms share one array: the normal Taylor traces of the owning
triangles' shape functions at every boundary quadrature node, computed once
per assembler (plain traces, Taylor order 0, in strong mode).  The penalty,
the Neumann load and the error norms contract it.

The system is held once, as element saddle blocks: ``Assembler.elements``
allocates one (nel, nd+npr, nd+npr) array and writes each L_K into it, with
each boundary edge's terms added to its owning triangle's block and, in
strong mode, identity rows and columns at the constrained dofs.  The solve
path reads only this array and c: ``SaddleSystem.matvec`` applies the
operator element by element and the hybridized solve (``solver``) inverts
the blocks as they are.  Global sparse matrices are scattered from slices
of the same array on request only: ``SaddleSystem.matrix`` for checks and
dumps, ``Assembler.matrix_a`` and ``matrix_b`` for the blocks' own tests.
Accumulation order is fixed (elements ascending, then boundary edges
ascending), so repeated assemblies are bit-identical.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from bdmdarcy.correction import (
    TaylorConfig,
    directional_derivative,
    edge_trace_geometry,
    pullback_neumann,
    taylor_trace_normal,
)
from bdmdarcy.femcore.basis import EdgeBasis, triangle_basis
from bdmdarcy.femcore.element import (
    LocalField,
    REF_EDGES,
    REF_VERTICES,
    _bubble_times,
    bdm_reference_basis,
)
from bdmdarcy.femcore.quadrature import edge_quadrature, triangle_quadrature
from bdmdarcy.mesh import mesh_stats

__all__ = [
    "DofMap",
    "ElementBlocks",
    "SaddleSystem",
    "Assembler",
    "BoundaryShapeFunctions",
    "build_saddle_system",
    "quadrature_orders",
]

_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _contract(m, table):
    """sum_ab m[e, a, b] table[a, b, ...] as one GEMM, element-major and C-contiguous
    (an einsum's element-fastest result thrashes the cache at 2^j elements)."""
    return (m.reshape(len(m), 4) @ table.reshape(4, -1)).reshape(m.shape[:1] + table.shape[2:])


def _edge_ref_points(l, direction, s):
    """Reference coordinates of edge nodes in the global parametrization."""
    p, q = REF_EDGES[l]
    a, b = (REF_VERTICES[p], REF_VERTICES[q]) if direction > 0 else (
        REF_VERTICES[q],
        REF_VERTICES[p],
    )
    return 0.5 * (a + b) + 0.5 * np.outer(s, b - a)


def quadrature_orders(k, vol_degree=None, bnd_points=None):
    """(volume exactness degree, boundary point count) for degree k.

    Defaults: 2k+2 for stiffness/mass volume terms, k+3 Gauss points
    (degree 2k+5) for boundary integrals.  Overrides may only go upward:
    coarser rules make the mass matrix singular or the boundary penalty
    inexact.
    """
    vol_min, bnd_min = 2 * k + 2, k + 3
    if vol_degree is not None and vol_degree < vol_min:
        raise ValueError(f"volume quadrature degree must be at least {vol_min} for k = {k}")
    if bnd_points is not None and bnd_points < bnd_min:
        raise ValueError(f"boundary quadrature needs at least {bnd_min} points for k = {k}")
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

        self.s_mass = np.einsum("q,qna,qmb->abnm", w, self.v_vals, self.v_vals)
        self.s_div = np.einsum("q,qn,qm->nm", w, self.v_div, self.v_div)
        self.b0_span = -np.einsum("q,ql,qn->ln", w, self.p_vals, self.v_div)

        pint = np.einsum("q,ql->l", w, self.p_vals)
        pint[np.abs(pint) < 1e-14] = 0.0  # orthogonality to constants is exact
        self.p_ref_integral = pint
        self.p_const_value = float(self.pressure.eval([[1.0 / 3.0, 1.0 / 3.0]])[0, 0])

        # interior DOF test functions
        if self.element.n_grad:
            grads = triangle_basis(k - 1).grad(self.vol.points)[:, 1:, :]
            self.s_grad = np.einsum("q,qna,qrb->abrn", w, self.v_vals, grads)
        else:
            self.s_grad = None
        if self.element.n_curl:
            gw = _bubble_times(triangle_basis(k - 2), self.vol.points)
            self.s_curl = np.einsum("q,qna,qrb->abrn", w, self.v_vals, gw)
        else:
            self.s_curl = None

        # over-integration rule for error norms and diagnostics
        self.err = triangle_quadrature(2 * k + 4)
        self.v_vals_err = self.element.tabulate(self.err.points)
        self.v_div_err = self.element.tabulate_div(self.err.points)
        self.p_vals_err = self.pressure.eval(self.err.points)

        # edge rules: DOF moments (exact for the spanning fields used in
        # interpolation) and boundary integrals (curved compositions)
        self.dof_rule = edge_quadrature(k + 2)
        self.bnd_rule = edge_quadrature(bnd_points)
        self.leg_dof = EdgeBasis(k).eval(self.dof_rule.points)  # (g, k+1)
        self.v_edge = {}
        self.p_edge = {}
        for l in range(3):
            for direction in (1, -1):
                pts = _edge_ref_points(l, direction, self.dof_rule.points)
                self.v_edge[(l, direction)] = self.element.tabulate(pts)
                self.p_edge[(l, direction)] = self.pressure.eval(pts)


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

    ``matrix[K]`` is L_K = [A_K B1_K^T; B0_K 0] in local (velocity, pressure)
    order, with every boundary term folded into the edge's owner; in strong
    mode the rows and columns of the constrained velocity dofs are identity.
    It is the only copy of the blocks: ``Assembler.matrix_a``/``matrix_b``
    and ``SaddleSystem.matrix`` scatter from it.  Normal
    continuity is broken on interior edges: both adjacent elements keep a
    copy of the edge's k+1 moments, tied by one multiplier each.  For the
    3(k+1) local edge dofs, ``multiplier`` numbers that multiplier (-1 on
    boundary edges) and ``sign`` is +1 on ``edge_tris[e, 0]``, -1 on the
    other copy and 0 on boundary edges.
    """

    matrix: np.ndarray  # (nel, nd + npr, nd + npr)
    udofs: np.ndarray  # (nel, nd) global velocity dofs of the local ones
    multiplier: np.ndarray  # (nel, 3(k+1))
    sign: np.ndarray  # (nel, 3(k+1))
    c: np.ndarray  # (nel, npr) integrals of the pressure basis functions


class SaddleSystem:
    """The saddle-point operator on the unknowns (u, p, theta) of
    ``build_saddle_system``: the element blocks ``elements`` plus the
    pressure-mean column and row c, and no other term (the boundary-mean
    term is folded into theta = lam + flux.u / area).  ``matvec`` applies it
    element by element, and its global CSR ``matrix`` is scattered from the
    same blocks only when it is read (checks and dumps; the solve never
    reads it)."""

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
        """(nel, nd + npr) position of each element unknown in x."""
        c = self.elements.c
        pressure = self.n_u + np.arange(self.n_p).reshape(c.shape)
        return np.concatenate([self.elements.udofs, pressure], axis=1)

    def matvec(self, x):
        n, idx, c = self.dimension, self._index, self.elements.c.ravel()
        y_loc = (self.elements.matrix @ x[idx][:, :, None])[:, :, 0]
        y = np.bincount(idx.ravel(), weights=y_loc.ravel(), minlength=n)
        y[self.n_u : -1] += c * x[-1]
        y[-1] = c @ x[self.n_u : -1]
        return y

    @cached_property
    def matrix(self):
        """Global CSR of the operator, scattered from the element blocks and
        the column and row c."""
        n, idx, c = self.dimension, self._index, self.elements.c
        col = _scatter(c[:, :, None], idx[:, -c.shape[1]:], np.full((len(c), 1), n - 1), (n, n))
        return _scatter(self.elements.matrix, idx, idx, (n, n)) + col + col.T

    def split(self, x):
        """(velocity, pressure, theta)."""
        return x[: self.n_u], x[self.n_u : -1], float(x[-1])


class BoundaryShapeFunctions:
    """The global-DOF shape functions of every boundary edge's owning
    triangle, as one field over the boundary nodes (the field protocol of
    ``correction.taylor_trace``), with values of shape (n_b, q, n_d, 2).

    Derivatives along nu are taken in reference coordinates, along
    nu_hat = J^-1 nu, and mapped back by the Piola transform, so order j
    costs j+1 reference tabulations over all nodes.
    """

    def __init__(self, assembler):
        owner = assembler.trace.owner
        self.element = assembler.tables.element
        self.degree = self.element.k
        self.v0 = assembler.v0[owner]
        self.jinv = assembler.jinv[owner]
        self.piola = assembler.jac[owner] / assembler.det[owner, None, None]
        self.dual = assembler.local_dual[owner]

    def _reference(self, points):
        return np.einsum("bac,bqc->bqa", self.jinv, points - self.v0[:, None, :])

    def _physical(self, ref_values, n_q):
        """(n_b * q, n_span, 2) reference values -> (n_b, q, n_d, 2)."""
        vals = ref_values.reshape((len(self.dual), n_q) + ref_values.shape[1:])
        return np.einsum("bac,bqnc,bni->bqia", self.piola, vals, self.dual, optimize=True)

    def eval(self, points):
        ref = self._reference(points).reshape(-1, 2)
        return self._physical(self.element.tabulate(ref), points.shape[1])

    def nu_derivative(self, geom, j):
        ref = self._reference(geom.points).reshape(-1, 2)
        nu_hat = np.einsum("bac,bqc->bqa", self.jinv, geom.nu).reshape(-1, 2)
        ref_deriv = directional_derivative(
            lambda rx, ry: self.element.tabulate_derivative(ref, rx, ry), nu_hat, j
        )
        return self._physical(ref_deriv, geom.points.shape[1])


class Assembler:
    """Assembles the forms of one (mesh, degree, Taylor order, mode) setup.

    Heavy per-element data (affine maps, the inverse DOF matrices) and the
    boundary data (trace geometry, and the normal traces ``basis_trace`` of
    the owners' shape functions, shape (n_b, q, n_d)) are computed once and
    shared by the matrix, load, and error-measurement routines.  Strong mode
    has no Taylor extension: its traces are plain traces (order 0).
    """

    def __init__(self, mesh, curves, k, m=None, mode="corrected",
                 quad_volume=None, quad_boundary=None):
        if mode not in ("corrected", "uncorrected-strong"):
            raise ValueError(f"unknown mode {mode!r}")
        if k < 1:
            raise ValueError("BDM discretizations need k >= 1")
        self.mesh = mesh
        self.curves = list(curves)
        self.k = k
        if mode == "uncorrected-strong":
            m = 0
        self.taylor = TaylorConfig(k if m is None else m, k)
        self.mode = mode
        self.tables = reference_tables(k, vol_degree=quad_volume, bnd_points=quad_boundary)
        self.stats = mesh_stats(mesh)

        t = self.tables
        verts = mesh.vertices[mesh.triangles]  # (nel, 3, 2)
        self.verts = verts
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

        self.dofmap = DofMap(
            k=k,
            n_edges=mesh.n_edges,
            n_triangles=mesh.n_triangles,
            n_interior=t.element.n_interior,
            n_pressure_local=t.pressure.dim,
        )
        self._build_indices()
        self._build_local_duals()
        self.trace = edge_trace_geometry(mesh, self.curves, t.bnd_rule, self.stats.h_K)
        self.basis_trace = taylor_trace_normal(
            BoundaryShapeFunctions(self), self.trace, self.taylor
        )

    # -- structural setup ---------------------------------------------------

    def _build_indices(self):
        k, mesh = self.k, self.mesh
        nel = mesh.n_triangles
        nd = self.tables.element.dim
        gidx = np.empty((nel, nd), dtype=np.int64)
        for l in range(3):
            base = (k + 1) * mesh.tri_edges[:, l]
            gidx[:, l * (k + 1) : (l + 1) * (k + 1)] = base[:, None] + np.arange(k + 1)
        n_int = self.tables.element.n_interior
        start = self.dofmap.n_edge_dofs
        gidx[:, 3 * (k + 1) :] = (
            start + n_int * np.arange(nel)[:, None] + np.arange(n_int)
        )
        self.gidx = gidx
        self.pidx = (
            self.dofmap.n_pressure_local * np.arange(nel)[:, None]
            + np.arange(self.dofmap.n_pressure_local)
        )

        # direction of the global (sorted-vertex) parametrization per local edge
        direction = np.empty((nel, 3), dtype=np.int64)
        for l, (p, q) in enumerate(REF_EDGES):
            start_vertex = self.mesh.edges[self.mesh.tri_edges[:, l], 0]
            direction[:, l] = np.where(self.mesh.triangles[:, p] == start_vertex, 1, -1)
        self.edge_direction = direction

        if self.mode == "uncorrected-strong":
            boundary = self.mesh.boundary_edges  # ascending, so the dofs are sorted
            self.constrained = ((k + 1) * boundary[:, None] + np.arange(k + 1)).ravel()
        else:
            self.constrained = np.empty(0, np.int64)

    def _build_local_duals(self):
        """Per-element DOF matrices against the mapped reference nodal basis,
        and their inverses."""
        t, mesh, k = self.tables, self.mesh, self.k
        nel, nd = mesh.n_triangles, t.element.dim
        dof = np.zeros((nel, nd, nd))

        wleg = t.dof_rule.weights[:, None] * t.leg_dof  # (g, k+1)
        lengths = mesh.edge_lengths()
        for l in range(3):
            e_ids = mesh.tri_edges[:, l]
            scale = lengths[e_ids] / (2.0 * self.det)
            u = np.einsum("eba,eb->ea", self.jac, mesh.edge_normal[e_ids])  # J^T n
            for direction in (1, -1):
                sel = np.flatnonzero(self.edge_direction[:, l] == direction)
                tab = t.v_edge[(l, direction)]  # (g, nd, 2)
                rows = np.einsum(
                    "gm,ea,gna->emn", wleg, u[sel], tab, optimize=True
                ) * scale[sel, None, None]
                dof[sel, l * (k + 1) : (l + 1) * (k + 1), :] = rows

        row0 = 3 * (k + 1)
        for table, rot in ((t.s_grad, np.eye(2)), (t.s_curl, _ROT)):  # J^T rot J^-T
            if table is not None:
                metric = np.einsum("eca,cd,ebd->eab", self.jac, rot, self.jinv)
                dof[:, row0 : row0 + table.shape[2], :] = _contract(metric, table)
                row0 += table.shape[2]
        self.local_dual = np.linalg.inv(dof)  # columns: dual basis in span coords

    # -- local helpers -------------------------------------------------------

    def local_field(self, t, coeffs_span):
        return LocalField(self.verts[t], self.tables.element, coeffs_span)

    def local_coeffs(self, u_global):
        """Mapped-reference-nodal coefficients of a global velocity vector,
        shape (nel, nd)."""
        return np.einsum("eni,ei->en", self.local_dual, u_global[self.gidx])

    # -- matrix blocks --------------------------------------------------------

    @cached_property
    def elements(self):
        """The element saddle blocks L_K = [A_K B1_K^T; B0_K 0], written once
        into one (nel, nd + npr, nd + npr) array, and the interior-edge
        multipliers that tie them (see ``ElementBlocks``).

        A_K is mass + div-div, plus (corrected mode) each boundary edge's
        penalty in its owner; symmetric by construction.  B1_K is B0_K plus
        (corrected mode) the straight-normal term of the element's boundary
        edges.  In strong mode the constrained dofs' rows and columns are
        identity (strong imposition of homogeneous data)."""
        t, mesh, k = self.tables, self.mesh, self.k
        nel, nd = mesh.n_triangles, t.element.dim
        npr = t.pressure.dim
        matrix = np.zeros((nel, nd + npr, nd + npr))
        a, bt, b0 = matrix[:, :nd, :nd], matrix[:, :nd, nd:], matrix[:, nd:, :nd]

        g = np.einsum("eba,ebc->eac", self.jac, self.jac) / self.det[:, None, None]
        span = _contract(g, t.s_mass)
        span += t.s_div[None, :, :] / self.det[:, None, None]
        a[...] = np.matmul(
            np.transpose(self.local_dual, (0, 2, 1)), np.matmul(span, self.local_dual)
        )
        b0[...] = np.einsum("ln,eni->eli", t.b0_span, self.local_dual)
        bt[...] = np.transpose(b0, (0, 2, 1))

        if self.mode == "corrected":
            geom, tv = self.trace, self.basis_trace
            pen = np.einsum("bq,bqi,bqj->bij", geom.weights, tv, tv)
            np.add.at(a, geom.owner, pen / geom.h_owner[:, None, None])

            edges, owner = geom.edges, geom.owner
            local_edge = np.argmax(mesh.tri_edges[owner] == edges[:, None], axis=1)
            direction = self.edge_direction[owner, local_edge]
            keys = [(l, d) for l in range(3) for d in (1, -1)]
            which = 2 * local_edge + (direction < 0)  # position of (l, direction) in keys
            tab = np.stack([t.v_edge[key] for key in keys])[which]  # (n_b, g, nd, 2)
            pvals = np.stack([t.p_edge[key] for key in keys])[which]  # (n_b, g, npr)
            u = np.einsum("eba,eb->ea", self.jac[owner], geom.n_h)  # J^T n
            vn = np.einsum("ea,egna,eni->egi", u, tab, self.local_dual[owner], optimize=True)
            w = 0.5 * mesh.edge_lengths()[edges] / self.det[owner]
            loc = np.einsum("e,g,egl,egi->eli", w, t.dof_rule.weights, pvals, vn, optimize=True)
            np.add.at(bt, owner, np.transpose(loc, (0, 2, 1)))
        else:
            e, i = np.nonzero(np.isin(self.gidx, self.constrained))
            matrix[e, i, :] = 0.0
            matrix[e, :, i] = 0.0
            matrix[e, i, i] = 1.0

        interior = mesh.edge_tris[:, 1] >= 0
        first = (k + 1) * (np.cumsum(interior) - 1)
        edges = mesh.tri_edges  # (nel, 3)
        inner = interior[edges][:, :, None]
        multiplier = np.where(inner, first[edges][:, :, None] + np.arange(k + 1), -1)
        sign = np.where(mesh.edge_tris[edges, 0] == np.arange(nel)[:, None], 1, -1)
        sign = np.where(inner, sign[:, :, None], 0).repeat(k + 1, axis=2)
        return ElementBlocks(
            matrix=matrix,
            udofs=self.gidx,
            multiplier=multiplier.reshape(nel, -1),
            sign=sign.reshape(nel, -1),
            c=self.pressure_integrals().reshape(nel, -1),
        )

    def matrix_a(self):
        """Velocity block A, scattered from the A_K slices of ``elements``."""
        n_u, nd = self.dofmap.n_u, self.gidx.shape[1]
        return _scatter(self.elements.matrix[:, :nd, :nd], self.gidx, self.gidx, (n_u, n_u))

    def matrix_b(self):
        """(B1, B0), scattered from the B1_K^T and B0_K slices of
        ``elements``."""
        matrix, nd = self.elements.matrix, self.gidx.shape[1]
        shape = (self.dofmap.n_p, self.dofmap.n_u)
        return tuple(
            _scatter(b, self.pidx, self.gidx, shape)
            for b in (np.transpose(matrix[:, :nd, nd:], (0, 2, 1)), matrix[:, nd:, :nd])
        )

    def rhs(self, case):
        """Velocity and pressure load vectors for a manufactured case."""
        t = self.tables
        pts = self.v0[:, None, :] + np.einsum(
            "eab,qb->eqa", self.jac, t.vol.points
        )  # (nel, q, 2)
        fvals = case.source(pts.reshape(-1, 2)).reshape(pts.shape[:2])
        rhs_u = np.zeros(self.dofmap.n_u)
        r_span = np.einsum("q,eq,qn->en", t.vol.weights, fvals, t.v_div)
        np.add.at(rhs_u, self.gidx, np.einsum("en,eni->ei", r_span, self.local_dual))

        f_mean = float(
            np.einsum("e,q,eq->", self.det, t.vol.weights, fvals) / self.area
        )
        rhs_p = -np.einsum(
            "e,q,eq,ql->el", self.det, t.vol.weights, fvals - f_mean, t.p_vals
        ).ravel()

        if self.mode == "corrected":
            geom = self.trace
            gn = pullback_neumann(case.neumann, geom)
            contrib = np.einsum("bq,bq,bqi->bi", geom.weights, gn, self.basis_trace)
            np.add.at(rhs_u, self.gidx[geom.owner], contrib / geom.h_owner[:, None])
        elif not case.homogeneous_neumann:
            raise ValueError(
                "strong imposition on the mesh boundary requires homogeneous "
                "Neumann data"
            )
        return rhs_u, rhs_p

    def constant_pressure(self):
        """Coefficients of the pressure function identically one."""
        vec = np.zeros(self.dofmap.n_p)
        vec[self.pidx[:, 0]] = 1.0 / self.tables.p_const_value
        return vec

    def pressure_integrals(self):
        """c_l = integral of the l-th pressure basis function."""
        c = np.einsum("e,l->el", self.det, self.tables.p_ref_integral)
        return c.ravel()

    def system(self, case, gauge=0.0):
        return build_saddle_system(self, case, gauge=gauge)

    # -- global interpolation (used by diagnostics and error studies) --------

    def interpolate_velocity(self, func):
        """Global BDM interpolation of a smooth vector field: every global
        DOF functional applied to the field."""
        t, mesh, k = self.tables, self.mesh, self.k
        coeffs = np.zeros(self.dofmap.n_u)
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        s = t.dof_rule.points
        pts = a[:, None, :] + 0.5 * (s[None, :, None] + 1.0) * (b - a)[:, None, :]
        vals = np.asarray(func(pts.reshape(-1, 2))).reshape(len(a), len(s), 2)
        vn = np.einsum("ega,ea->eg", vals, mesh.edge_normal)
        lengths = mesh.edge_lengths()
        moments = 0.5 * lengths[:, None] * np.einsum(
            "g,gm,eg->em", t.dof_rule.weights, t.leg_dof, vn
        )
        coeffs[: self.dofmap.n_edge_dofs] = moments.ravel()

        if t.element.n_interior:
            pts = self.v0[:, None, :] + np.einsum("eab,qb->eqa", self.jac, t.vol.points)
            fvals = np.asarray(func(pts.reshape(-1, 2))).reshape(pts.shape)
            rows = []
            if t.s_grad is not None:
                grads = triangle_basis(k - 1).grad(t.vol.points)[:, 1:, :]
                gphys = np.einsum("qrb,eba->eqra", grads, self.jinv)
                rows.append(
                    np.einsum("e,q,eqra,eqa->er", self.det, t.vol.weights, gphys, fvals,
                              optimize=True)
                )
            if t.s_curl is not None:
                gw = _bubble_times(triangle_basis(k - 2), t.vol.points)
                cphys = np.einsum("qrb,eba,ca->eqrc", gw, self.jinv, _ROT)
                rows.append(
                    np.einsum("e,q,eqra,eqa->er", self.det, t.vol.weights, cphys, fvals,
                              optimize=True)
                )
            interior = np.concatenate(rows, axis=1)
            coeffs[self.dofmap.n_edge_dofs :] = interior.ravel()
        return coeffs

    def project_pressure_global(self, func):
        """Elementwise L2 projection onto the pressure space."""
        t = self.tables
        pts = self.v0[:, None, :] + np.einsum("eab,qb->eqa", self.jac, t.err.points)
        vals = np.asarray(func(pts.reshape(-1, 2))).reshape(pts.shape[:2])
        return np.einsum("q,eq,ql->el", t.err.weights, vals, t.p_vals_err).ravel()


def _scatter(local, rows, cols, shape):
    """Sum element blocks local[e] into the CSR matrix at (rows[e], cols[e]),
    dropping entries that cancel to zero (in B1, the boundary term can cancel
    the volume term).  The indices are int32 and a contiguous ``local`` is not
    copied, so the peak memory stays near that of the CSR itself."""
    r, c = np.empty(local.shape, np.int32), np.empty(local.shape, np.int32)
    r[...], c[...] = rows[:, :, None], cols[:, None, :]
    mat = sp.csr_matrix((local.ravel(), (r.ravel(), c.ravel())), shape=shape)
    mat.eliminate_zeros()
    return mat


def build_saddle_system(assembler, case, gauge=0.0):
    """The linear system of an assembler's element blocks and the loads of
    ``case``:
        [ A    B1^T  0 ] [u]       [rhs_u]
        [ B0   0     c ] [p]   =   [rhs_p]
        [ 0    c^T   0 ] [theta]   [gauge]
    The paper's second equation, B0 u + c lam + (c / area) flux.u = rhs_p,
    with flux.u the total normal flux through the mesh boundary, is this row
    for theta = lam + flux.u / area; u and p are the same.  In strong mode
    the constrained velocity dofs have identity rows and zero loads, so they
    come out 0 (homogeneous data), their flux vanishes and theta = lam.
    """
    rhs_u, rhs_p = assembler.rhs(case)
    rhs_u[assembler.constrained] = 0.0
    return SaddleSystem(np.concatenate([rhs_u, rhs_p, [gauge]]), assembler.elements)
