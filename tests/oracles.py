"""Independent slow-path evaluations used to cross-check the assembly.

Everything here recomputes forms element by element, never through the
assembled sparse matrices or the batched element arrays: mostly by explicit
quadrature through LocalField evaluations, and in ``element_blocks`` by the
reference tables contracted one element at a time.  ``signed_blocks`` is
the exception: the assembler's own arithmetic applied to every element's
geometry, or its class representative's, and signs, with no classes, for
comparisons bit for bit.  The boundary terms go
edge by edge: per-edge projection data, physical mixed partials by the
chain rule, and the Taylor sum assembled from them, where the program
computes the same traces for all boundary nodes at once.
The per-triangle field ``LocalField`` and its ``affine_map`` live here as
the reference of the program's batched evaluator, ``assembly.ShapeFunctions``.
The random disks and rings of the property tests are drawn here too, and
the canonical BDM interpolant, the pressure projection and the constant
pressure live here: only the tests read them.  So do the pressure index
of each element, the expanded element blocks and the COO scatter of the
global matrices from them, the reference of the program's one-pass CSR
builder and, in absolute value, of the solver's |M| |x|, the element
apply on blocks gathered a chunk of elements at a time, the reference of
the program's one in class order, with the classes in key order, the COO build of the interface matrix, the matrix that the
solver's tree factor factors, with the closed form of the fronts' sizes,
and the hybridized apply on per-dof multiplier and sign arrays, the
reference of the solver's per-edge one.  The mesh's
incidence data has its references here too, derived by geometry and
searches: the edge normals by a centroid test, the DOF signs by a vertex
lookup, the interface slots by an ``argmax`` and the strong mode's
constrained local dofs by ``np.isin``.  The loads and the error norms
have their einsum forms here, the references of the program's GEMM and
GEMV reductions, and the manufactured cases their closed forms, the
references of the cases that ``analysis`` builds from their pressure.
"""

from math import comb, factorial, isqrt
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st
from numpy.polynomial.legendre import legvander

from bdmdarcy import correction, solver
from bdmdarcy.analysis import _Poly2D
from bdmdarcy.assembly import CLASS_BITS, ShapeFunctions, _contract, _element_index
from bdmdarcy.femcore import edge_quadrature, triangle_quadrature
from bdmdarcy.femcore.basis import triangle_basis
from bdmdarcy.femcore.element import REF_EDGES, REF_VERTICES, _bubble_times
from bdmdarcy.mesh import _build_mesh, disk_domain, ring_domain
from domains import edge_lengths

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # curl w = ROT @ grad w


def affine_map(verts):
    """(v0, J, detJ, Jinv) of the affine map from the reference triangle."""
    verts = np.asarray(verts, dtype=float)
    j = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    if det <= 0:
        raise ValueError("triangle is degenerate or clockwise")
    jinv = np.array([[j[1, 1], -j[0, 1]], [-j[1, 0], j[0, 0]]]) / det
    return verts[0], j, det, jinv


class LocalField:
    """Polynomial vector field on one triangle, coefficients taken in the
    Piola-mapped reference nodal basis.  Coefficients may carry leading axes
    (a stack of fields sharing the element)."""

    def __init__(self, verts, element, coeffs):
        self.verts = np.asarray(verts, dtype=float)
        self.element = element
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.degree = element.k
        self.v0, self.jac, self.det, self.jinv = affine_map(self.verts)

    def _ref_points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - self.v0) @ self.jinv.T

    def eval(self, pts):
        """Values at physical points, shape (npts, ..., 2)."""
        vals = self.element.tabulate(self._ref_points(pts))  # (q, nd, 2)
        return np.einsum("qja,...j->q...a", vals @ self.jac.T / self.det, self.coeffs)


def element_vertices(asm, t):
    """The vertices of triangle t of an assembler's mesh, (3, 2)."""
    return asm.mesh.vertices[asm.mesh.triangles[t]]


def local_field(asm, t, coeffs):
    """The LocalField of triangle t of an assembler's mesh, with
    coefficients in its mapped reference nodal basis."""
    return LocalField(element_vertices(asm, t), asm.tables.element, coeffs)


def relabelled(mesh, curves, seed):
    """The same mesh under a vertex permutation, a triangle permutation and
    a cyclic rotation of each triangle's vertices (still counterclockwise)."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    cyclic = (np.arange(3) + rng.integers(0, 3, (mesh.n_triangles, 1))) % 3
    triangles = np.take_along_axis(new_id[mesh.triangles], cyclic, axis=1)
    return _build_mesh(vertices, triangles[rng.permutation(mesh.n_triangles)], curves, mesh.level)


@st.composite
def random_domains(draw):
    """The boundary curves of a disk or a ring with random centre and radii."""
    center = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(2))
    if draw(st.booleans()):
        return disk_domain(center=center, radius=draw(st.floats(0.2, 5.0)))
    r_outer = draw(st.floats(0.3, 5.0))
    r_inner = r_outer * draw(st.floats(0.3, 0.7))
    return ring_domain(center=center, r_inner=r_inner, r_outer=r_outer)


def divergence(field, pts):
    """Divergence of a LocalField at physical points, shape (npts, ...)."""
    d = field.element.tabulate_div(field._ref_points(pts)) / field.det
    return np.einsum("qj,...j->q...", d, field.coeffs)


def basis_field(asm, t):
    """All global-DOF shape functions of element t as one stacked field: the
    mapped nodal basis times the DOF signs S_K."""
    return local_field(asm, t, np.diag(asm.dof_sign[t]))


def _interior_test_fields(k, points):
    """Reference interior test fields at reference points, (q, n_interior, 2):
    gradients of P_{k-1} without the constant, then curls of bubbles times
    P_{k-2}.  A physical element tests against them mapped covariantly."""
    grads = triangle_basis(k - 1).grad(points)[:, 1:, :]
    if k < 2:
        return grads
    return np.concatenate([grads, _bubble_times(triangle_basis(k - 2), points) @ ROT.T], axis=1)


def interpolate_velocity(asm, func):
    """Global BDM interpolation of a smooth vector field: every global DOF
    functional applied to the field.  Edge moments against Legendre
    polynomials in the sorted-vertex parametrization, with the mesh's
    global normal; interior moments against J^-T phi for the reference
    test fields phi, so int_K f . J^-T phi = int_Khat det J J^-1 f . phi."""
    t, mesh, k = asm.tables, asm.mesh, asm.k
    coeffs = np.zeros(asm.dofmap.n_u)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    rule = edge_quadrature(k + 2)
    s = rule.points
    pts = a[:, None, :] + 0.5 * (s[None, :, None] + 1.0) * (b - a)[:, None, :]
    vals = np.asarray(func(pts.reshape(-1, 2))).reshape(len(a), len(s), 2)
    vn = np.einsum("ega,ea->eg", vals, mesh.edge_normal)
    moments = 0.5 * edge_lengths(mesh)[:, None] * np.einsum(
        "g,gm,eg->em", rule.weights, legvander(s, k), vn
    )
    coeffs[: asm.dofmap.n_edge_dofs] = moments.ravel()

    if t.element.n_interior:
        pts = asm.v0[:, None, :] + np.einsum("eab,qb->eqa", asm.jac, t.vol.points)
        fvals = np.asarray(func(pts.reshape(-1, 2))).reshape(pts.shape)
        pulled = np.einsum("e,eab,eqb->eqa", asm.det, asm.jinv, fvals)  # det J^-1 f
        tests = _interior_test_fields(k, t.vol.points)
        interior = np.einsum("q,qra,eqa->er", t.vol.weights, tests, pulled)
        coeffs[asm.dofmap.n_edge_dofs :] = interior.ravel()
    return coeffs


def pressure_index(asm):
    """(nel, npr) places of each element's dofs in the pressure vector,
    which is blocked per triangle."""
    npr = asm.dofmap.n_pressure_local
    return npr * np.arange(asm.dofmap.n_triangles)[:, None] + np.arange(npr)


def constant_pressure(asm):
    """Coefficients of the pressure function identically one."""
    vec = np.zeros(asm.dofmap.n_p)
    vec[pressure_index(asm)[:, 0]] = 1.0 / asm.tables.p_const_value
    return vec


def project_pressure_global(asm, func):
    """Elementwise L2 projection onto the pressure space."""
    t = asm.tables
    pts = asm.v0[:, None, :] + np.einsum("eab,qb->eqa", asm.jac, t.err.points)
    vals = np.asarray(func(pts.reshape(-1, 2))).reshape(pts.shape[:2])
    return np.einsum("q,eq,ql->el", t.err.weights, vals, t.p_vals_err).ravel()


def dof_matrix(asm, e):
    """DOF functionals of element e applied to its Piola-mapped reference
    nodal basis J v_hat / det J, (nd, nd), from the element's own affine map:
    edge moments with the mesh's global normal and sorted-vertex
    parametrization, interior moments against J^-T phi for the reference
    test fields phi.  Points are placed in reference coordinates, so no
    physical point is mapped back."""
    t, mesh, k = asm.tables, asm.mesh, asm.k
    _, jac, det, jinv = affine_map(element_vertices(asm, e))
    rule = edge_quadrature(k + 2)
    wleg = rule.weights[:, None] * legvander(rule.points, k)  # (g, k+1)
    local = list(mesh.triangles[e])
    rows = []
    for edge in mesh.tri_edges[e]:
        ra, rb = (REF_VERTICES[local.index(v)] for v in mesh.edges[edge])
        ref = 0.5 * (ra + rb) + 0.5 * np.outer(rule.points, rb - ra)
        vn = t.element.tabulate(ref) @ (jac.T @ mesh.edge_normal[edge]) / det  # (g, nd)
        length = np.hypot(*np.diff(mesh.vertices[mesh.edges[edge]], axis=0)[0])
        rows.append(0.5 * length * wleg.T @ vn)
    vol = triangle_quadrature(2 * k)
    vals = t.element.tabulate(vol.points) @ jac.T / det  # (q, nd, 2)
    tests = _interior_test_fields(k, vol.points) @ jinv  # J^-T phi, (q, r, 2)
    rows.append(det * np.einsum("q,qra,qna->rn", vol.weights, tests, vals))
    return np.concatenate(rows)


class Partials:
    """A LocalField with its physical mixed partials, by the chain rule over
    the reference partials."""

    def __init__(self, field):
        self.field = field
        self.degree = field.degree

    def eval(self, pts):
        return self.field.eval(pts)

    def derivative(self, pts, rx, ry):
        """Physical mixed partial d^rx_x d^ry_y, shape (npts, ..., 2)."""
        f = self.field
        ref = f._ref_points(pts)
        a, b = f.jinv[0, 0], f.jinv[1, 0]
        c, d = f.jinv[0, 1], f.jinv[1, 1]
        total = np.zeros((len(ref),) + f.coeffs.shape[:-1] + (2,))
        for i in range(rx + 1):
            for j in range(ry + 1):
                factor = (
                    comb(rx, i) * comb(ry, j)
                    * a**i * b ** (rx - i) * c**j * d ** (ry - j)
                )
                if factor == 0.0:
                    continue
                tab = f.element.tabulate_derivative(ref, i + j, rx + ry - i - j)
                total += factor * np.einsum(
                    "qja,...j->q...a", tab @ f.jac.T / f.det, f.coeffs
                )
        return total


class ExactPartials:
    """A manufactured case's velocity with its closed-form partials (no
    polynomial degree: the truncated sum is always used)."""

    degree = None

    def __init__(self, case):
        self.case = case

    def eval(self, pts):
        return self.case.velocity(pts)

    def derivative(self, pts, rx, ry):
        return self.case.velocity_derivative(pts, rx, ry)


def closed_form_circle():
    """The disk case with its velocity and partials written out by hand,
    u = (3 - 3x^2 - y^2, -2xy), p = x^3 + x y^2 - 3x, f = -8x: the reference
    of ``analysis.case_circle``, which derives u from p."""
    u1 = _Poly2D([[3.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])
    u2 = _Poly2D([[0.0, 0.0], [0.0, -2.0]])
    p = _Poly2D([[0.0, 0.0, 0.0], [-3.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return SimpleNamespace(
        velocity=lambda pts: np.column_stack([u1(pts), u2(pts)]),
        velocity_derivative=lambda pts, rx, ry: np.column_stack(
            [u1.derivative(pts, rx, ry), u2.derivative(pts, rx, ry)]),
        pressure=p,
        source=lambda pts: -8.0 * np.atleast_2d(pts)[:, 0],
    )


def closed_form_ring():
    """The ring case written out by hand, p = -sin(2 pi x) sin(2 pi y), with
    the partials of u = -grad p by a phase advance of pi/2 per derivative:
    the reference of ``analysis.case_ring``."""
    w = 2.0 * np.pi

    def velocity(pts):
        x, y = np.atleast_2d(pts).T
        return np.column_stack([w * np.cos(w * x) * np.sin(w * y),
                                w * np.sin(w * x) * np.cos(w * y)])

    def velocity_derivative(pts, rx, ry):
        x, y = np.atleast_2d(pts).T
        amp = w * w ** (rx + ry)
        c1 = amp * np.cos(w * x + rx * np.pi / 2.0) * np.sin(w * y + ry * np.pi / 2.0)
        c2 = amp * np.sin(w * x + rx * np.pi / 2.0) * np.cos(w * y + ry * np.pi / 2.0)
        return np.column_stack([c1, c2])

    def pressure(pts):
        x, y = np.atleast_2d(pts).T
        return -np.sin(w * x) * np.sin(w * y)

    def source(pts):
        x, y = np.atleast_2d(pts).T
        return -8.0 * np.pi**2 * np.sin(w * x) * np.sin(w * y)

    return SimpleNamespace(velocity=velocity, velocity_derivative=velocity_derivative,
                           pressure=pressure, source=source)


def edge_geometry(mesh, curve, edge_id, rule, h_owner):
    """Projection data of the nodes of one boundary edge."""
    a, b = mesh.vertices[mesh.edges[edge_id]]
    points = 0.5 * (a + b) + 0.5 * np.outer(rule.points, b - a)
    projected, delta, nu, n_gamma = curve.project_many(points)
    return SimpleNamespace(
        edge_id=int(edge_id),
        owner=int(mesh.edge_tris[edge_id, 0]),
        points=points,
        weights=0.5 * np.hypot(*(b - a)) * rule.weights,
        delta=delta,
        nu=nu,
        n_gamma=n_gamma,
        n_h=mesh.edge_normal[edge_id].copy(),
        h_owner=float(h_owner),
        projected=projected,
    )


def edge_geometries(asm):
    """Per-edge projection data of every boundary edge, with the
    assembler's boundary rule, in ``mesh.boundary_edges`` order."""
    mesh = asm.mesh
    return [
        edge_geometry(mesh, asm.curves[mesh.edge_component[e]], e, asm.tables.bnd_rule,
                      mesh.h_K[mesh.edge_tris[e, 0]])
        for e in mesh.boundary_edges
    ]


def taylor_trace(field, geom, m):
    """Order-m Taylor extension of a field at the nodes of one boundary edge,
    from mixed partials contracted with powers of nu (point evaluation at the
    projected nodes when the sum is exact, for a polynomial of degree <= m)."""
    degree = getattr(field, "degree", None)
    if degree is not None and degree <= m:
        return field.eval(geom.projected)
    total = field.eval(geom.points).copy()
    shape_tail = total.shape[1:]
    nu_x, nu_y = geom.nu[:, 0], geom.nu[:, 1]
    for j in range(1, m + 1):
        dir_deriv = np.zeros_like(total)
        for i in range(j + 1):
            part = field.derivative(geom.points, i, j - i)
            factor = comb(j, i) * nu_x**i * nu_y ** (j - i)
            dir_deriv += factor.reshape((-1,) + (1,) * len(shape_tail)) * part
        total += (geom.delta**j / factorial(j)).reshape(
            (-1,) + (1,) * len(shape_tail)
        ) * dir_deriv
    return total


def taylor_trace_normal(field, geom, m):
    """Normal component of the per-edge Taylor extension against n_gamma."""
    return np.einsum("q...a,qa->q...", taylor_trace(field, geom, m), geom.n_gamma)


def norm_0h(asm, u):
    """The mesh-dependent velocity norm of a discrete field, computed by
    direct quadrature (independent of the assembled matrix)."""
    t = asm.tables
    w = asm.local_coeffs(u)
    vals = np.einsum("en,qna->eqa", w, t.v_vals_err)
    vals = np.einsum("eab,eqb->eqa", asm.jac, vals) / asm.det[:, None, None]
    div = np.einsum("en,qn->eq", w, t.v_div_err) / asm.det[:, None]
    total = float(np.einsum("e,q,eqa->", asm.det, t.err.weights, vals**2))
    total += float(np.einsum("e,q,eq->", asm.det, t.err.weights, div**2))
    if asm.mode == "corrected":
        for geom in edge_geometries(asm):
            field = Partials(local_field(asm, geom.owner, w[geom.owner]))
            tv = taylor_trace_normal(field, geom, asm.m)
            total += float(geom.weights @ tv**2) / geom.h_owner
    return float(np.sqrt(total))


def element_blocks(asm):
    """(L_K blocks, DOF matrices) of a corrected-mode assembler, one element
    at a time: each DOF matrix by ``dof_matrix``, its diagonal rounded to
    +-1 as the dual basis S_K (the tests check that the DOF matrix is that
    diagonal), mass + div-div and the divergence rows from the reference
    tables, then each boundary edge's penalty (per-edge Taylor traces) and
    straight-normal term added to its owner's block."""
    t, mesh = asm.tables, asm.mesh
    nel, nd, npr = mesh.n_triangles, t.element.dim, t.pressure.dim
    dof = np.stack([dof_matrix(asm, e) for e in range(nel)])
    dual = [np.diag(np.rint(np.diag(d))) for d in dof]
    blocks = np.zeros((nel, nd + npr, nd + npr))
    for e in range(nel):
        _, jac, det, _ = affine_map(element_vertices(asm, e))
        span = np.einsum("ab,abnm->nm", jac.T @ jac / det, t.s_mass) + t.s_div / det
        blocks[e, :nd, :nd] = dual[e].T @ span @ dual[e]
        blocks[e, nd:, :nd] = t.b0_span @ dual[e]
        blocks[e, :nd, nd:] = blocks[e, nd:, :nd].T
    for geom in edge_geometries(asm):
        e = geom.owner
        v0, _, _, jinv = affine_map(element_vertices(asm, e))
        field = local_field(asm, e, dual[e].T)
        tv = taylor_trace_normal(Partials(field), geom, asm.m)  # (q, nd)
        blocks[e, :nd, :nd] += np.einsum("q,qi,qj->ij", geom.weights, tv, tv) / geom.h_owner
        vn = field.eval(geom.points) @ geom.n_h
        pvals = t.pressure.eval((geom.points - v0) @ jinv.T)
        blocks[e, :nd, nd:] += np.einsum("q,ql,qi->il", geom.weights, pvals, vn)
    return blocks, dof


def representatives(el):
    """Each element's class representative, the lowest-numbered element of
    its class."""
    return np.unique(el.cls, return_index=True)[1][el.cls]


def of_representatives(el, blocks):
    """Each element's class representative's block from the per-element
    ``blocks`` (nel, nd + npr, nd + npr), with the element's own signs:
    S_K S_R L_R S_R S_K, R the representative."""
    rep = representatives(el)
    flip = el.flip * el.flip[rep]
    return flip[:, :, None] * blocks[rep] * flip[:, None, :]


def round_off(mesh, curves):
    """The vertices' round-off relative to the domain's size, in units of
    that on a domain centred at the origin: max |x| / r_outer, at least 1.
    Elements of one shape differ by that much more off the origin."""
    return max(1.0, np.abs(mesh.vertices).max() / curves[0].radius)


def signed_blocks(asm, geometry=None):
    """The (nel, nd + npr, nd + npr) blocks L_K with the arithmetic of
    ``Assembler.elements`` applied to each element: mass + div-div from the
    (g, det) of element R = ``geometry[K]`` (default: K's own), signed by
    S_K, then (corrected mode) the boundary terms of R's edges, from R's own
    traces, in R's edge order and signed by S_K, or (strong mode) identity
    rows and columns at K's constrained dofs."""
    t = asm.tables
    nel, nd, npr = asm.mesh.n_triangles, t.element.dim, t.pressure.dim
    s = asm.dof_sign
    geometry = np.arange(nel) if geometry is None else geometry
    blocks = np.zeros((nel, nd + npr, nd + npr))
    a, bt, b0 = blocks[:, :nd, :nd], blocks[:, :nd, nd:], blocks[:, nd:, :nd]
    g = np.einsum("eba,ebc->eac", asm.jac, asm.jac) / asm.det[:, None, None]
    # one GEMM row per distinct geometry, as the program's one per class:
    # a GEMM of one row may be a GEMV, with other bits
    distinct, which = np.unique(geometry, return_inverse=True)
    a[...] = _contract(g[distinct], t.s_mass)[which]
    a += t.s_div[None, :, :] / asm.det[geometry, None, None]
    a *= s[:, :, None]
    a *= s[:, None, :]
    b0[...] = t.b0_span * s[:, None, :]
    bt[...] = np.transpose(b0, (0, 2, 1))
    if asm.mode == "corrected":
        pen, normal = boundary_terms(asm)
        edges_of = {}
        for edge, owner in enumerate(asm.trace.owner.tolist()):
            edges_of.setdefault(owner, []).append(edge)
        for owner in edges_of:
            rep = geometry[owner]
            flip = s[owner] * s[rep]
            for edge in edges_of[rep]:
                a[owner] += flip[:, None] * pen[edge] * flip[None, :]
                bt[owner] += flip[:, None] * normal[edge]
    else:
        e, i = np.nonzero(np.isin(asm.gidx, asm.constrained))
        blocks[e, i, :] = 0.0
        blocks[e, :, i] = 0.0
        blocks[e, i, i] = 1.0
    return blocks


def boundary_terms(asm):
    """(penalty, straight-normal term) of each boundary edge, (n_b, nd, nd)
    and (n_b, nd, npr), with the arithmetic of ``Assembler.elements`` on the
    owner's own geometry and its own Taylor traces, signed by its S_K."""
    t, geom = asm.tables, asm.trace
    shapes = ShapeFunctions(asm, geom.owner)
    tv = correction.taylor_trace_normal(shapes, geom, asm.m)
    pen = np.einsum("bq,bqi,bqj->bij", geom.weights, tv, tv) / geom.h_owner[:, None, None]
    vn = correction.dot2(shapes.eval(geom.points), geom.n_h[:, None, None, :])
    pvals = t.pressure.eval(shapes._reference(geom.points).reshape(-1, 2))
    pw = geom.weights[:, :, None] * pvals.reshape(vn.shape[:2] + (t.pressure.dim,))
    return pen, vn.transpose(0, 2, 1) @ pw


def boundary_spread(asm):
    """The largest gap between a boundary edge's own terms (``boundary_terms``)
    and those of the edge in its slot of its owner's class representative,
    signed for the owner, relative to the owner's class block, in Frobenius
    norm: how far a member's own boundary terms are from the ones it takes."""
    el, mesh, geom = asm.elements, asm.mesh, asm.trace
    if asm.mode != "corrected" or not len(geom.owner):
        return 0.0
    pen, normal = boundary_terms(asm)
    slot = mesh.edge_slots[mesh.boundary_edges, 0]
    edge_at = {(int(o), int(l)): b for b, (o, l) in enumerate(zip(geom.owner, slot))}
    rep = representatives(el)
    gaps = []
    for b, (owner, l) in enumerate(zip(geom.owner, slot)):
        r = edge_at[int(rep[owner]), int(l)]
        flip = asm.dof_sign[owner] * asm.dof_sign[rep[owner]]
        gap = np.linalg.norm(flip[:, None] * pen[r] * flip[None, :] - pen[b])
        gap = np.hypot(gap, np.linalg.norm(flip[:, None] * normal[r] - normal[b]))
        gaps.append(gap / np.linalg.norm(el.matrix[el.cls[owner]]))
    return max(gaps)


def expand(elements):
    """The (nel, nd + npr, nd + npr) signed blocks L_K of ``ElementBlocks``,
    gathered from the class blocks with the signs applied in place."""
    out = elements.matrix[elements.cls]
    out *= elements.flip[:, :, None]
    out *= elements.flip[:, None, :]
    return out


def key_classes(asm):
    """Each element's class in key order, the numbering before classes came
    largest first, from a key built one element and one boundary edge at a
    time: (g = J^T J / det, det) as bit patterns, g rounded to multiples of
    2^-CLASS_BITS and det to a CLASS_BITS-bit mantissa, then per local edge
    0 for an interior edge, else 1 plus the number of its trace's class.  In
    strong mode every trace is one class; in corrected mode a trace is keyed
    on the bit patterns, rounded as g, of each node's pulled-back point,
    J^-1 (delta nu) and J^T n_gamma / sqrt(det), then J^T n_h / sqrt(det)
    and h_owner / sqrt(det), from ``edge_geometries``; the trace classes are
    numbered largest first, ties in key order."""
    mesh, bits = asm.mesh, CLASS_BITS

    def rounded(values):
        return tuple((np.round(np.ravel(values) * 2.0**bits) + 0.0).view(np.int64).tolist())

    traces = []
    for geom in edge_geometries(asm):
        if asm.mode != "corrected":
            traces.append(())
            continue
        v0, jac, det, jinv = affine_map(element_vertices(asm, geom.owner))
        root = np.sqrt(det)
        nodes = np.concatenate([
            np.einsum("ab,qb->qa", jinv, geom.points - v0),
            np.einsum("ab,qb->qa", jinv, geom.delta[:, None] * geom.nu),
            np.einsum("ba,qb->qa", jac, geom.n_gamma) / root,
        ], axis=1)
        traces.append(rounded(np.concatenate([nodes.ravel(), np.einsum("ba,b->a", jac, geom.n_h)
                                              / root, [geom.h_owner / root]])))
    size = {}
    for trace in traces:
        size[trace] = size.get(trace, 0) + 1
    number = {trace: i for i, trace in enumerate(sorted(size, key=lambda t: (-size[t], t)))}
    keys = []
    for t in range(mesh.n_triangles):
        _, jac, det, _ = affine_map(element_vertices(asm, t))
        g = np.einsum("ba,bc->ac", jac, jac) / det
        mantissa, exponent = np.frexp(det)
        det = np.round(mantissa * 2.0**bits) * 2.0 ** (exponent - bits)
        keys.append(list(rounded(g)) + [int(np.float64(det).view(np.int64)), 0, 0, 0])
    for e, trace in zip(mesh.boundary_edges, traces):
        keys[mesh.edge_tris[e, 0]][5 + mesh.edge_slots[e, 0]] = 1 + number[trace]
    return np.unique(np.array(keys, dtype=np.int64), axis=0, return_inverse=True)[1].ravel()


def element_apply(elements, x, blocks=None, chunk=256):
    """S_K blocks[cls[K]] S_K x[K] for every element K, with x and the
    result in element order, the blocks gathered ``chunk`` elements at a
    time: the reference of ``ElementBlocks.apply``, which runs in round
    order on prefixes of the blocks."""
    blocks = elements.matrix if blocks is None else blocks
    y = elements.flip * x
    for start in range(0, len(y), chunk):
        part = slice(start, start + chunk)
        y[part] = (blocks[elements.cls[part]] @ y[part, :, None])[:, :, 0]
    y *= elements.flip
    return y


def scatter(local, rows, cols, shape):
    """Sum element blocks local[e] into a CSR matrix at (rows[e], cols[e])
    through COO triplets, dropping the entries that are zero: the reference
    of ``assembly.operator_csr``."""
    r, c = np.empty(local.shape, np.int32), np.empty(local.shape, np.int32)
    r[...], c[...] = rows[:, :, None], cols[:, None, :]
    mat = sp.csr_matrix((local.ravel(), (r.ravel(), c.ravel())), shape=shape)
    mat.eliminate_zeros()
    return mat


def centroid_normal(mesh):
    """The unit normal of each edge that points out of ``edge_tris[e, 0]``:
    the right-hand normal of (a, b), negated where the owner's centroid lies
    on its side."""
    a, b = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    tangent = b - a
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
    d = mesh.vertices[mesh.triangles[mesh.edge_tris[:, 0]]].mean(axis=1) - 0.5 * (a + b)
    normal[d[:, 0] * normal[:, 0] + d[:, 1] * normal[:, 1] > 0] *= -1.0
    return normal


def dof_sign_by_vertex_lookup(asm):
    """S_K, with the direction of each local edge's global parametrization
    found by looking up the edge's start vertex in the triangle."""
    mesh, k = asm.mesh, asm.k
    nel = mesh.n_triangles
    direction = np.empty((nel, 3), dtype=np.int64)
    for l, (p, _) in enumerate(REF_EDGES):
        start = mesh.edges[mesh.tri_edges[:, l], 0]
        direction[:, l] = np.where(mesh.triangles[:, p] == start, 1, -1)
    outward = np.where(mesh.edge_tris[mesh.tri_edges, 0] == np.arange(nel)[:, None], 1.0, -1.0)
    sign = np.ones_like(asm.dof_sign)
    edge_sign = outward[:, :, None] * direction[:, :, None] ** np.arange(k + 1)
    sign[:, : 3 * (k + 1)] = edge_sign.reshape(nel, -1)
    return sign


def copies_by_slot_search(mesh):
    """``ElementBlocks.copies`` with each slot found by an ``argmax`` over
    the adjacent triangle's edges."""
    edge = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    tris = mesh.edge_tris[edge]
    slots = np.argmax(mesh.tri_edges[tris] == edge[:, None, None], axis=2)
    return np.stack([tris, slots], axis=2)


def constrained_local_dofs(asm):
    """(element, local dof) of every constrained velocity dof in strong
    mode, found by searching the dof table for the constrained dofs."""
    return np.nonzero(np.isin(asm.gidx, asm.constrained))


def ordered_table(el):
    """The (tris, slots) of the edge table ``ElementBlocks.copies`` in
    nested-dissection order, the order in which the solve numbers the
    multipliers."""
    return el.copies[solver._nested_dissection(el.copies)].transpose(2, 0, 1)


def per_dof_multipliers(el, tris, slots):
    """The (nel, 3(k+1)) multiplier number and sign of every local edge dof
    under the edge table (tris, slots) of ``ElementBlocks.copies`` in some
    row order: the k+1 multipliers of row i are (k+1) i .. (k+1) i + k, and
    the sign is +1 on copy 0, -1 on copy 1; -1 and 0 on boundary edges."""
    nel, k1 = len(el.cls), isqrt(el.udofs.shape[1])
    multiplier, sign = np.full((nel, 3, k1), -1), np.zeros((nel, 3, k1))
    multiplier[tris, slots] = k1 * np.arange(len(tris))[:, None, None] + np.arange(k1)
    sign[tris, slots] = np.array([1.0, -1.0])[:, None]
    return multiplier.reshape(nel, -1), sign.reshape(nel, -1)


def interface_fronts(el, inv, tris, slots):
    """The solver's tree factor of the interface of the edge table (tris,
    slots), in nested-dissection order, from the class inverses ``inv``."""
    return solver._Fronts(el, inv, tris, slots)


def front_fill(mesh, k):
    """The closed form of ``SolveReport.fill``: sum over the fronts of
    s^2 + 2 s b, counted from ``mesh.edge_tris`` one tree node at a time.
    Interior edge (t1, t2) is eliminated at node (bit, t1 >> bit), bit the
    bit length of t1 ^ t2; a node with such edges is a front, with s = (k+1)
    times their number and b = (k+1) times the number of interior edges
    with one triangle in its range t >> bit, plus 1 for theta.  The root,
    the node of bit max(1, bit length of n_tri - 1), is a front with or
    without edges, and eliminates theta too: its s has the 1, its b is 0."""
    t1, t2 = mesh.edge_tris[mesh.edge_tris[:, 1] >= 0].T
    bit = np.array([int(a ^ b).bit_length() for a, b in zip(t1, t2)], dtype=np.int64)
    top = max((mesh.n_triangles - 1).bit_length(), 1)
    total = 0
    for b in range(1, top + 1):
        for node in set((t1[bit == b] >> b).tolist()) | ({0} if b == top else set()):
            s = (k + 1) * int(np.sum((bit == b) & ((t1 >> b) == node)))
            one_inside = ((t1 >> b) == node) != ((t2 >> b) == node)
            size = (k + 1) * int(np.sum(one_inside)) + 1
            if b == top:
                s, size = s + 1, 0
            total += s * s + 2 * s * size
    return total


def kept_entries(asm):
    """The closed form of the size of the tree factor's kept blocks: sum
    over the bits with fronts of p s (2 f - s), with p the number of
    distinct subtrees among the bit's fronts, and s and f its padded
    separator and front sizes: (k+1) times the most separator edges of its
    fronts, and s plus (k+1) times their most boundary edges plus 1 for
    theta (the root's s is f; see ``front_fill``).  A subtree is keyed one
    node at a time from ``mesh.edge_tris`` and ``mesh.edge_slots``: a
    triangle by its class (``key_classes``) and which of its edges are
    interior; node (bit, t >> bit) by its two children's keys and its
    separator, the edges whose triangles first differ in bit - 1, each as
    the (offset in the node, local edge) of its two triangles, sorted."""
    mesh, k = asm.mesh, asm.k
    interior = mesh.edge_tris[:, 1] >= 0
    (t1, t2), (l1, l2) = mesh.edge_tris[interior].T, mesh.edge_slots[interior].T
    bit = np.array([int(a ^ b).bit_length() for a, b in zip(t1, t2)], dtype=np.int64)
    n_tri, k1 = mesh.n_triangles, k + 1
    top = max((n_tri - 1).bit_length(), 1)
    open_edges = np.ones((n_tri, 3), dtype=int)
    open_edges[mesh.edge_tris[~interior, 0], mesh.edge_slots[~interior, 0]] = 0
    keys = [(c, tuple(e)) for c, e in zip(key_classes(asm).tolist(), open_edges.tolist())]
    total = 0
    for b in range(1, top + 1):
        separators = {}
        for i in np.flatnonzero(bit == b):
            base = (int(t1[i]) >> b) << b
            entry = (3 * (int(t1[i]) - base) + int(l1[i]), 3 * (int(t2[i]) - base) + int(l2[i]))
            separators.setdefault(int(t1[i]) >> b, []).append(entry)
        n_nodes = ((n_tri - 1) >> b) + 1
        keys += [None] * (2 * n_nodes - len(keys))
        number = {}  # a subtree's key -> a small number, so that keys stay flat
        keys = [number.setdefault((keys[2 * v], keys[2 * v + 1], tuple(sorted(separators.get(v, [])))),
                                  len(number)) for v in range(n_nodes)]
        fronts = sorted(separators) if b < top else [0]
        if not fronts:
            continue
        alive = bit > b  # the edges with their triangles in two nodes
        boundary = np.bincount(np.concatenate([t1[alive], t2[alive]]) >> b, minlength=n_nodes)
        s = k1 * max(len(separators.get(v, [])) for v in fronts)
        f = s + k1 * int(boundary[fronts].max()) + 1
        if b == top:
            s = f
        total += len({keys[v] for v in fronts}) * s * (2 * f - s)
    return total


def interface_coo(el, inv, tris, slots):
    """The interface matrix sum_K G_K^T L_K^-1 G_K by COO triplets:
    the (nel, 3(k+1) + 1, 3(k+1) + 1) signed element blocks of G~^T L^^-1 G~,
    every entry whose row and column are unknowns, and theta's diagonal
    summed in element order, converted to CSC (which sums the duplicates)."""
    multiplier, sign = per_dof_multipliers(el, tris, slots)
    nd, ne = el.udofs.shape[1], sign.shape[1]
    n = ne // 3 * len(tris) + 1
    c = el.c[np.unique(el.cls, return_index=True)[1]]  # each class's first element's
    z = np.concatenate([inv[:, :, :ne], inv[:, :, nd:] @ c[:, :, None]], axis=2)
    local = np.concatenate([z[:, :ne, :], c[:, None, :] @ z[:, nd:, :]], axis=1)[el.cls]
    d = np.concatenate([sign * el.flip[:, :ne], np.ones((len(el.cls), 1))], axis=1)
    local *= d[:, :, None]
    local *= d[:, None, :]
    idx = np.concatenate([multiplier, np.full((len(sign), 1), n - 1)], axis=1)
    keep = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
    keep[:, -1, -1] = False
    idx = idx.astype(np.int32)
    m = np.count_nonzero(keep)
    rows, cols, values = np.empty(m + 1, np.int32), np.empty(m + 1, np.int32), np.empty(m + 1)
    rows[:m] = np.broadcast_to(idx[:, :, None], local.shape)[keep]
    cols[:m] = np.broadcast_to(idx[:, None, :], local.shape)[keep]
    values[:m] = local[keep]
    rows[m] = cols[m] = n - 1
    values[m] = local[:, -1, -1].sum()
    return sp.csc_matrix((values, (rows, cols)), shape=(n, n))


def hybrid_apply_per_dof(system, hybrid, b):
    """``solver._Hybrid.apply`` on per-dof multiplier and sign arrays of the
    nested-dissection ordered edge table: each shared dof's load held by
    copy 0, G^T y by one masked ``bincount`` in element order, G xi by
    sign * xi[multiplier], and each shared dof's value taken from copy 0."""
    el, n_u = system.elements, system.n_u
    c = el.c[representatives(el)]  # the solve's c: its class's first element's
    multiplier, sign = per_dof_multipliers(el, *ordered_table(el))
    nd, ne, theta = el.udofs.shape[1], sign.shape[1], hybrid.n_interface - 1
    holder = np.ones(el.udofs.shape, dtype=bool)
    holder[:, :ne] = sign >= 0
    f = np.concatenate([np.where(holder, b[el.udofs], 0.0), b[n_u:-1].reshape(el.c.shape)], axis=1)
    y = element_apply(el, f, hybrid.inv)

    g = np.empty(theta + 1)
    inner = multiplier >= 0
    g[:theta] = np.bincount(multiplier[inner], weights=(sign * y[:, :ne])[inner], minlength=theta)
    g[theta] = np.sum(c * y[:, nd:]) - b[-1]
    xi = hybrid.fronts.solve(g)

    f[:, :ne] -= sign * xi[multiplier]  # sign 0 where there is no multiplier
    f[:, nd:] -= c * xi[theta]
    x_loc = element_apply(el, f, hybrid.inv)

    u = np.empty(n_u)
    u[el.udofs[holder]] = x_loc[:, :nd][holder]
    return np.concatenate([u, x_loc[:, nd:].ravel(), [xi[theta]]])


def scattered_operator(system, absolute=False):
    """The saddle operator's CSR as the sum of three COO scatters: the
    expanded element blocks, the column c and the row c; with ``absolute``,
    of their absolute values, the reference of ``solver._abs_matvec``: an
    entry that two elements share is then |a| + |b|, not |a + b|."""
    n, c, blocks = system.dimension, system.elements.c, expand(system.elements)
    if absolute:
        c, blocks = np.abs(c), np.abs(blocks)
    idx = _element_index(system.elements, system.n_u)
    col = scatter(c[:, :, None], idx[:, -c.shape[1]:], np.full((len(c), 1), n - 1), (n, n))
    return scatter(blocks, idx, idx, (n, n)) + col + col.T


def dense_matrix_a_flat(asm, vol_degree=12, edge_points=8):
    """Dense velocity block on a polygonal domain (flat boundary edges), by
    direct numerical integration of shape-function products with rules
    unrelated to the assembler's.  Exact because all integrands are
    polynomial when the boundary is flat."""
    mesh = asm.mesh
    n_u = asm.dofmap.n_u
    a = np.zeros((n_u, n_u))
    rule = triangle_quadrature(vol_degree)
    for t in range(mesh.n_triangles):
        verts = element_vertices(asm, t)
        v0, jac, det, _ = affine_map(verts)
        pts = v0 + rule.points @ jac.T
        basis = basis_field(asm, t)  # stacked shape functions
        vals = basis.eval(pts)  # (q, nd, 2)
        divs = divergence(basis, pts)  # (q, nd)
        local = det * (
            np.einsum("q,qia,qja->ij", rule.weights, vals, vals)
            + np.einsum("q,qi,qj->ij", rule.weights, divs, divs)
        )
        idx = asm.gidx[t]
        a[np.ix_(idx, idx)] += local
    if asm.mode == "corrected":
        erule = edge_quadrature(edge_points)
        for geom in edge_geometries(asm):
            t = geom.owner
            a_v, b_v = mesh.vertices[mesh.edges[geom.edge_id]]
            pts = 0.5 * (a_v + b_v) + 0.5 * np.outer(erule.points, b_v - a_v)
            w = 0.5 * np.hypot(*(b_v - a_v)) * erule.weights
            basis = basis_field(asm, t)
            vn = basis.eval(pts) @ geom.n_h  # delta = 0: plain trace
            local = np.einsum("q,qi,qj->ij", w, vn, vn) / geom.h_owner
            idx = asm.gidx[t]
            a[np.ix_(idx, idx)] += local
    return a


def dense_matrix_b1_flat(asm, vol_degree=12, edge_points=8):
    """Dense divergence-coupling block with the straight-normal boundary
    term, on a polygonal domain."""
    mesh = asm.mesh
    b1 = np.zeros((asm.dofmap.n_p, asm.dofmap.n_u))
    rule = triangle_quadrature(vol_degree)
    pbasis = asm.tables.pressure
    pidx = pressure_index(asm)
    for t in range(mesh.n_triangles):
        verts = element_vertices(asm, t)
        v0, jac, det, _ = affine_map(verts)
        basis = basis_field(asm, t)
        pts = v0 + rule.points @ jac.T
        divs = divergence(basis, pts)
        pvals = pbasis.eval(rule.points)
        local = -det * np.einsum("q,ql,qi->li", rule.weights, pvals, divs)
        b1[np.ix_(pidx[t], asm.gidx[t])] += local
    erule = edge_quadrature(edge_points)
    for e in mesh.boundary_edges:
        t = int(mesh.edge_tris[e, 0])
        verts = element_vertices(asm, t)
        v0, jac, det, jinv = affine_map(verts)
        a_v, b_v = mesh.vertices[mesh.edges[e]]
        pts = 0.5 * (a_v + b_v) + 0.5 * np.outer(erule.points, b_v - a_v)
        w = 0.5 * np.hypot(*(b_v - a_v)) * erule.weights
        basis = basis_field(asm, t)
        vn = basis.eval(pts) @ mesh.edge_normal[e]
        pref = (pts - v0) @ jinv.T
        pvals = pbasis.eval(pref)
        local = np.einsum("q,ql,qi->li", w, pvals, vn)
        b1[np.ix_(pidx[t], asm.gidx[t])] += local
    return b1


def dense_rhs_u_volume(asm, source, vol_degree=12):
    """(f, div v) part of the velocity load by independent quadrature."""
    mesh = asm.mesh
    rhs = np.zeros(asm.dofmap.n_u)
    rule = triangle_quadrature(vol_degree)
    for t in range(mesh.n_triangles):
        verts = element_vertices(asm, t)
        v0, jac, det, _ = affine_map(verts)
        pts = v0 + rule.points @ jac.T
        divs = divergence(basis_field(asm, t), pts)
        fv = source(pts)
        rhs[asm.gidx[t]] += det * np.einsum("q,q,qi->i", rule.weights, fv, divs)
    return rhs


def apply_operator(asm, x):
    """Matrix-free action of the constrained corrected system on a vector,
    assembled from per-element/per-edge form evaluations."""
    mesh = asm.mesh
    n_u, n_p = asm.dofmap.n_u, asm.dofmap.n_p
    u, p, lam = x[:n_u], x[n_u : n_u + n_p], x[-1]
    w = asm.local_coeffs(u)
    y_u = np.zeros(n_u)
    y_p = np.zeros(n_p)
    rule = asm.tables.vol
    pbasis = asm.tables.pressure
    pidx = pressure_index(asm)
    for t in range(mesh.n_triangles):
        verts = element_vertices(asm, t)
        v0, jac, det, _ = affine_map(verts)
        pts = v0 + rule.points @ jac.T
        basis = basis_field(asm, t)
        bvals = basis.eval(pts)
        bdivs = divergence(basis, pts)
        ufield = LocalField(verts, asm.tables.element, w[t])
        uvals = ufield.eval(pts)
        udiv = divergence(ufield, pts)
        pvals = pbasis.eval(rule.points) @ p[pidx[t]]
        # a_h volume parts against each shape function
        y_u[asm.gidx[t]] += det * (
            np.einsum("q,qa,qia->i", rule.weights, uvals, bvals)
            + np.einsum("q,q,qi->i", rule.weights, udiv, bdivs)
        )
        # b_h1(v, p) volume part and b_h0(u, q) rows
        y_u[asm.gidx[t]] += -det * np.einsum("q,q,qi->i", rule.weights, pvals, bdivs)
        qvals = pbasis.eval(rule.points)
        y_p[pidx[t]] += -det * np.einsum("q,q,ql->l", rule.weights, udiv, qvals)
    flux_u = 0.0
    for geom in edge_geometries(asm):
        t = geom.owner
        verts = element_vertices(asm, t)
        v0, jac, det, jinv = affine_map(verts)
        basis = basis_field(asm, t)
        ufield = LocalField(verts, asm.tables.element, w[t])
        tv_basis = taylor_trace_normal(Partials(basis), geom, asm.m)  # (q, nd)
        tv_u = taylor_trace_normal(Partials(ufield), geom, asm.m)  # (q,)
        y_u[asm.gidx[t]] += (
            np.einsum("q,q,qi->i", geom.weights, tv_u, tv_basis) / geom.h_owner
        )
        # straight-normal boundary terms of b_h1 and the flux functional
        vn_basis = basis.eval(geom.points) @ geom.n_h
        un = ufield.eval(geom.points) @ geom.n_h
        pref = (geom.points - v0) @ jinv.T
        pvals = pbasis.eval(pref) @ p[pidx[t]]
        y_u[asm.gidx[t]] += np.einsum("q,q,qi->i", geom.weights, pvals, vn_basis)
        flux_u += geom.weights @ un
    c = asm.pressure_integrals()
    y_p += c * lam + (c / asm.area) * flux_u
    y_lam = c @ p
    return np.concatenate([y_u, y_p, [y_lam]])


def einsum_loads(asm, case):
    """(rhs_u, rhs_p) of ``Assembler.rhs`` as einsums over the quadrature
    axis, with the weights applied in each einsum, not folded into the
    tables, the nodes mapped by an einsum, and the volume and Neumann
    entries scattered by ``np.add.at``: the reference of the program's GEMM
    loads.  The inputs are the assembler's tables, geometry and basis
    traces."""
    t, det = asm.tables, asm.det
    pts = asm.v0[:, None, :] + np.einsum("eab,qb->eqa", asm.jac, t.vol.points)
    f = case.source(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    rhs_u = np.zeros(asm.dofmap.n_u)
    np.add.at(rhs_u, asm.gidx, asm.dof_sign * np.einsum("q,eq,qn->en", t.vol.weights, f, t.v_div))
    if asm.mode == "corrected":
        geom = asm.trace
        gn = case.neumann(geom.projected.reshape(-1, 2), geom.n_gamma.reshape(-1, 2))
        gn = np.asarray(gn, dtype=float).reshape(geom.delta.shape)
        contrib = np.einsum("bq,bq,bqi->bi", geom.weights, gn, asm.basis_trace)
        np.add.at(rhs_u, asm.gidx[geom.owner], contrib / geom.h_owner[:, None])
    f_mean = float(np.einsum("e,q,eq->", det, t.vol.weights, f)) / asm.area
    rhs_p = -np.einsum("e,q,eq,ql->el", det, t.vol.weights, f - f_mean, t.p_vals).ravel()
    return rhs_u, rhs_p


def einsum_error_norms(u, p, case, asm):
    """(E_u_hdiv, E_penalty, E_u_0h, E_p, E_total) of ``error_norms`` as
    einsums over the quadrature axis, the nodes and the Piola map by
    einsums too: the reference of the program's GEMV norms.  The exact
    field's Taylor traces are the program's (``correction``), as they are
    an input of the norms, not one of their reductions."""
    t, det, wq = asm.tables, asm.det, asm.tables.err.weights
    pts = (asm.v0[:, None, :] + np.einsum("eab,qb->eqa", asm.jac, t.err.points)).reshape(-1, 2)
    w = asm.local_coeffs(u)
    uh = np.einsum("eab,eqb->eqa", asm.jac, np.einsum("en,qna->eqa", w, t.v_vals_err))
    uh /= det[:, None, None]
    div = np.einsum("en,qn->eq", w, t.v_div_err) / det[:, None]
    ue = case.velocity(pts).reshape(uh.shape)
    fe = case.source(pts).reshape(div.shape)
    l2_sq = float(np.einsum("e,q,eqa->", det, wq, (ue - uh) ** 2))
    div_sq = float(np.einsum("e,q,eq->", det, wq, (fe - div) ** 2))

    geom = asm.trace
    exact = correction.taylor_trace_normal(case, geom, asm.m)
    discrete = np.einsum("bqi,bi->bq", asm.basis_trace, u[asm.gidx[geom.owner]])
    pen_sq = float(np.einsum("bq,b,bq->", geom.weights, 1.0 / geom.h_owner, (exact - discrete) ** 2))

    ph = np.einsum("el,ql->eq", p.reshape(len(det), -1), t.p_vals_err)
    pe = case.pressure(pts).reshape(ph.shape)
    mean_h = float(np.einsum("e,q,eq->", det, wq, ph)) / asm.area
    mean_e = float(np.einsum("e,q,eq->", det, wq, pe)) / asm.area
    p_sq = float(np.einsum("e,q,eq->", det, wq, ((pe - mean_e) - (ph - mean_h)) ** 2))
    e_0h = np.sqrt(l2_sq + div_sq + pen_sq)
    return np.sqrt(l2_sq + div_sq), np.sqrt(pen_sq), e_0h, np.sqrt(p_sq), e_0h + np.sqrt(p_sq)
