"""Taylor boundary extension and boundary trace geometry."""

import numpy as np
import pytest

from bdmdarcy.analysis import case_circle, case_ring
from bdmdarcy.assembly import Assembler, ShapeFunctions
from bdmdarcy.correction import edge_trace_geometry, pullback_neumann, taylor_trace
from bdmdarcy.femcore import edge_quadrature
from bdmdarcy.mesh import coarse_mesh, disk_domain, mesh_stats, refine_project
from domains import square_domain, unit_square_mesh
from oracles import interpolate_velocity


class _NoDegree:
    """Hide the polynomial degree to force the Taylor-sum path."""

    degree = None

    def __init__(self, field):
        self._field = field

    def eval(self, pts):
        return self._field.eval(pts)

    def nu_derivative(self, geom, j):
        return self._field.nu_derivative(geom, j)


def boundary_geom(mesh, curves, n_pts=4):
    return edge_trace_geometry(mesh, curves, edge_quadrature(n_pts), mesh_stats(mesh).h_K)


def owner_values(asm, values, u):
    """Contract per-owner shape-function values (n_b, q, n_d, ...) with the
    global coefficient vector u."""
    return np.einsum("bqi...,bi->bq...", values, u[asm.gidx[asm.trace.owner]])


def test_taylor_config_bounds():
    # the Taylor order of a degree-k assembler lies in 0..k; strong mode ignores it
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    assert Assembler(mesh, curves, k=3, m=0).m == 0
    assert Assembler(mesh, curves, k=3).m == Assembler(mesh, curves, k=3, m=3).m == 3
    for k, m in [(3, 4), (2, -1), (1, 2)]:
        with pytest.raises(ValueError, match="0 <= m <= k"):
            Assembler(mesh, curves, k=k, m=m)
    for m in (None, -1, 2, 3):
        assert Assembler(mesh, curves, k=2, m=m, mode="uncorrected-strong").m == 0


def test_flat_edge_has_zero_shift():
    mesh = unit_square_mesh(2)
    asm = Assembler(mesh, square_domain(), k=2)
    geom = asm.trace
    assert np.all(geom.delta == 0.0)
    assert np.abs(geom.n_gamma - geom.n_h[:, None, :]).max() == 0.0
    # with zero shift the extension reduces to the plain trace for every order
    basis = ShapeFunctions(asm, asm.trace.owner)
    plain = basis.eval(geom.points)
    for m in range(3):
        vals = taylor_trace(_NoDegree(basis), geom, m)
        assert np.abs(vals - plain).max() < 1e-14 * np.abs(plain).max()


def test_chord_midpoint_distance():
    # chord of the unit circle subtending half-angle alpha: the midpoint sits
    # at distance 1 - cos(alpha) from the circle
    curves = disk_domain()
    mesh = coarse_mesh(curves)  # rim chords subtend half-angle pi/6
    geom = boundary_geom(mesh, curves, n_pts=1)
    assert geom.delta[:, 0] == pytest.approx(1.0 - np.cos(np.pi / 6.0), abs=1e-14)


def test_delta_vanishes_toward_endpoints():
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    delta = boundary_geom(mesh, curves, n_pts=12).delta
    # Gauss nodes are ordered from one endpoint to the other
    assert np.all(delta[:, 0] < delta[:, 5])
    assert np.all(delta[:, -1] < delta[:, 6])
    assert delta.min() >= 0.0


@pytest.mark.parametrize("m", [0, 1, 2])
def test_taylor_exact_for_low_degree_polynomials(m):
    # fields of degree <= m are extended exactly to the projected points
    curves = disk_domain()
    mesh = refine_project(coarse_mesh(curves), curves)
    k = 3
    asm = Assembler(mesh, curves, k=k, m=m)

    def poly(pts):
        pts = np.atleast_2d(pts)
        out = np.column_stack([0.4 + 0.0 * pts[:, 0], -0.2 + 0.0 * pts[:, 0]])
        if m >= 1:
            out += np.column_stack([0.3 * pts[:, 0] - pts[:, 1], 0.7 * pts[:, 1]])
        if m >= 2:
            out += np.column_stack([pts[:, 0] * pts[:, 1], pts[:, 0] ** 2])
        return out

    u = interpolate_velocity(asm, poly)  # reproduces polynomials of degree <= k
    vals = taylor_trace(_NoDegree(ShapeFunctions(asm, asm.trace.owner)), asm.trace, asm.m)
    exact = poly(asm.trace.projected.reshape(-1, 2)).reshape(asm.trace.projected.shape)
    assert np.abs(owner_values(asm, vals, u) - exact).max() < 1e-12 * (1.0 + np.abs(exact).max())


def test_order_zero_is_plain_trace():
    curves = disk_domain()
    asm = Assembler(coarse_mesh(curves), curves, k=2, m=0)
    basis = ShapeFunctions(asm, asm.trace.owner)
    vals = taylor_trace(basis, asm.trace, asm.m)
    assert np.abs(vals - basis.eval(asm.trace.points)).max() == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fast_path_matches_taylor_sum(k):
    # order-k extension of a degree-k field: sum path == point evaluation
    curves = disk_domain()
    mesh = refine_project(coarse_mesh(curves), curves)
    asm = Assembler(mesh, curves, k=k)
    basis = ShapeFunctions(asm, asm.trace.owner)
    u = np.random.default_rng(k * 13).standard_normal(asm.dofmap.n_u)
    fast = owner_values(asm, taylor_trace(basis, asm.trace, k), u)
    slow = owner_values(asm, taylor_trace(_NoDegree(basis), asm.trace, k), u)
    assert np.abs(fast - slow).max() < 1e-12 * max(np.abs(fast).max(), 1.0)


def test_pullback_homogeneous_case_vanishes():
    curves = disk_domain()
    mesh = refine_project(coarse_mesh(curves), curves)
    case = case_circle()
    geom = boundary_geom(mesh, curves)
    vals = pullback_neumann(case.neumann, geom)
    assert vals.shape == geom.delta.shape
    assert np.abs(vals).max() == 0.0
    # and the underlying field is genuinely tangential on the circle
    direct = np.einsum(
        "na,na->n", case.velocity(geom.projected.reshape(-1, 2)), geom.n_gamma.reshape(-1, 2)
    )
    assert np.abs(direct).max() < 1e-12


def test_pullback_constant_functional():
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    geom = boundary_geom(mesh, curves)
    vals = pullback_neumann(lambda x, n: np.full(len(x), 4.25), geom)
    assert np.all(vals == 4.25)


def test_pullback_ring_node_hitting_axis():
    # a symmetric chord of the outer circle projects its midpoint to (1, 0),
    # where the ring solution's normal flux vanishes
    from bdmdarcy.geometry import BoundaryCurve
    from bdmdarcy.mesh import _build_mesh

    theta = 0.15
    a = np.array([np.cos(theta), -np.sin(theta)])
    b = np.array([np.cos(theta), np.sin(theta)])
    apex = np.array([0.3, 0.0])
    curves = [BoundaryCurve((0.0, 0.0), 1.0)]
    mesh = _build_mesh(np.array([apex, a, b]), np.array([[0, 1, 2]]), curves, level=0)
    (chord,) = [i for i, e in enumerate(mesh.boundary_edges)
                if tuple(np.sort(mesh.edges[e])) == (1, 2)]
    geom = boundary_geom(mesh, curves, n_pts=1)
    assert geom.projected[chord, 0] == pytest.approx([1.0, 0.0], abs=1e-14)
    vals = pullback_neumann(case_ring().neumann, geom)
    assert abs(vals[chord, 0]) < 1e-13


def test_correction_term_shrinks_linearly_with_h():
    # the h_K^{-1/2}-weighted Taylor tail of interpolated smooth fields
    # shrinks like h relative to the element norm
    curves = disk_domain()
    case = case_ring()  # smooth non-polynomial field on the disk as well
    mesh = coarse_mesh(curves)
    k, m = 2, 2
    hs, ratios = [], []
    for _ in range(4):
        mesh = refine_project(mesh, curves)
        asm = Assembler(mesh, curves, k=k, m=m)
        geom = asm.trace
        u = interpolate_velocity(asm, case.velocity)
        basis = ShapeFunctions(asm, asm.trace.owner)
        tail = owner_values(asm, taylor_trace(basis, geom, m) - basis.eval(geom.points), u)
        tail_norm = np.sqrt(
            np.einsum("bq,bqa->b", geom.weights, tail**2) / geom.h_owner
        )
        t = asm.tables
        w = asm.local_coeffs(u)[geom.owner]
        vol = np.einsum("qna,bn->bqa", t.v_vals, w)
        vol = np.einsum("bac,bqc->bqa", asm.jac[geom.owner], vol) / asm.det[geom.owner, None, None]
        k_norm = np.sqrt(asm.det[geom.owner] * np.einsum("q,bqa->b", t.vol.weights, vol**2))
        hs.append(mesh_stats(mesh).h)
        ratios.append(float((tail_norm / k_norm).max()))
    slope = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.3)
