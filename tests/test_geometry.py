"""Closest-point projection, physical normals, and the chord-distance
scaling on generated meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy.femcore.quadrature import edge_quadrature
from bdmdarcy.geometry import BoundaryCurve, GeometryError, project
from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project, ring_domain
from domains import (
    StraightBoundary,
    check_geometry_assumption,
    square_domain,
    unit_square_mesh,
)
from oracles import random_domains

UNIT = BoundaryCurve(center=(0.0, 0.0), radius=1.0)
INNER = BoundaryCurve(center=(0.0, 0.0), radius=0.5, domain_inside=False)


def _project(curve, x_h):
    """(x, delta, nu, n_gamma) of ``project_many`` for one point."""
    return tuple(values[0] for values in curve.project_many(np.asarray(x_h, dtype=float)))


def test_projection_inside_unit_circle():
    x, delta, nu, n_gamma = _project(UNIT, (0.588, 0.784))
    assert x == pytest.approx([0.6, 0.8], abs=1e-14)
    assert delta == pytest.approx(0.02, abs=1e-14)
    assert nu == pytest.approx([0.6, 0.8], abs=1e-14)
    assert n_gamma == pytest.approx([0.6, 0.8], abs=1e-14)


def test_projection_fixed_point_on_curve():
    x, delta, nu, n_gamma = _project(UNIT, (1.0, 0.0))
    assert x == pytest.approx([1.0, 0.0], abs=1e-15)
    assert delta == 0.0
    # by convention nu equals the physical normal when delta vanishes
    assert nu == pytest.approx(n_gamma, abs=1e-15)


def test_projection_toward_inner_ring_circle():
    x, delta, nu, n_gamma = _project(INNER, (0.54, 0.0))
    assert x == pytest.approx([0.5, 0.0], abs=1e-14)
    assert delta == pytest.approx(0.04, abs=1e-14)
    assert nu == pytest.approx([-1.0, 0.0], abs=1e-14)
    # outward of the ring domain points into the hole
    assert n_gamma == pytest.approx([-1.0, 0.0], abs=1e-14)


def test_projection_reconstruction_and_units():
    rng = np.random.default_rng(3)
    x_h = rng.uniform(-0.9, 0.9, size=(25, 2))
    x_h = x_h[np.hypot(x_h[:, 0], x_h[:, 1]) >= 1e-3]
    x, delta, nu, n_gamma = UNIT.project_many(x_h)
    assert np.linalg.norm(x - (x_h + delta[:, None] * nu), axis=1).max() < 1e-13
    assert np.abs(np.linalg.norm(nu, axis=1) - 1.0).max() < 1e-14
    assert np.abs(np.linalg.norm(n_gamma, axis=1) - 1.0).max() < 1e-14
    assert np.abs(np.hypot(x[:, 0], x[:, 1]) - 1.0).max() < 1e-12
    # projecting the projected points again reproduces n_gamma
    _, _, _, n_again = UNIT.project_many(x)
    assert np.abs(n_again - n_gamma).max() <= 1e-15


def test_projection_outside_reach_fails():
    with pytest.raises(GeometryError):
        UNIT.project_many([(0.0, 0.0)])
    with pytest.raises(GeometryError):
        INNER.project_many([(1.5, 0.0)])  # distance 1.0 >= radius 0.5


def test_gamma_normal_examples():
    # the physical normal at points on the curve: outward of the disk, and
    # into the hole on the inner ring circle
    assert _project(UNIT, (0.0, 1.0))[3] == pytest.approx([0.0, 1.0], abs=1e-15)
    assert _project(INNER, (0.5, 0.0))[3] == pytest.approx([-1.0, 0.0], abs=1e-15)


def test_straight_boundary_projection():
    side = StraightBoundary(point=(0.0, 0.0), normal=(0.0, -1.0))
    x, delta, nu, _ = _project(side, (0.4, 0.25))
    assert x == pytest.approx([0.4, 0.0], abs=1e-15)
    assert delta == pytest.approx(0.25)
    assert nu == pytest.approx([0.0, -1.0])
    _, on_line_delta, on_line_nu, _ = _project(side, (0.7, 0.0))
    assert on_line_delta == 0.0
    assert on_line_nu == pytest.approx([0.0, -1.0])


def test_invalid_radius():
    with pytest.raises(GeometryError):
        BoundaryCurve(center=(0, 0), radius=-1.0)


def test_polygonal_domain_has_no_geometric_gap():
    mesh = unit_square_mesh(3)
    diag = check_geometry_assumption(mesh, square_domain())
    assert diag["delta_max"] == 0.0
    assert diag["sup_normal_gap"] == 0.0


@pytest.mark.parametrize("domain_factory", [disk_domain, ring_domain])
def test_projection_scaling_between_levels(domain_factory):
    curves = domain_factory()
    mesh = coarse_mesh(curves)
    mesh = refine_project(mesh, curves)
    mesh = refine_project(mesh, curves)
    fine = refine_project(mesh, curves)
    d_coarse = check_geometry_assumption(mesh, curves)
    d_fine = check_geometry_assumption(fine, curves)
    delta_ratio = d_coarse["delta_max"] / d_fine["delta_max"]
    gap_ratio = d_coarse["sup_normal_gap"] / d_fine["sup_normal_gap"]
    assert delta_ratio == pytest.approx(4.0, rel=0.2)
    assert gap_ratio == pytest.approx(2.0, rel=0.2)


def test_boundary_nodes_project_back_onto_curve():
    curves = disk_domain()
    mesh = refine_project(refine_project(coarse_mesh(curves), curves), curves)
    s = np.linspace(-1, 1, 5)
    for e in mesh.boundary_edges:
        a, b = mesh.vertices[mesh.edges[e]]
        nodes = 0.5 * (a + b) + 0.5 * np.outer(s, b - a)
        x, delta, nu, _ = curves[0].project_many(nodes)
        assert np.abs(np.hypot(x[:, 0], x[:, 1]) - 1.0).max() < 1e-12
        assert np.abs(np.linalg.norm(nodes + delta[:, None] * nu - x, axis=1)).max() < 1e-13


def _boundary_meshes():
    """(curves, mesh) of the disk and the ring at levels 0..2, and of the
    polygonal square."""
    for domain in (disk_domain, ring_domain):
        curves = domain()
        mesh = coarse_mesh(curves)
        for level in range(3):
            yield pytest.param(curves, mesh, id=f"{domain.__name__}-L{level}")
            mesh = refine_project(mesh, curves)
    yield pytest.param(square_domain(), unit_square_mesh(3), id="square")


@pytest.mark.parametrize("curves, mesh", _boundary_meshes())
def test_project_equals_the_per_edge_projection(curves, mesh, monkeypatch):
    """``project`` gives, bit for bit, each boundary edge's own curve's
    ``project_many`` of its nodes (n_b, q, 2) and of its midpoints (n_b, 2),
    and calls ``project_many`` once per curve."""
    edges = mesh.boundary_edges
    a, b = mesh.vertices[mesh.edges[edges, 0]], mesh.vertices[mesh.edges[edges, 1]]
    s = edge_quadrature(5).points
    nodes = 0.5 * (a + b)[:, None, :] + 0.5 * s[None, :, None] * (b - a)[:, None, :]
    component = mesh.edge_component[edges]

    kind, calls = type(curves[0]), []
    original = kind.project_many

    def counted(curve, pts):
        calls.append(curve)
        return original(curve, pts)

    monkeypatch.setattr(kind, "project_many", counted)
    at_nodes = project(curves, component, nodes)
    assert calls == curves
    monkeypatch.undo()

    midpoints = 0.5 * (a + b)
    for points, result in [(nodes, at_nodes), (midpoints, project(curves, component, midpoints))]:
        for i, e in enumerate(edges):
            expected = curves[mesh.edge_component[e]].project_many(points[i])
            for got, want in zip(result, expected):
                np.testing.assert_array_equal(got[i], want.reshape(got[i].shape))


@st.composite
def boundaries_and_points(draw):
    """A circle of a random disk or ring (outer boundary or hole), or a line
    with a random normal, and up to 20 points inside its projection reach;
    the length scale of the setup comes last."""
    n = draw(st.integers(1, 20))
    angles = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n)))
    direction = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if draw(st.booleans()):
        curve = draw(st.sampled_from(draw(random_domains())))
        # distance from the centre in (0.05, 1.95) radii: delta < radius
        r = np.array(draw(st.lists(st.floats(0.05, 1.95), min_size=n, max_size=n)))
        pts = np.asarray(curve.center) + curve.radius * r[:, None] * direction
        return curve, pts, curve.radius
    theta = draw(st.floats(0.0, 2 * np.pi))
    point = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(2))
    length = draw(st.floats(0.5, 2.0))  # the constructor normalizes the normal
    line = StraightBoundary(point=point, normal=(length * np.cos(theta), length * np.sin(theta)))
    offset = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return line, np.asarray(point) + offset[:, None] * direction, 5.0


def _in_domain(curve, pts):
    if isinstance(curve, StraightBoundary):
        return (pts - np.asarray(curve.point)) @ np.asarray(curve.normal) < 0.0
    r = np.linalg.norm(pts - np.asarray(curve.center), axis=1)
    return (r < curve.radius) == curve.domain_inside


@settings(max_examples=200, deadline=None)
@given(boundaries_and_points())
def test_project_many_properties(setup):
    curve, p, scale = setup
    x, delta, nu, n_gamma = curve.project_many(p)
    assert np.abs(x - (p + delta[:, None] * nu)).max() <= 1e-14 * scale
    assert curve.distance(x).max() <= 1e-14 * scale
    assert np.abs(np.linalg.norm(nu, axis=1) - 1.0).max() <= 1e-15
    assert np.abs(np.linalg.norm(n_gamma, axis=1) - 1.0).max() <= 1e-15
    assert np.array_equal(delta, curve.distance(p))
    step = 1e-3 * scale * n_gamma
    assert _in_domain(curve, x - step).all() and not _in_domain(curve, x + step).any()
