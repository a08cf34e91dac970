"""Mesh generation, topology, and refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy.analysis import case_circle, case_ring
from bdmdarcy.assembly import Assembler
from bdmdarcy.geometry import BoundaryCurve
from bdmdarcy.mesh import (
    coarse_mesh,
    disk_domain,
    mesh_stats,
    refine_project,
    ring_domain,
)
from bdmdarcy.solver import solve
from domains import mesh_quality, signed_areas, single_triangle_mesh, unit_square_mesh
from oracles import random_domains


def boundary_vertices(mesh):
    return np.unique(mesh.edges[mesh.boundary_edges])


def disk_hierarchy(levels):
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    out = [mesh]
    for _ in range(levels):
        mesh = refine_project(mesh, curves)
        out.append(mesh)
    return curves, out


def test_disk_coarse_counts():
    mesh = coarse_mesh(disk_domain())
    assert mesh.n_vertices == 7
    assert mesh.n_triangles == 6
    assert len(mesh.boundary_edges) == 6
    rim = mesh.vertices[1:]
    assert np.abs(np.hypot(rim[:, 0], rim[:, 1]) - 1.0).max() < 1e-15


def test_euler_relation():
    disk = coarse_mesh(disk_domain())
    assert disk.n_vertices - disk.n_edges + disk.n_triangles == 1
    ring = coarse_mesh(ring_domain())
    assert ring.n_vertices - ring.n_edges + ring.n_triangles == 0
    curves = ring_domain()
    fine = refine_project(ring, curves)
    assert fine.n_vertices - fine.n_edges + fine.n_triangles == 0


def test_refine_multiplies_triangles_by_four():
    curves, meshes = disk_hierarchy(3)
    for coarse, fine in zip(meshes, meshes[1:]):
        assert fine.n_triangles == 4 * coarse.n_triangles
        assert (signed_areas(fine) > 0).all()


def test_boundary_midpoint_is_projected():
    curves, meshes = disk_hierarchy(1)
    m1 = meshes[1]
    # every boundary vertex created by refinement must land on the circle
    bverts = boundary_vertices(m1)
    new_boundary = m1.vertices[bverts[bverts >= 7]]
    assert np.abs(np.hypot(new_boundary[:, 0], new_boundary[:, 1]) - 1.0).max() < 1e-15


def test_chord_midpoint_projection_example():
    # midpoint of the chord (1,0)-(0,1) projects to (sqrt2/2, sqrt2/2)
    curve = disk_domain()[0]
    projected, _, _, _ = curve.project_many(np.array([[0.5, 0.5]]))
    assert projected[0] == pytest.approx([np.sqrt(2) / 2, np.sqrt(2) / 2], abs=1e-15)


def test_h_reduction_ratio():
    curves, meshes = disk_hierarchy(4)
    hs = [mesh_stats(m).h for m in meshes]
    for h0, h1 in zip(hs, hs[1:]):
        assert 0.45 <= h1 / h0 <= 0.62


def test_adjacency_counts_and_orientation():
    curves, meshes = disk_hierarchy(2)
    mesh = meshes[-1]
    counts = np.where(mesh.edge_tris[:, 1] >= 0, 2, 1)
    assert (counts[mesh.boundary_edges] == 1).all()
    interior = np.setdiff1d(np.arange(mesh.n_edges), mesh.boundary_edges)
    assert (counts[interior] == 2).all()
    # E = V + F - 1 on the disk
    assert mesh.n_edges == mesh.n_vertices + mesh.n_triangles - 1
    # global edge normal: outward of the lower adjacent triangle
    for e in range(mesh.n_edges):
        t0 = mesh.edge_tris[e, 0]
        centroid = mesh.vertices[mesh.triangles[t0]].mean(axis=0)
        a, b = mesh.vertices[mesh.edges[e]]
        assert (centroid - 0.5 * (a + b)) @ mesh.edge_normal[e] < 0
    # boundary normals point out of the meshed region
    for e in mesh.boundary_edges:
        mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
        assert mid @ mesh.edge_normal[e] > 0


def test_all_boundary_vertices_on_curve():
    curves, meshes = disk_hierarchy(3)
    mesh = meshes[-1]
    on_b = boundary_vertices(mesh)
    r = np.hypot(mesh.vertices[on_b, 0], mesh.vertices[on_b, 1])
    assert np.abs(r - 1.0).max() < 1e-12


def test_stats_equilateral():
    mesh = single_triangle_mesh([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
    stats, quality = mesh_stats(mesh), mesh_quality(mesh)
    assert stats.h == pytest.approx(1.0, abs=1e-15)
    assert quality.min_angle == pytest.approx(60.0, abs=1e-10)
    assert quality.uniformity == 1.0


def test_shape_regularity_across_levels():
    curves, meshes = disk_hierarchy(5)
    for mesh in meshes:
        quality = mesh_quality(mesh)
        assert quality.min_angle >= 20.0
        assert quality.uniformity < 4.0
    hs = [mesh_stats(m).h for m in meshes]
    assert all(h1 / h0 == pytest.approx(0.5, abs=0.12) for h0, h1 in zip(hs, hs[1:]))


def test_ring_components_tagged():
    curves = ring_domain()
    mesh = refine_project(coarse_mesh(curves), curves)
    comps = mesh.edge_component[mesh.boundary_edges]
    assert set(comps) == {0, 1}
    for e in mesh.boundary_edges:
        mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
        r = np.hypot(*mid)
        assert (r > 0.75) == (mesh.edge_component[e] == 0)


@pytest.mark.parametrize("curves, case", [
    ([BoundaryCurve((0.0, 0.0), 1.0)], case_circle()),
    ([BoundaryCurve((0.0, 0.0), 1.0), BoundaryCurve((0.0, 0.0), 0.5, domain_inside=False)],
     case_ring()),
], ids=["disk", "ring"])
def test_curves_built_directly_refine_onto_their_own_curve(curves, case):
    """A boundary component is its curve's position in ``curves``: curves
    built without ``disk_domain``/``ring_domain`` refine each boundary
    midpoint onto its own circle, and the refined mesh solves."""
    mesh = coarse_mesh(curves)
    for _ in range(2):
        mesh = refine_project(mesh, curves)
    for component, curve in enumerate(curves):
        on_curve = np.unique(mesh.edges[mesh.boundary_edges[
            mesh.edge_component[mesh.boundary_edges] == component]])
        assert curve.distance(mesh.vertices[on_curve]).max() <= 1e-14
    assert solve(Assembler(mesh, curves, 2).system(case))[3].success


def test_unit_square_mesh_is_flat_polygon():
    mesh = unit_square_mesh(4)
    assert mesh.n_triangles == 32
    assert (signed_areas(mesh) > 0).all()
    for e in mesh.boundary_edges:
        a, b = mesh.vertices[mesh.edges[e]]
        assert np.hypot(*(b - a)) == pytest.approx(0.25, abs=1e-15)


def test_square_corners_take_lowest_boundary_edge_component():
    # two sides meet at each corner: its two boundary edges lie on two sides
    mesh = unit_square_mesh(3)
    corners = [0, 3, 12, 15]
    assert np.abs(mesh.vertices[corners] % 1.0).max() == 0.0
    for v in corners:
        incident = [e for e in mesh.boundary_edges if v in mesh.edges[e]]
        assert len(incident) == 2
        assert len({mesh.edge_component[e] for e in incident}) == 2


@settings(max_examples=40, deadline=None)
@given(random_domains(), st.integers(0, 3))
def test_refined_mesh_invariants(curves, level):
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    assert (signed_areas(mesh) > 0).all()

    on_boundary = np.zeros(mesh.n_edges, dtype=bool)
    on_boundary[mesh.boundary_edges] = True
    assert (mesh.edge_tris[on_boundary, 1] == -1).all()
    interior = mesh.edge_tris[~on_boundary]
    assert (interior[:, 0] >= 0).all() and (interior[:, 0] < interior[:, 1]).all()

    normal = mesh.edge_normal
    assert np.abs(np.hypot(normal[:, 0], normal[:, 1]) - 1.0).max() <= 1e-15
    centroid = mesh.vertices[mesh.triangles[mesh.edge_tris[:, 0]]].mean(axis=1)
    mid = mesh.vertices[mesh.edges].mean(axis=1)
    assert (np.einsum("ea,ea->e", centroid - mid, normal) < 0).all()

    for component, curve in enumerate(curves):
        on_curve = np.unique(mesh.edges[mesh.boundary_edges[
            mesh.edge_component[mesh.boundary_edges] == component]])
        assert len(on_curve) > 0
        assert curve.distance(mesh.vertices[on_curve]).max() <= 1e-14 * curve.radius


@pytest.mark.parametrize("domain", [disk_domain, ring_domain])
def test_edge_numbering_equals_the_unique_of_sorted_pairs(domain):
    """Edges are numbered by 1-D keys; the numbering is the one a row-wise
    unique of the sorted vertex pairs gives."""
    curves = domain()
    mesh = coarse_mesh(curves)
    for _ in range(4):
        raw = mesh.triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 3, 2).transpose(1, 0, 2)
        edges, inverse = np.unique(np.sort(raw.reshape(-1, 2), axis=1), axis=0,
                                   return_inverse=True)
        assert np.array_equal(mesh.edges, edges)
        assert np.array_equal(mesh.tri_edges, inverse.reshape(3, -1).T)
        mesh = refine_project(mesh, curves)


def test_non_manifold_rejected():
    from bdmdarcy.mesh import _build_mesh

    # three triangles sharing the edge (1, 2)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    triangles = np.array([[0, 1, 2], [1, 3, 2], [1, 4, 2]])
    with pytest.raises(ValueError):
        _build_mesh(vertices, triangles, disk_domain(), level=0)
