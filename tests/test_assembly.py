"""Assembled forms against dense/matrix-free oracles and structural
identities of the constrained system."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy import assembly
from bdmdarcy.analysis import case_circle, case_polynomial_square, case_ring
from bdmdarcy.assembly import Assembler, build_saddle_system, reference_tables
from bdmdarcy.mesh import (
    coarse_mesh,
    disk_domain,
    refine_project,
    ring_domain,
    single_triangle_mesh,
    square_domain,
    triangle_domain,
    unit_square_mesh,
)
from oracles import (
    apply_operator,
    dense_matrix_a_flat,
    dense_matrix_b1_flat,
    dense_rhs_u_volume,
    element_blocks,
    norm_0h,
    random_domains,
)
from bdmdarcy.solver import solve

MODES = ("corrected", "uncorrected-strong")


def disk_assembler(levels, k, **kw):
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    for _ in range(levels):
        mesh = refine_project(mesh, curves)
    return Assembler(mesh, curves, k, **kw)


def test_single_triangle_matrix_a_against_dense_oracle():
    verts = np.array([[0.1, 0.0], [1.2, 0.3], [0.4, 1.0]])
    mesh = single_triangle_mesh(verts)
    asm = Assembler(mesh, triangle_domain(verts), k=1)
    a = asm.matrix_a().toarray()
    oracle = dense_matrix_a_flat(asm)
    scale = np.abs(oracle).max()
    assert np.abs(a - oracle).max() <= 1e-12 * scale


def test_single_triangle_matrix_b1_against_dense_oracle():
    verts = np.array([[0.1, 0.0], [1.2, 0.3], [0.4, 1.0]])
    mesh = single_triangle_mesh(verts)
    asm = Assembler(mesh, triangle_domain(verts), k=2)
    b1 = asm.matrix_b()[0].toarray()
    oracle = dense_matrix_b1_flat(asm)
    scale = np.abs(oracle).max()
    assert np.abs(b1 - oracle).max() <= 1e-12 * scale


@pytest.mark.parametrize("k", [1, 2, 3])
def test_matrix_a_symmetric(k):
    asm = disk_assembler(2, k)
    a = asm.matrix_a()
    asym = (a - a.T).tocoo()
    scale = np.abs(a.data).max()
    worst = np.abs(asym.data).max() if asym.nnz else 0.0
    assert worst <= 1e-13 * scale


@pytest.mark.parametrize("m", [0, 1, 2])
def test_flat_domain_correction_is_inert(m):
    # on a polygonal domain the shift vanishes, so every Taylor order gives
    # the same matrix entrywise
    mesh = unit_square_mesh(3)
    curves = square_domain()
    base = Assembler(mesh, curves, k=2, m=0).matrix_a()
    other = Assembler(mesh, curves, k=2, m=m).matrix_a()
    diff = (base - other).tocoo()
    scale = np.abs(base.data).max()
    worst = np.abs(diff.data).max() if diff.nnz else 0.0
    assert worst <= 1e-14 * scale


@pytest.mark.parametrize("k", [1, 2])
def test_constant_pressure_annihilates_b1(k):
    asm = disk_assembler(2, k)
    b1, _ = asm.matrix_b()
    ones = asm.constant_pressure()
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.standard_normal(asm.dofmap.n_u)
        val = ones @ (b1 @ v)
        bound = 1e-12 * norm_0h(asm, v) * np.sqrt(asm.area)
        assert abs(val) <= bound


def test_interior_pressure_rows_identical_in_b0_b1():
    asm = disk_assembler(1, 2)
    b1, b0 = asm.matrix_b()
    mesh = asm.mesh
    interior_tris = [
        t for t in range(mesh.n_triangles)
        if not any(mesh.edge_tris[e, 1] < 0 for e in mesh.tri_edges[t])
    ]
    assert interior_tris
    diff = (b1 - b0).tocsr()
    for t in interior_tris:
        rows = asm.pidx[t]
        sub = diff[rows]
        assert sub.nnz == 0 or np.abs(sub.data).max() == 0.0


def test_rhs_zero_data():
    asm = disk_assembler(1, 1)
    zero_case = case_circle()
    zero_case.source = lambda pts: np.zeros(len(np.atleast_2d(pts)))
    rhs_u, rhs_p = asm.rhs(zero_case)
    assert np.abs(rhs_u).max() == 0.0
    assert np.abs(rhs_p).max() == 0.0


def test_rhs_constant_source_has_zero_pressure_load():
    asm = disk_assembler(1, 2)
    case = case_circle()
    case.source = lambda pts: np.ones(len(np.atleast_2d(pts)))
    _, rhs_p = asm.rhs(case)
    assert np.abs(rhs_p).max() <= 1e-14


def test_rhs_u_against_dense_oracle():
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    asm = Assembler(mesh, curves, k=2)
    case = case_circle()  # homogeneous Neumann: only the volume part loads
    rhs_u, _ = asm.rhs(case)
    oracle = dense_rhs_u_volume(asm, case.source)
    scale = max(np.abs(oracle).max(), 1.0)
    assert np.abs(rhs_u - oracle).max() <= 1e-11 * scale


def test_system_dimension_and_split():
    asm = disk_assembler(1, 2)
    system = asm.system(case_circle())
    assert system.dimension == asm.dofmap.n_u + asm.dofmap.n_p + 1
    x = np.arange(system.dimension, dtype=float)
    u, p, lam = system.split(x)
    assert len(u) == asm.dofmap.n_u and len(p) == asm.dofmap.n_p
    assert lam == x[-1]


def test_assembled_operator_matches_matrix_free_oracle():
    """The operator on (u, p, theta) is the paper's operator on (u, p, lam)
    for lam = theta - flux.u / area: the boundary-mean term is a change of
    the multiplier."""
    asm = disk_assembler(2, 1)
    system = build_saddle_system(asm, case_circle())
    rng = np.random.default_rng(17)
    x = rng.standard_normal(system.dimension)
    flux = x[(asm.k + 1) * asm.mesh.boundary_edges].sum()  # zeroth normal moments
    paper = x.copy()
    paper[-1] -= flux / asm.area
    direct = system.matvec(x)
    oracle = apply_operator(asm, paper)
    scale = np.abs(direct).max()
    assert np.abs(direct - oracle).max() <= 1e-12 * scale


@pytest.mark.parametrize("mode", MODES)
def test_solve_path_builds_no_global_matrix(monkeypatch, mode):
    calls = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(assembly, "_scatter", counted("_scatter", assembly._scatter))
    monkeypatch.setattr(sp, "bmat", counted("bmat", sp.bmat))
    system = disk_assembler(1, 2, mode=mode).system(case_circle())
    assert solve(system)[3].success
    assert "matrix" not in vars(system) and calls == []
    system.matrix
    assert calls == ["_scatter", "_scatter"]  # built once, on first read
    system.matrix
    assert len(calls) == 2


@settings(max_examples=30, deadline=None)
@given(random_domains(), st.sampled_from(MODES), st.integers(1, 3), st.integers(0, 1),
       st.integers(0, 2**32 - 1))
def test_element_matvec_matches_lazy_matrix(curves, mode, k, level, seed):
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    # the operator does not depend on the data; the circle case's flag lets
    # strong mode assemble on any domain
    system = Assembler(mesh, curves, k, mode=mode).system(case_circle())
    x = np.random.default_rng(seed).standard_normal(system.dimension)
    expected = system.matrix @ x
    assert np.abs(system.matvec(x) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("mode", MODES)
def test_lazy_matrix_blocks_equal_scattered_blocks(mode):
    asm = disk_assembler(2, 2, mode=mode)
    system = asm.system(case_circle())
    b1, b0 = asm.matrix_b()
    n_u, n_p, mat = system.n_u, system.n_p, system.matrix
    pairs = [
        (mat[:n_u, :n_u], asm.matrix_a()),
        (mat[:n_u, n_u : n_u + n_p], b1.T),
        (mat[n_u : n_u + n_p, :n_u], b0),
    ]
    for block, expected in pairs:
        assert block.nnz == expected.nnz and (block != expected).nnz == 0
    c = asm.pressure_integrals()
    assert np.array_equal(mat[n_u:-1, -1].toarray().ravel(), c)
    assert np.array_equal(mat[-1, n_u:-1].toarray().ravel(), c)
    assert mat.nnz == sum(block.nnz for block, _ in pairs) + 2 * np.count_nonzero(c)


@pytest.mark.parametrize("mode", MODES)
def test_one_copy_of_the_element_blocks(mode):
    asm = disk_assembler(1, 2, mode=mode)
    system = asm.system(case_circle())
    assert solve(system)[3].success
    assert system.elements is asm.elements
    nel, nd = asm.gidx.shape
    npr = asm.dofmap.n_pressure_local
    held = []
    for value in vars(asm).values():
        held.extend(value if isinstance(value, tuple) else [value])
    shapes = {a.shape for a in held if isinstance(a, np.ndarray)}
    assert not {"local_a", "local_b"} & set(vars(asm))
    assert not {(nel, npr, nd), (nel, nd + npr, nd + npr)} & shapes
    # matrix_a reads the blocks the solve inverts: one source of truth
    e, i = 0, nd - 1  # an interior dof, never constrained
    before = asm.matrix_a()[asm.gidx[e, i], asm.gidx[e, i]]
    asm.elements.matrix[e, i, i] += 1.0
    assert asm.matrix_a()[asm.gidx[e, i], asm.gidx[e, i]] == before + 1.0


def test_strong_mode_blocks_hold_the_identity():
    asm = disk_assembler(1, 2, mode="uncorrected-strong")
    c = asm.constrained
    a = asm.matrix_a()
    assert (a[c][:, c] != sp.identity(len(c))).nnz == 0
    b1, b0 = asm.matrix_b()
    assert b1[:, c].nnz == b0[:, c].nnz == 0


def test_non_finite_mesh_rejected():
    """A NaN vertex is refused when the assembler is built, not later as a
    singular solve."""
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    mesh.vertices[mesh.triangles[0, 2]] = np.nan
    with pytest.raises(ValueError, match="degenerate or clockwise"):
        Assembler(mesh, curves, 1)


def test_dump_guard_rejects_large_systems(monkeypatch, tmp_path):
    from bdmdarcy import cli

    system = disk_assembler(0, 1).system(case_circle())
    monkeypatch.setattr(cli, "MAX_DUMP_ENTRIES", system.matrix.nnz)
    cli.dump_system(system, tmp_path / "fits.txt")
    assert (tmp_path / "fits.txt").exists()
    monkeypatch.setattr(cli, "MAX_DUMP_ENTRIES", system.matrix.nnz - 1)
    with pytest.raises(ValueError, match="too large to dump"):
        cli.dump_system(system, tmp_path / "system.txt")
    assert not (tmp_path / "system.txt").exists()


def test_uncorrected_strong_rejects_inhomogeneous_data():
    curves = ring_domain()
    mesh = coarse_mesh(curves)
    asm = Assembler(mesh, curves, k=1, mode="uncorrected-strong")
    with pytest.raises(ValueError):
        asm.system(case_ring())


def test_uncorrected_strong_eliminates_boundary_moments():
    asm = disk_assembler(1, 2, mode="uncorrected-strong")
    system = asm.system(case_circle())
    # the constrained dofs keep their place, as identity rows with zero loads
    assert system.dimension == asm.dofmap.n_u + asm.dofmap.n_p + 1
    c = asm.constrained
    assert len(c) == (asm.k + 1) * len(asm.mesh.boundary_edges)
    assert np.all(system.rhs[c] == 0.0)
    assert (system.matrix[c] != sp.csr_matrix((np.ones(len(c)), (np.arange(len(c)), c)),
                                              shape=(len(c), system.dimension))).nnz == 0

    u, p, theta, rep = solve(system)
    assert rep.success
    # constrained moments are exactly zero in the returned vector
    for e in asm.mesh.boundary_edges:
        assert np.abs(u[(asm.k + 1) * e + np.arange(asm.k + 1)]).max() == 0.0


@pytest.mark.parametrize("levels,k", [(2, 1), (2, 2), (2, 3), (4, 3)])
def test_element_arrays_on_power_of_two_meshes(levels, k):
    """Ring level j has 2^(5+2j) elements, where an element-fastest
    contraction result has a power-of-two stride.  The metric contractions
    come out element-major, and the blocks and duals match the loop."""
    curves = ring_domain()
    mesh = coarse_mesh(curves)
    for _ in range(levels):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k)
    nel, t = mesh.n_triangles, asm.tables
    assert nel == 2 ** (5 + 2 * levels)
    g = np.einsum("eba,ebc->eac", asm.jac, asm.jac)
    for table in (t.s_mass, t.s_grad, t.s_curl):
        if table is not None:
            assert assembly._contract(g, table).flags.c_contiguous
    blocks, dual = element_blocks(asm)
    for ours, oracle in ((asm.elements.matrix, blocks), (asm.local_dual, dual)):
        error = np.linalg.norm(ours - oracle, axis=(1, 2))
        assert np.all(error <= 1e-14 * np.linalg.norm(oracle, axis=(1, 2)))


@settings(max_examples=60, deadline=None)
@given(
    nel=st.one_of(st.sampled_from([2**j for j in range(14)]), st.integers(1, 1000)),
    tail=st.lists(st.integers(1, 12), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_contract_equals_einsum(nel, tail, seed):
    """The GEMM contraction is bit-identical to the einsum it replaced."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((nel, 2, 2)) * 10.0 ** rng.integers(-6, 7, size=(nel, 1, 1))
    table = rng.standard_normal((2, 2, *tail))
    axes = "rn"[: len(tail)]
    expected = np.einsum(f"eab,ab{axes}->e{axes}", m, table, optimize=True)
    assert np.array_equal(assembly._contract(m, table), expected)


def test_assembly_is_deterministic():
    asm1 = disk_assembler(2, 2)
    asm2 = disk_assembler(2, 2)
    a1, a2 = asm1.matrix_a(), asm2.matrix_a()
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(a1.indices, a2.indices)
    b1a, b0a = asm1.matrix_b()
    b1b, b0b = asm2.matrix_b()
    assert np.array_equal(b1a.data, b1b.data)
    assert np.array_equal(b0a.data, b0b.data)
    ru1, rp1 = asm1.rhs(case_circle())
    ru2, rp2 = asm2.rhs(case_circle())
    assert np.array_equal(ru1, ru2) and np.array_equal(rp1, rp2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_global_hdiv_conformity(k):
    # normal traces agree across interior edges for any coefficient vector
    asm = disk_assembler(2, k)
    mesh = asm.mesh
    rng = np.random.default_rng(77 + k)
    u = rng.standard_normal(asm.dofmap.n_u)
    w = asm.local_coeffs(u)
    s = np.polynomial.legendre.leggauss(k + 2)[0]
    interior = [e for e in range(mesh.n_edges) if mesh.edge_tris[e, 1] >= 0]
    scale = np.abs(u).max()
    for e in interior[:: max(1, len(interior) // 40)]:
        a, b = mesh.vertices[mesh.edges[e]]
        pts = 0.5 * (a + b) + 0.5 * np.outer(s, b - a)
        n = mesh.edge_normal[e]
        t0, t1 = mesh.edge_tris[e]
        v0 = asm.local_field(t0, w[t0]).eval(pts) @ n
        v1 = asm.local_field(t1, w[t1]).eval(pts) @ n
        assert np.abs(v0 - v1).max() <= 1e-11 * scale


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coercivity_identity(k):
    asm = disk_assembler(2, k)
    a = asm.matrix_a()
    rng = np.random.default_rng(23 + k)
    for _ in range(10):
        v = rng.standard_normal(asm.dofmap.n_u)
        quad = v @ (a @ v)
        direct = norm_0h(asm, v) ** 2
        assert quad == pytest.approx(direct, rel=1e-12)


def test_patch_test_square():
    # polynomial data inside the discrete spaces is reproduced exactly
    from bdmdarcy.analysis import error_norms
    from bdmdarcy.solver import postprocess_pressure, solve

    k = 2
    case = case_polynomial_square(k)
    mesh = unit_square_mesh(2)
    asm = Assembler(mesh, square_domain(), k=k)
    u, p, lam, rep = solve(asm.system(case))
    assert rep.success
    p = postprocess_pressure(p, asm)
    err = error_norms(u, p, case, asm)
    assert err.e_total <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadrature_overrides_may_only_go_upward(k):
    # coarser rules make the mass matrix singular or the penalty inexact
    with pytest.raises(ValueError):
        reference_tables(k, vol_degree=2 * k + 1)
    with pytest.raises(ValueError):
        reference_tables(k, bnd_points=k + 2)
    with pytest.raises(ValueError):
        disk_assembler(0, k, quad_boundary=1)
    tables = reference_tables(k, vol_degree=2 * k + 2, bnd_points=k + 3)
    assert tables.vol.degree >= 2 * k + 2 and len(tables.bnd_rule) == k + 3
