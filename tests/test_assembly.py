"""Assembled forms against dense/matrix-free oracles and structural
identities of the constrained system."""

import copy
import tracemalloc
from math import isqrt

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bdmdarcy import assembly, solver
from bdmdarcy.analysis import case_circle, case_ring, error_norms
from bdmdarcy.assembly import Assembler, ShapeFunctions, build_saddle_system, reference_tables
from bdmdarcy.correction import dot2, taylor_trace_normal
from bdmdarcy.mesh import (
    _build_mesh,
    coarse_mesh,
    disk_domain,
    refine_project,
    ring_domain,
)
from domains import (
    case_polynomial_square,
    single_triangle_mesh,
    square_domain,
    triangle_domain,
    unit_square_mesh,
)
from oracles import (
    apply_operator,
    boundary_spread,
    centroid_normal,
    constant_pressure,
    constrained_local_dofs,
    copies_by_slot_search,
    dense_matrix_a_flat,
    dense_matrix_b1_flat,
    dense_rhs_u_volume,
    dof_sign_by_vertex_lookup,
    einsum_error_norms,
    einsum_loads,
    element_apply,
    element_blocks,
    expand,
    front_fill,
    interface_coo,
    interface_fronts,
    key_classes,
    local_field,
    norm_0h,
    of_representatives,
    ordered_table,
    per_dof_multipliers,
    pressure_index,
    random_domains,
    relabelled,
    representatives,
    round_off,
    scatter,
    scattered_operator,
    signed_blocks,
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
    ones = constant_pressure(asm)
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
        rows = pressure_index(asm)[t]
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

    monkeypatch.setattr(assembly, "operator_csr",
                        counted("operator_csr", assembly.operator_csr))
    monkeypatch.setattr(sp, "bmat", counted("bmat", sp.bmat))
    system = disk_assembler(1, 2, mode=mode).system(case_circle())
    assert solve(system)[3].success
    assert "matrix" not in vars(system) and calls == []
    system.matrix
    assert calls == ["operator_csr"]
    system.matrix
    assert calls == ["operator_csr"] * 2  # built on each read, never kept
    assert "matrix" not in vars(system)


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


def _same_csr(mat, expected):
    """The same canonical CSR, bit for bit: index pointers, column indices
    and the bit patterns of the values."""
    assert mat.has_canonical_format and expected.has_canonical_format
    assert np.array_equal(mat.indptr, expected.indptr)
    assert np.array_equal(mat.indices, expected.indices)
    assert np.array_equal(mat.data.view(np.int64), expected.data.view(np.int64))


@pytest.mark.parametrize("mode", MODES)
def test_lazy_matrix_blocks_equal_scattered_blocks(mode):
    """On a fixed disk, each block of the lazy operator is the COO scatter of
    its slice of the expanded element blocks, and the border row and column
    are c, each element's own pressure integrals; nothing else is stored."""
    asm = disk_assembler(2, 2, mode=mode)
    system = asm.system(case_circle())
    blocks, nd, pidx = expand(asm.elements), asm.gidx.shape[1], pressure_index(asm)
    n_u, n_p, mat = system.n_u, system.n_p, system.matrix
    pairs = [
        (mat[:n_u, :n_u], scatter(blocks[:, :nd, :nd], asm.gidx, asm.gidx, (n_u, n_u))),
        (mat[:n_u, n_u : n_u + n_p], scatter(blocks[:, :nd, nd:], asm.gidx, pidx, (n_u, n_p))),
        (mat[n_u : n_u + n_p, :n_u], scatter(blocks[:, nd:, :nd], pidx, asm.gidx, (n_p, n_u))),
    ]
    for block, expected in pairs:
        assert block.nnz == expected.nnz and (block != expected).nnz == 0
    c = asm.pressure_integrals()
    assert np.array_equal(mat[n_u:-1, -1].toarray().ravel(), c)
    assert np.array_equal(mat[-1, n_u:-1].toarray().ravel(), c)
    assert mat.nnz == sum(block.nnz for block, _ in pairs) + 2 * np.count_nonzero(c)


@settings(max_examples=30, deadline=None)
@given(random_domains(), st.sampled_from(MODES), st.integers(1, 3), st.integers(0, 1))
def test_operator_csr_equals_the_scattered_blocks(curves, mode, k, level):
    """The one-pass CSR of the operator is the COO scatter of the expanded
    element blocks plus the column and row c, and ``matrix_a``/``matrix_b``
    are the scatters of the A_K, B1_K^T and B0_K slices, bit for bit."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k, mode=mode)
    system = asm.system(case_circle())
    _same_csr(system.matrix, scattered_operator(system))
    blocks, nd, pidx = expand(asm.elements), asm.gidx.shape[1], pressure_index(asm)
    n_u, n_p = asm.dofmap.n_u, asm.dofmap.n_p
    _same_csr(asm.matrix_a(), scatter(blocks[:, :nd, :nd], asm.gidx, asm.gidx, (n_u, n_u)))
    b1, b0 = asm.matrix_b()
    _same_csr(b1, scatter(blocks[:, :nd, nd:].transpose(0, 2, 1), pidx, asm.gidx, (n_p, n_u)))
    _same_csr(b0, scatter(blocks[:, nd:, :nd], pidx, asm.gidx, (n_p, n_u)))


@pytest.mark.parametrize("mode", MODES)
def test_one_copy_of_the_element_blocks(mode):
    asm = disk_assembler(2, 2, mode=mode)
    system = asm.system(case_circle())
    assert solve(system)[3].success
    el = system.elements
    assert el is asm.elements
    nel, nd = asm.gidx.shape
    npr = asm.dofmap.n_pressure_local
    assert len(el.matrix) < nel
    held = []
    for owner in (asm, system, el, solver._Hybrid(system)):
        for value in vars(owner).values():
            held.extend(value if isinstance(value, tuple) else [value])
    shapes = {a.shape for a in held if isinstance(a, np.ndarray)}
    assert not {"local_a", "local_b", "local_dual"} & set(vars(asm))
    assert not {(nel, npr, nd), (nel, nd, nd), (nel, nd + npr, nd + npr)} & shapes
    # matrix_a reads the blocks the solve inverts: one source of truth, one
    # block for every member of a class
    i = nd - 1  # an interior dof, never constrained
    largest = np.bincount(el.cls).argmax()
    dofs = asm.gidx[el.cls == largest, i]
    assert len(dofs) > 1
    before = asm.matrix_a()[dofs, dofs]
    el.matrix[largest, i, i] += 1.0
    assert np.array_equal(asm.matrix_a()[dofs, dofs], before + 1.0)


def test_distinct_blocks_are_held_once():
    """On a red-refined disk most elements share their block with another
    (72 classes for 1,536 elements at k=3 level 4), so losing the grouping
    fails here."""
    asm = disk_assembler(4, 3)
    assert len(asm.elements.matrix) < 0.75 * asm.mesh.n_triangles


@settings(max_examples=25, deadline=None)
@given(random_domains(), st.sampled_from(MODES), st.integers(1, 3), st.integers(0, 3))
def test_class_blocks_are_the_element_blocks_bit_for_bit(curves, mode, k, level):
    """The expanded class blocks are each element's block as built from its
    class representative's geometry, its boundary terms too, bit for bit,
    and within round-off of the block of its own geometry; the members' own
    boundary terms lie within round-off of the ones they take; the inverse
    of each element's block is its class inverse with the signs flipped,
    equal in every entry (array_equal: a zero's sign aside)."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k, mode=mode)
    el = asm.elements
    blocks = expand(el)
    assert np.array_equal(blocks, signed_blocks(asm, representatives(el)))
    own = signed_blocks(asm)
    scale = np.linalg.norm(own, axis=(1, 2)) * round_off(mesh, curves)
    assert np.all(np.linalg.norm(blocks - own, axis=(1, 2)) <= 1e-13 * scale)
    assert boundary_spread(asm) <= 1e-13 * round_off(mesh, curves)
    flip = el.flip
    inverses = flip[:, :, None] * np.linalg.inv(el.matrix)[el.cls] * flip[:, None, :]
    assert np.array_equal(np.linalg.inv(blocks), inverses)


@settings(max_examples=25, deadline=None)
@given(random_domains(), st.sampled_from(MODES), st.integers(1, 3), st.integers(0, 3))
def test_classes_are_element_shapes_up_to_round_off(curves, mode, k, level):
    """The members of a class lie within 1e-13 of each other in normalised
    (g, log2 det), g over its largest entry, times the vertices' round-off
    of ``round_off`` on a domain off the origin; two classes of shapes
    (those with two or more members) are either as close (one shape split at
    a bucket edge of the key) or at least 1e-6 apart (distinct shapes)."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k, mode=mode)
    cls, nel = asm.elements.cls, mesh.n_triangles
    g = np.einsum("eba,ebc->eac", asm.jac, asm.jac).reshape(nel, 4) / asm.det[:, None]
    z = np.column_stack([g / np.abs(g).max(axis=1, keepdims=True), np.log2(asm.det)])
    high, low = np.full((cls.max() + 1, 5), -np.inf), np.full((cls.max() + 1, 5), np.inf)
    np.maximum.at(high, cls, z)
    np.minimum.at(low, cls, z)
    tol = 1e-13 * round_off(mesh, curves)
    assert (high - low).max() <= tol
    shapes = z[np.unique(cls, return_index=True)[1][np.bincount(cls) > 1]]
    apart = np.abs(shapes[:, None] - shapes[None]).max(axis=2)[np.triu_indices(len(shapes), 1)]
    assert np.all((apart <= tol) | (apart >= 1e-6))


@pytest.mark.parametrize("domain,level,n_cls,spread", [
    pytest.param(domain, level, n_cls, spread, id=f"{domain.__name__}-{level}-{n_cls}")
    for domain, level, n_cls, spread in [
        (disk_domain, 4, 72, 7e-15), (disk_domain, 5, 153, 2e-14), (disk_domain, 6, 316, 4e-14),
        (ring_domain, 2, 28, 5e-15), (ring_domain, 3, 68, 8e-15), (ring_domain, 4, 150, 2e-14),
    ]
])
def test_class_counts_at_the_finest_benchmark_levels(domain, level, n_cls, spread):
    """The benchmark's disk and ring studies hold one class per element
    shape, a boundary owner's shape including its trace geometry (k=3): 153
    and 150 classes for 6,144 and 8,192 elements at their finest levels,
    where the exact bit patterns of (g, det) gave 2,301 and 3,381 and one
    class per boundary owner 312 and 630.  The members' own boundary terms
    are within ``spread`` of the ones they take (measured 4.8e-15, 1.2e-14
    and 2.6e-14 on the disk, 3.1e-15, 5.4e-15 and 1.0e-14 on the ring)."""
    asm = Assembler(*_refined(domain, level), 3)
    assert len(asm.elements.matrix) == n_cls
    assert boundary_spread(asm) <= spread


def _slid(mesh, curves):
    """The mesh with its boundary vertices slid along the unit circle by
    distinct angles: no two owners keep one shape."""
    vertices = mesh.vertices.copy()
    on_circle = np.unique(mesh.edges[mesh.boundary_edges])
    angle = np.arctan2(vertices[on_circle, 1], vertices[on_circle, 0])
    angle += 0.02 * (np.arange(len(on_circle)) + 1) / len(on_circle)
    vertices[on_circle] = np.column_stack([np.cos(angle), np.sin(angle)])
    return _build_mesh(vertices, mesh.triangles, curves, level=mesh.level), curves


def _shifted(mesh, curves):
    """The mesh under the unit circle moved off its centre by 1e-3: the owners
    keep their shapes and slots, and no two keep one trace geometry."""
    return mesh, disk_domain(center=(1e-3, 0.0))


@pytest.mark.parametrize("asymmetric", [_slid, _shifted])
def test_owners_of_an_asymmetric_mesh_never_merge(asymmetric):
    """On a refined disk whose boundary has lost its symmetry, by its
    vertices slid along the circle by distinct angles or by the circle
    moved under the mesh, no two boundary owners share a class, the classes
    number the interior shapes plus the owners, and each class block is
    its representative's own block, bit for bit."""
    mesh, curves = asymmetric(*_refined(disk_domain, 2))
    asm = Assembler(mesh, curves, 3)
    el = asm.elements
    owners = np.unique(asm.trace.owner)
    assert np.bincount(el.cls)[el.cls[owners]].max() == 1
    interior = np.setdiff1d(np.arange(mesh.n_triangles), owners)
    assert len(el.matrix) == len(np.unique(key_classes(asm)[interior])) + len(owners)
    assert np.array_equal(expand(el)[el.rep], signed_blocks(asm)[el.rep])


def test_a_representative_without_a_members_boundary_slot_is_refused(monkeypatch):
    """Each boundary edge takes the traces of the edge in its slot of its
    class representative; a class whose representative has no boundary edge
    there (here every element in one class, represented by an interior
    element) is refused, not read as some other edge's traces."""
    mesh, curves = _refined(disk_domain, 1)
    interior = np.flatnonzero(np.all(mesh.edge_tris[mesh.tri_edges, 1] >= 0, axis=1))[0]
    one_class = (np.zeros(mesh.n_triangles, np.int64), np.array([interior]))
    monkeypatch.setattr(Assembler, "_classes", lambda self: one_class)
    with pytest.raises(RuntimeError, match="no boundary edge in the slot"):
        Assembler(mesh, curves, 2)


@pytest.mark.parametrize("domain,case,k,level,bound", [
    (disk_domain, case_circle, 3, 4, 1e-10),
    (ring_domain, case_ring, 3, 2, 1e-14),
    (ring_domain, case_ring, 6, 1, 1e-13),
    (ring_domain, case_ring, 9, 2, 5e-7),
])
def test_error_norms_with_the_representatives_traces_are_the_owners_own(
        domain, case, k, level, bound):
    """The error norms read each owner's traces from its class
    representative's edge.  With the owner's own traces they differ by the
    traces' round-off alone, relative to E_total: measured 1.4e-11 (disk
    k=3 L4), 3.6e-16 (ring k=3 L2), 1.5e-14 (ring k=6 L1) and 8.4e-8 (ring
    k=9 L2, where the degree-9 traces keep fewer digits), inside the
    benchmark gate's rtol of 1e-6 on E_total."""
    asm = Assembler(*_refined(domain, level), k)
    u, p, _, _ = solve(asm.system(case()))
    own = copy.copy(asm)
    own.basis_trace = taylor_trace_normal(ShapeFunctions(asm, asm.trace.owner), asm.trace, asm.m)
    taken, mine = error_norms(u, p, case(), asm).e_total, error_norms(u, p, case(), own).e_total
    assert abs(taken - mine) <= bound * mine


@settings(max_examples=30, deadline=None)
@given(random_domains(), st.sampled_from(MODES), st.integers(1, 3), st.integers(0, 2),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_class_ordered_apply_is_the_gathered_one_byte_for_byte(
        curves, mode, k, level, relabel, seed):
    """``ElementBlocks.apply`` in round order, on prefixes of the class
    blocks, is the apply on blocks gathered a chunk of elements at a time,
    byte for byte, with ``matrix`` and with the class inverses, on random
    disks and rings as refined and relabelled."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    if relabel:
        mesh = relabelled(mesh, curves, seed)
    el = Assembler(mesh, curves, k, mode=mode).elements
    order = el.rounds[0]
    assert np.array_equal(np.sort(order), np.arange(len(el.cls)))
    check_apply(el, seed)


def check_apply(el, seed):
    x = np.random.default_rng(seed).standard_normal(el.flip.shape)
    order = el.rounds[0]
    assert el.apply(x[order]).tobytes() == element_apply(el, x)[order].tobytes()
    inv = np.linalg.inv(el.matrix)
    assert el.apply(x[order], inv).tobytes() == element_apply(el, x, inv)[order].tobytes()


@pytest.mark.parametrize("domain,level,mode", [
    (disk_domain, 3, "corrected"), (disk_domain, 5, "corrected"),
    (ring_domain, 2, "corrected"), (disk_domain, 4, "uncorrected-strong"),
])
def test_apply_with_tails_is_the_gathered_one_byte_for_byte(domain, level, mode):
    """Where the large classes end in tails (one product broadcast from a
    class block over the rest of its elements), the apply is still the
    gathered one, byte for byte."""
    mesh, curves = _refined(domain, level)
    el = Assembler(mesh, curves, 3, mode=mode).elements
    _, _, sizes, tails = el.rounds
    assert len(sizes) and len(tails)
    check_apply(el, level)


def round_patterns(sizes, tails):
    """Each row's class in the round order of ``assembly.rounds`` with
    round sizes ``sizes`` and tail sizes ``tails``."""
    rows = [np.arange(n) for n in sizes.tolist()]
    rows += [np.full(n, c) for c, n in enumerate(tails.tolist())]
    return np.concatenate(rows)


@pytest.mark.parametrize("domain,level,k,mode", [
    (disk_domain, 3, 3, "corrected"), (disk_domain, 5, 3, "corrected"),
    (ring_domain, 1, 2, "corrected"), (ring_domain, 2, 3, "corrected"),
    (disk_domain, 4, 3, "uncorrected-strong"),
])
def test_front_sweeps_are_the_gathered_products_byte_for_byte(domain, level, k, mode):
    """Each bit's two products in ``_Fronts.solve``, with ``forward`` and
    ``upper``, are the per-front products with the fronts' pattern blocks
    gathered, forward[pat] @ x, byte for byte, tails included: the class-
    batched product of the element applies (``check_apply``), so every
    front row has the bits of its own product.  A GEMM per tail would move
    the last bit of its rows."""
    mesh, curves = _refined(domain, level)
    el = Assembler(mesh, curves, k, mode=mode).elements
    fronts = interface_fronts(el, np.linalg.inv(el.matrix), *ordered_table(el))
    rng = np.random.default_rng(level)
    assert any(len(tails) for *_, tails, _, _ in fronts.levels)
    for sep, bnd, _, _, sizes, tails, forward, upper in fronts.levels:
        pat = round_patterns(sizes, tails)
        for blocks, width in ((forward, sep.shape[1]), (upper, bnd.shape[1])):
            x = rng.standard_normal((len(pat), width))
            expected = (blocks[pat] @ x[:, :, None])[..., 0]
            assert _same_bits(assembly.apply_rounds(blocks, x, sizes, tails), expected)


def _refined(domain, level):
    curves = domain()
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    return mesh, curves


_TRIANGLE = np.array([[0.1, 0.0], [1.2, 0.3], [0.4, 1.0]])
ORDER_MESHES = {
    **{f"{domain.__name__}-L{level}": (lambda domain=domain, level=level: _refined(domain, level))
       for domain in (disk_domain, ring_domain) for level in range(5)},
    "unit-square": lambda: (unit_square_mesh(4), square_domain()),
    "single-triangle": lambda: (single_triangle_mesh(_TRIANGLE), triangle_domain(_TRIANGLE)),
}


def check_multiplier_order(mesh, curves, k):
    """The nested-dissection order is a permutation of the interior edges,
    and the ordered edge table numbers the k+1 multipliers of the edge at
    position i of that order (k+1)i .. (k+1)i + k, the same on both sides of
    the edge.  Returns the interior edges in that order."""
    interior = mesh.edge_tris[:, 1] >= 0
    el = Assembler(mesh, curves, k).elements
    rows = solver._nested_dissection(el.copies)
    assert np.array_equal(np.sort(rows), np.arange(np.count_nonzero(interior)))
    order = np.flatnonzero(interior)[rows]
    position = np.full(mesh.n_edges, -1)
    position[order] = np.arange(len(order))
    numbers = (k + 1) * position[:, None] + np.arange(k + 1)
    numbers[~interior] = -1
    multiplier, _ = per_dof_multipliers(el, *ordered_table(el))
    assert np.array_equal(multiplier, numbers[mesh.tri_edges].reshape(mesh.n_triangles, -1))
    return order


@pytest.mark.parametrize("name", ORDER_MESHES)
def test_multipliers_are_numbered_in_nested_dissection_order(name):
    mesh, curves = ORDER_MESHES[name]()
    order = check_multiplier_order(mesh, curves, k=2)
    if not name.startswith(("disk", "ring")):
        return
    # red refinement: the triangles of one level-j ancestor are the index
    # range with the same t >> 2(level - j), and every such subtree's own
    # edges come before the edges that separate it from the others
    t1, t2 = mesh.edge_tris[order].T
    for j in range(mesh.level + 1):
        shift = 2 * (mesh.level - j)
        separator = (t1 >> shift) != (t2 >> shift)
        assert np.all(np.diff(separator.astype(int)) >= 0)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([disk_domain, ring_domain]), st.integers(0, 3), st.randoms())
def test_any_triangle_numbering_gives_a_valid_order(domain, level, random):
    """A mesh numbered in no tree order (here, the refined mesh with its
    triangles shuffled) still gets a permutation of its interior edges, and
    the solve meets the contract."""
    mesh, curves = _refined(domain, level)
    perm = list(range(mesh.n_triangles))
    random.shuffle(perm)
    mesh = _build_mesh(mesh.vertices, mesh.triangles[perm], curves, level=level)
    check_multiplier_order(mesh, curves, k=1)
    assert solve(Assembler(mesh, curves, 1).system(case_circle()))[3].success


def check_solves(fronts, matrix, g):
    """The tree factor's solve of g is the sparse direct solve of the
    interface ``matrix`` to round-off (these interfaces have condition
    numbers up to ~1e6, and the two solves differ by 1e-14 to 1e-12)."""
    x, expected = fronts.solve(g), spla.spsolve(matrix.tocsc(), g)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("name", ORDER_MESHES)
def test_interface_matrix_is_the_edge_order_one_relabelled(name):
    """The tree factor of the nested-dissection numbering solves the
    interface matrix of the numbering by ascending interior edge,
    relabelled: its solve of a load in its numbering is, relabelled, the
    direct solve of that matrix's COO build."""
    mesh, curves = ORDER_MESHES[name]()
    k = 3
    el = Assembler(mesh, curves, k).elements
    inv = np.linalg.inv(el.matrix)
    n = (k + 1) * len(el.copies) + 1
    nested, _ = per_dof_multipliers(el, *ordered_table(el))
    interior = mesh.edge_tris[:, 1] >= 0
    first = (k + 1) * (np.cumsum(interior) - 1)
    by_edge = (first[mesh.tri_edges][:, :, None] + np.arange(k + 1)).reshape(mesh.n_triangles, -1)
    inner = nested >= 0
    relabel = np.full(n, n - 1)  # the edge-order number of each nested one
    relabel[nested[inner]] = by_edge[inner]
    assert np.array_equal(np.sort(relabel), np.arange(n))

    g = np.random.default_rng(n).standard_normal(n)
    fronts = interface_fronts(el, inv, *ordered_table(el))
    edge_order = interface_coo(el, inv, *el.copies.transpose(2, 0, 1))
    x, expected = fronts.solve(g[relabel]), spla.spsolve(edge_order, g)
    assert np.abs(x - expected[relabel]).max() <= 1e-10 * np.abs(expected).max()


@st.composite
def relabelled_meshes(draw):
    """A random disk or ring at levels 0-2, or one of ``ORDER_MESHES``,
    relabelled."""
    if draw(st.booleans()):
        curves = draw(random_domains())
        mesh = coarse_mesh(curves)
        for _ in range(draw(st.integers(0, 2))):
            mesh = refine_project(mesh, curves)
    else:
        mesh, curves = ORDER_MESHES[draw(st.sampled_from(sorted(ORDER_MESHES)))]()
    return relabelled(mesh, curves, draw(st.integers(0, 2**32 - 1))), curves


@settings(max_examples=40, deadline=None)
@given(relabelled_meshes(), st.sampled_from(MODES), st.integers(1, 3))
def test_mesh_incidences_equal_the_searches_on_relabelled_meshes(setup, mode, k):
    """``edge_tris`` and ``edge_slots`` name each edge's incidences, the
    orientation rule gives the centroid test's normals bit for bit, and the
    DOF signs, the interface copies and the strong mode's identity rows are
    the ones the vertex lookup, the slot search and the dof search give."""
    mesh, curves = setup
    tris, slots = mesh.edge_tris, mesh.edge_slots
    present = tris >= 0
    assert np.array_equal(present, slots >= 0) and present[:, 0].all()
    edge = np.broadcast_to(np.arange(mesh.n_edges)[:, None], tris.shape)
    assert np.array_equal(mesh.tri_edges[tris[present], slots[present]], edge[present])
    interior = present[:, 1]
    assert (tris[interior, 0] < tris[interior, 1]).all()
    assert np.array_equal(np.flatnonzero(~interior), mesh.boundary_edges)
    assert mesh.edge_normal.tobytes() == centroid_normal(mesh).tobytes()

    asm = Assembler(mesh, curves, k, mode=mode)
    assert np.array_equal(asm.dof_sign, dof_sign_by_vertex_lookup(asm))
    el = asm.elements
    assert np.array_equal(el.copies, copies_by_slot_search(mesh))
    eye = np.eye(el.matrix.shape[1], dtype=bool)
    unit = (el.matrix == eye).all(axis=2) & (el.matrix == eye).all(axis=1)  # (n_cls, N)
    identity_rows = np.nonzero(unit[el.cls])
    expected = constrained_local_dofs(asm)
    assert all(np.array_equal(a, b) for a, b in zip(identity_rows, expected))
    assert (len(expected[0]) > 0) == (mode == "uncorrected-strong")


@settings(max_examples=25, deadline=None)
@given(relabelled_meshes(), st.sampled_from(MODES), st.integers(1, 3))
def test_classes_come_largest_first_and_partition_the_elements_as_by_key(setup, mode, k):
    """The classes are the key-order classes of ``key_classes``, the same
    partition of the elements, renumbered largest first with ties in key
    order.  ``ElementBlocks.rounds`` runs R rounds, R the first minimum of
    R plus the number of classes with more than R elements: round r is the
    r-th element of every class with more than r elements, classes in
    order, elements by index; then tail c, the rest of class c by index, for
    each class with more than R elements, in class order."""
    mesh, curves = setup
    asm = Assembler(mesh, curves, k, mode=mode)
    cls, by_key = asm.elements.cls, key_classes(asm)
    n_cls = cls.max() + 1
    key_of = np.full(n_cls, -1)
    key_of[cls] = by_key
    assert by_key.max() + 1 == n_cls and np.array_equal(key_of[cls], by_key)
    size = np.bincount(cls)
    assert np.array_equal(np.lexsort((key_of, -size)), np.arange(n_cls))
    order, flip, sizes, tails = asm.elements.rounds
    assert np.array_equal(flip, asm.elements.flip[order])
    calls = [r + np.sum(size > r) for r in range(size[0] + 1)]
    n_rounds = calls.index(min(calls))
    assert np.array_equal(sizes, [np.sum(size > r) for r in range(n_rounds)])
    assert np.array_equal(tails, size[size > n_rounds] - n_rounds)
    parts = np.split(order, np.cumsum(np.concatenate([sizes, tails]))[:-1])
    members = [np.flatnonzero(cls == c) for c in range(n_cls)]
    assert np.array_equal(asm.elements.rep, [m[0] for m in members])
    assert all(np.array_equal(part, [members[c][r] for c in range(len(part))])
               for r, part in enumerate(parts[:n_rounds]))
    assert all(np.array_equal(part, members[c][n_rounds:])
               for c, part in enumerate(parts[n_rounds:]))
    # the class fixes which edges are interior: the solver keys the leaves
    # of its tree on the class alone
    interior = asm.mesh.edge_tris[asm.mesh.tri_edges, 1] >= 0
    assert np.array_equal(interior, interior[[m[0] for m in members]][cls])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda w: st.lists(
    st.lists(st.integers(-1, 1), min_size=w, max_size=w), min_size=1, max_size=40)))
@example([[2]])
@example([[0, 5]] * 7)
def test_classes_number_equal_rows_largest_first_ties_in_key_order(rows):
    """``assembly.classes`` against a dict grouping of the rows: the same
    partition, classes by size descending, equal sizes in key order (tuple
    order, column 0 first), and each class's ``rep`` its lowest row."""
    cls, rep = assembly.classes(np.array(rows, dtype=np.int64))
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(tuple(row), []).append(i)
    expected = [members for _, members in sorted(groups.items(), key=lambda g: (-len(g[1]), g[0]))]
    found = [np.flatnonzero(cls == c).tolist() for c in range(len(rep))]
    assert found == expected and cls.max() + 1 == len(rep)
    assert rep.tolist() == [members[0] for members in expected]


def _shuffled(domain, level):
    """A refined mesh with its triangles in a shuffled order: no tree order."""
    mesh, curves = _refined(domain, level)
    perm = np.random.default_rng(level).permutation(mesh.n_triangles)
    return _build_mesh(mesh.vertices, mesh.triangles[perm], curves, level=level), curves


INTERFACE_SETUPS = [
    *[pytest.param(domain, level, k, m, "corrected", id=f"{domain.__name__}-L{level}-k{k}-m{m}")
      for domain in (disk_domain, ring_domain) for level in range(3) for k in (1, 2, 3)
      for m in sorted({k, 0})],
    *[pytest.param(disk_domain, level, k, None, "uncorrected-strong",
                   id=f"disk_domain-L{level}-k{k}-strong")
      for level in range(3) for k in (1, 2, 3)],
]


def _interface_input(mesh, curves, k, m=None, mode="corrected"):
    el = Assembler(mesh, curves, k, m=m, mode=mode).elements
    return (el, np.linalg.inv(el.matrix), *ordered_table(el))


def check_interface_is_the_coo_build(mesh, curves, k, m=None, mode="corrected"):
    """The tree factor factors the COO build of the interface matrix: its
    solve of a random load is that matrix's direct solve to round-off, over
    every interior-edge multiplier and theta, and its fill is the closed
    form of the fronts' sizes."""
    args = _interface_input(mesh, curves, k, m, mode)
    fronts = interface_fronts(*args)
    assert fronts.n == (k + 1) * len(args[2]) + 1
    assert fronts.fill == front_fill(mesh, k)
    check_solves(fronts, interface_coo(*args), np.random.default_rng(fronts.n).standard_normal(fronts.n))


@pytest.mark.parametrize("domain,level,k,m,mode", INTERFACE_SETUPS)
def test_interface_matrix_is_the_coo_build(domain, level, k, m, mode):
    check_interface_is_the_coo_build(*_refined(domain, level), k, m, mode)


@pytest.mark.parametrize("setup", [
    pytest.param(lambda: _shuffled(disk_domain, 2), id="shuffled-disk-L2"),
    pytest.param(lambda: _shuffled(ring_domain, 1), id="shuffled-ring-L1"),
    pytest.param(lambda: _refined(lambda: disk_domain(radius=100.0), 2), id="disk-radius-100-L2"),
    pytest.param(ORDER_MESHES["unit-square"], id="unit-square"),
    pytest.param(ORDER_MESHES["single-triangle"], id="single-triangle"),
])
def test_interface_matrix_is_the_coo_build_on_any_mesh(setup):
    """Triangles in no tree order, theta's scaling on a large disk (its row
    and column times a power of two), corner triangles with two boundary
    edges, and a mesh with no interior edge (theta alone, in the root)."""
    mesh, curves = setup()
    for k in (1, 3):
        check_interface_is_the_coo_build(mesh, curves, k)


def _traced(build):
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _factor_bound(el, inv, tris, slots, fronts):
    """What the tree factorization may hold at its peak: what it keeps
    (its copy of the class inverses, the blocks of every pattern of
    fronts, and the dofs and signs of every front), its input (the class
    blocks G~^T L^^-1 G~ and room for each element's signed copy, the
    leaves, which the factor signs a batch of fronts at a time), half the
    largest bit's Schur complements, counted over all its fronts, and one
    batch of fronts.  Measured with batches of 2**12 entries, the peak
    above the kept factor and the input is 0.15 (disk level 3) and -0.08
    (ring level 2) of those Schur complements: the factor holds one per
    pattern, each freed as soon as the fronts above it are built.  With
    one per front, before the factor was per pattern, it was 0.54 and
    0.44, and 1.24 and 0.99 with one Schur buffer per bit, freed only when
    its last parent is built."""
    ne = 3 * isqrt(el.udofs.shape[1])
    kept = fronts.inv.nbytes + sum(a.nbytes for level in fronts.levels for a in level)
    bits = list(solver._tree(el, tris, slots))
    schur = max(len(bit.fronts) * (bit.f - bit.s) ** 2 * 8 for bit in bits)
    batch = max(solver.FRONT_CHUNK, max((bit.f + 1) ** 2 for bit in bits)) * 8
    blocks = (len(inv) + len(el.cls)) * (ne + 1) ** 2 * 8
    return kept + blocks + schur // 2 + batch


@pytest.mark.parametrize("domain,level", [(disk_domain, 3), (ring_domain, 2)])
def test_interface_build_holds_its_result_the_class_blocks_and_one_chunk(
        monkeypatch, domain, level):
    """The traced peak of the tree factorization stays within
    ``_factor_bound``.  The batch is made small, so that the bound is far
    below the dense interface matrix; a dense build exceeds it, and so did
    factoring each bit in one batch and keeping each bit's Schur
    complements in one buffer."""
    monkeypatch.setattr(solver, "FRONT_CHUNK", 2**12)
    el, inv, tris, slots = _interface_input(*_refined(domain, level), 3)
    fronts, peak = _traced(lambda: solver._Fronts(el, inv, tris, slots))
    bound = _factor_bound(el, inv, tris, slots, fronts)
    assert peak <= bound
    assert bound < fronts.n**2 * 8 / 8
    assert _traced(lambda: interface_coo(el, inv, tris, slots).toarray())[1] > bound


@pytest.mark.parametrize("domain,level,case",
                         [(disk_domain, 3, case_circle), (ring_domain, 2, case_ring)])
def test_solve_holds_the_class_inverses_the_factor_and_a_few_element_arrays(
        monkeypatch, domain, level, case):
    """The traced peak of a whole solve, refinement steps included, stays
    within the class inverses, ``_factor_bound`` of its tree factor (which
    counts the factor's copy of them: both exist while it is built) and
    four (nel, nd + npr) element arrays: the round-order arrays are built
    after the factor, and the applies hold a few element arrays each.  An
    apply that gathers its blocks 256 elements at a time (1.4 MB at k=3)
    exceeds it."""
    monkeypatch.setattr(solver, "FRONT_CHUNK", 2**12)
    mesh, curves = _refined(domain, level)
    system = Assembler(mesh, curves, 3).system(case())
    el = system.elements
    (*_, rep), peak = _traced(lambda: solve(system))
    assert rep.success
    hybrid = solver._Hybrid(system)
    tris, slots = ordered_table(el)
    factor = _factor_bound(el, hybrid.inv, tris, slots, hybrid.fronts)
    bound = hybrid.inv.nbytes + factor + 4 * el.flip.nbytes
    assert peak <= bound


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
    come out element-major, the blocks match the loop's block of the class
    representative, signed for the element, the loop's own block to within
    the class's round-off spread, and every element's DOF matrix is the
    diagonal of its signs."""
    curves = ring_domain()
    mesh = coarse_mesh(curves)
    for _ in range(levels):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k)
    nel, t = mesh.n_triangles, asm.tables
    assert nel == 2 ** (5 + 2 * levels)
    g = np.einsum("eba,ebc->eac", asm.jac, asm.jac)
    assert assembly._contract(g, t.s_mass).flags.c_contiguous
    blocks, dof = element_blocks(asm)
    el, norm = asm.elements, np.linalg.norm(blocks, axis=(1, 2))
    of_rep = of_representatives(el, blocks)
    assert np.all(np.linalg.norm(expand(el) - of_rep, axis=(1, 2)) <= 1e-14 * norm)
    assert np.all(np.linalg.norm(of_rep - blocks, axis=(1, 2)) <= 1e-13 * norm)
    assert np.abs(dof - asm.dof_sign[:, :, None] * np.eye(t.element.dim)).max() <= 1e-12


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


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# finite values whose products cannot overflow, signed zeros drawn often
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e150, 1e150))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4), st.data())
def test_length_2_contractions_equal_einsum_bit_for_bit(n, q, d, data):
    """``_matvec2`` and ``dot2`` give the bits of the einsums they stand
    for, signed zeros included, in every broadcast pattern the program
    uses: (n,1,2,2) x (q,2) (element maps of reference points),
    (n,1,2,2) x (n,q,2) (inverse maps of physical points and of nu), J^T J,
    and the dot products of the normal traces and the Neumann data."""
    arrays = lambda *shape: data.draw(hnp.arrays(np.float64, shape, elements=_VALUES))
    m, x, y = arrays(n, 2, 2), arrays(q, 2), arrays(n, q, 2)
    assert _same_bits(assembly._matvec2(m[:, None], x), np.einsum("eab,qb->eqa", m, x))
    assert _same_bits(assembly._matvec2(m[:, None], y), np.einsum("bac,bqc->bqa", m, y))
    mt = m.transpose(0, 2, 1)
    assert _same_bits(assembly._matvec2(mt[:, None], mt), np.einsum("eba,ebc->eac", m, m))
    t = arrays(n, q, d, 2)
    assert _same_bits(dot2(t, y[:, :, None, :]), np.einsum("bq...a,bqa->bq...", t, y))
    assert _same_bits(dot2(x, y[0]), np.einsum("na,na->n", x, y[0]))


@pytest.mark.parametrize("domain,level", [(disk_domain, 2), (ring_domain, 1)])
def test_physical_points_equal_the_einsum_map(domain, level):
    curves = domain()
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, 3)
    for rule in (asm.tables.vol, asm.tables.err):
        expected = asm.v0[:, None, :] + np.einsum("eab,qb->eqa", asm.jac, rule.points)
        assert _same_bits(asm.physical_points(rule.points), expected)


@pytest.mark.parametrize("domain,level", [(disk_domain, 2), (ring_domain, 1)])
def test_piola_map_equals_the_einsum_map(domain, level):
    """``Assembler.piola`` and ``ShapeFunctions.eval`` give the bits of the
    einsum form, signed zeros included.  The batched ``matmul`` that both
    replaced, v @ J^T / det, fuses each multiply-add in BLAS, so no
    product-then-sum form has its bits: it differs in the last bit of about
    a fifth of the entries, within 4 eps of |J| |v| / det (1.7 eps measured
    on these meshes and disk level 4)."""
    curves = domain()
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, 3)
    v = np.random.default_rng(level).standard_normal((mesh.n_triangles, 25, 2))
    v[:, ::5] = 0.0
    v[:, 1::5] = -0.0
    det = asm.det[:, None, None]
    values = asm.piola(v)
    assert _same_bits(values, np.einsum("eab,eqb->eqa", asm.jac, v) / det)
    # the shape functions, at the volume nodes, take the same map
    shapes = ShapeFunctions(asm, np.arange(mesh.n_triangles))
    points = asm.physical_points(asm.tables.vol.points)
    ref = asm.tables.element.tabulate(shapes._reference(points).reshape(-1, 2))
    ref = ref.reshape(points.shape[:2] + ref.shape[1:])
    mapped = np.einsum("eab,eqnb->eqna", asm.jac, ref) / det[..., None]
    assert _same_bits(shapes.eval(points), mapped * asm.dof_sign[:, None, :, None])
    fused = v @ asm.jac.transpose(0, 2, 1) / det
    scale = (np.abs(v) @ np.abs(asm.jac).transpose(0, 2, 1)) / det
    assert np.all(np.abs(values - fused) <= 4 * 2.0**-52 * scale)


@settings(max_examples=30, deadline=None)
@given(random_domains(), st.sampled_from(MODES), st.integers(1, 3), st.integers(0, 2), st.booleans())
def test_loads_and_error_norms_equal_the_einsum_forms(curves, mode, k, level, ring_data):
    """The GEMM loads and the GEMV error norms are the einsum forms of
    ``oracles`` with their sums in another order: every load entry within
    1e-13 of the load's largest, every norm within 1e-12 relative, on the
    discrete solution (the ring's data has inhomogeneous Neumann loads;
    strong mode takes homogeneous data alone)."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    case = case_ring() if ring_data and mode == "corrected" else case_circle()
    asm = Assembler(mesh, curves, k, mode=mode)
    for load, expected in zip(asm.rhs(case), einsum_loads(asm, case)):
        assert np.abs(load - expected).max() <= 1e-13 * np.abs(expected).max()
    u, p, _, _ = solve(asm.system(case))
    err = error_norms(u, p, case, asm)
    norms = (err.e_u_hdiv, err.e_penalty, err.e_u_0h, err.e_p, err.e_total)
    assert norms == pytest.approx(einsum_error_norms(u, p, case, asm), rel=1e-12, abs=0.0)


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
        v0 = local_field(asm, t0, w[t0]).eval(pts) @ n
        v1 = local_field(asm, t1, w[t1]).eval(pts) @ n
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
    from bdmdarcy.solver import solve

    k = 2
    case = case_polynomial_square(k)
    mesh = unit_square_mesh(2)
    asm = Assembler(mesh, square_domain(), k=k)
    u, p, lam, rep = solve(asm.system(case))
    assert rep.success
    err = error_norms(u, p, case, asm)
    assert err.e_total <= 1e-9


@st.composite
def accepted_domains(draw):
    """A disk or a ring from the geometry the CLI accepts: radii in
    [0.01, 100] (drawn by decade), centre in [-100, 100]^2 and
    r_inner / r_outer <= 0.9."""
    center = tuple(draw(st.floats(-100.0, 100.0)) for _ in range(2))
    if draw(st.booleans()):
        return disk_domain(center=center, radius=10.0 ** draw(st.floats(-2.0, 2.0)))
    r_outer = 10.0 ** draw(st.floats(np.log10(0.01 / 0.9), 2.0))
    r_inner = min(10.0 ** draw(st.floats(-2.0, np.log10(0.9 * r_outer))), 0.9 * r_outer)
    return ring_domain(center=center, r_inner=r_inner, r_outer=r_outer)


def residual_floor(system, x):
    """eps || |M| |x| || / ||b||: the round-off of the relative residual of x
    itself, which no double-precision solve can go below."""
    norm_b = np.linalg.norm(system.rhs)
    scale = np.linalg.norm(abs(system.matrix) @ abs(x))
    return np.finfo(float).eps * scale / norm_b if norm_b > 0 else 0.0


@settings(max_examples=40, deadline=None)
@given(accepted_domains(), st.integers(1, 3), st.integers(0, 1))
@example(ring_domain(center=(0.0, 8.0), r_inner=0.018, r_outer=0.032), 3, 0)
def test_patch_test_on_curved_domains(curves, k, level):
    """Polynomial data inside the discrete spaces (p of degree k-1, u = -grad
    p of degree k-2 <= m = k) is reproduced to round-off on disks and rings
    over the whole accepted geometry.  The solve meets the residual contract
    unless the data's own residual floor is above it: large rings with a
    small hole reach 4e-10 there (r_outer = 100, r_inner = 1, k = 2), and
    then the residual is at that floor.  The pressure mean is zero with the
    elements' own integrals, also where congruent boundary owners share a
    class (the example: 5 classes for 32 elements; with the
    representatives' integrals in the border row it read 1.4e-14)."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k)
    case = case_polynomial_square(k)
    system = asm.system(case)
    u, p, theta, rep = solve(system)
    floor = residual_floor(system, np.concatenate([u, p, [theta]]))
    assert rep.residual <= max(solver.RESIDUAL_CONTRACT, floor)
    # the border row c.p = gauge (= 0) is the only pressure normalisation
    c = asm.pressure_integrals()
    assert abs(c @ p) <= 1e-14 * (abs(c) @ abs(p))
    err = error_norms(u, p, case, asm).e_total
    if k == 1:  # u = 0 and p is constant: an absolute bound
        assert err <= 1e-10
    else:
        zero = error_norms(np.zeros_like(u), np.zeros_like(p), case, asm).e_total
        assert err <= 1e-9 * zero


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: the operator's round-off sets the error floor")
def test_patch_test_on_the_ring_of_radii_100_and_0_01():
    """The known failure of ``test_patch_test_on_curved_domains``, which
    random draws seldom reach: the ring of radii 100 and 0.01 about the
    origin, k = 2, level 0.  ``err`` reads 3.4e-5 against the bound 8.8e-6
    (1e-9 of the zero solution's error), with the relative residual at
    1.9e-8, below that system's floor of 8.4e-8: no double-precision solve
    of the assembled operator meets the bound there (ROADMAP item 8)."""
    curves = ring_domain(center=(0.0, 0.0), r_inner=0.01, r_outer=100.0)
    test_patch_test_on_curved_domains.hypothesis.inner_test(curves, 2, 0)


def test_patch_test_taylor_order_below_the_velocity_degree_is_sharp():
    """With m = 0 < deg u = 1 (k = 3) the boundary transfer is not exact for
    the patch data: the error stays far above round-off and decreases
    under refinement (0.374, 0.126, 0.0448 at levels 0..2)."""
    curves = disk_domain()
    case = case_polynomial_square(3)
    mesh = coarse_mesh(curves)
    errors = []
    for _ in range(3):
        asm = Assembler(mesh, curves, 3, m=0)
        u, p, _, rep = solve(asm.system(case))
        assert rep.success
        errors.append(error_norms(u, p, case, asm).e_total)
        mesh = refine_project(mesh, curves)
    assert errors[0] > errors[1] > errors[2] > 1e-2


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
    assert tables.vol.degree >= 2 * k + 2 and len(tables.bnd_rule.weights) == k + 3
