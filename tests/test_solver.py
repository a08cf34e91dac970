"""Linear solver contracts: residuals, named failures, gauge handling."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy.analysis import case_circle, case_ring
from bdmdarcy.assembly import Assembler, SaddleSystem
from bdmdarcy import cli, solver
from bdmdarcy.cli import StudyConfig
from bdmdarcy.mesh import _build_mesh, coarse_mesh, disk_domain, refine_project, ring_domain
from bdmdarcy.solver import solve
from domains import (
    case_polynomial_square,
    single_triangle_mesh,
    square_domain,
    triangle_domain,
    unit_square_mesh,
)
from oracles import (
    constant_pressure,
    front_fill,
    hybrid_apply_per_dof,
    interface_coo,
    interface_fronts,
    kept_entries,
    ordered_table,
    per_dof_multipliers,
    random_domains,
    relabelled,
)


def small_system(setup, k):
    """An assembled system of one of four small setups: disk level 1, ring
    level 0, disk level 1 in strong mode, and the 2x2 unit square (its
    corner triangles have two boundary edges)."""
    if setup == "square":
        asm = Assembler(unit_square_mesh(2), square_domain(), k=k)
        return asm.system(case_polynomial_square(k))
    curves = ring_domain() if setup == "ring" else disk_domain()
    mesh = coarse_mesh(curves)
    if setup != "ring":
        mesh = refine_project(mesh, curves)
    mode = "uncorrected-strong" if setup == "disk-strong" else "corrected"
    asm = Assembler(mesh, curves, k=k, mode=mode)
    return asm.system(case_ring() if setup == "ring" else case_circle())


SMALL = [(setup, k) for setup in ("disk", "ring", "disk-strong", "square") for k in (1, 2, 3)]


def solve_vector(system, rhs):
    u, p, theta, rep = solve(system, rhs)
    return np.concatenate([u, p, [theta]]), rep


@pytest.mark.parametrize("setup,k", SMALL)
def test_recovers_manufactured_solution(setup, k):
    system = small_system(setup, k)
    x_star = np.random.default_rng(31).standard_normal(system.dimension)
    x, rep = solve_vector(system, system.matvec(x_star))
    assert rep.method == "lu" and rep.success and rep.residual <= 1e-12
    assert np.abs(x - x_star).max() <= 1e-10 * np.abs(x_star).max()


@pytest.mark.parametrize("setup,k", SMALL)
def test_against_dense_oracle(setup, k):
    system = small_system(setup, k)
    rhs = system.matvec(np.random.default_rng(7).standard_normal(system.dimension))
    x, rep = solve_vector(system, rhs)
    expected = np.linalg.solve(system.matrix.toarray(), rhs)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


def disk_setup(levels=2, k=2):
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    for _ in range(levels):
        mesh = refine_project(mesh, curves)
    return Assembler(mesh, curves, k=k)


def test_disk_residual_contract():
    asm = disk_setup()
    u, p, lam, rep = solve(asm.system(case_circle()))
    assert rep.success
    assert rep.residual <= 1e-10


def test_refinement_step_meets_contract_at_disk_level5():
    # unrefined, the local blocks' conditioning leaves a residual of ~4e-10
    asm = disk_setup(levels=5, k=3)
    _, _, _, rep = solve(asm.system(case_circle()))
    assert rep.method == "lu" and rep.residual <= 1e-12


def test_auto_solve_factors_once_without_krylov(monkeypatch):
    """A solve factors the interface once, on the refinement tree, and its
    refinement steps reuse that factor: no Krylov iteration."""
    system = disk_setup(levels=2, k=3).system(case_circle())
    built, real = [], solver._Fronts
    monkeypatch.setattr(solver, "_Fronts", lambda *args: built.append(real(*args)) or built[-1])
    _, _, _, rep = solve(system)
    assert len(built) == 1 and rep.method == "lu" and rep.iterations == 0
    assert rep.fill == built[0].fill


def test_report_gives_interface_size_and_repeatable_fill():
    asm = disk_setup(levels=2, k=3)
    system = asm.system(case_circle())
    rep1, rep2 = solve(system)[3], solve(system)[3]
    n_interior_edges = int(np.sum(asm.mesh.edge_tris[:, 1] >= 0))
    assert rep1.n_interface == (asm.k + 1) * n_interior_edges + 1
    assert rep1.fill > 0 and rep1.fill == rep2.fill


def test_fill_counts_the_logical_entries_of_the_fronts():
    """fill is sum over the fronts of s^2 + 2 s b, the entries of F11^-1,
    F11^-1 F12 and F21 of every front, without the padding: a front's s
    and b are its separator and boundary dofs that are not padding.  The
    factor keeps those blocks once per pattern of fronts (see
    ``test_kept_factor_is_the_closed_form_over_the_patterns``)."""
    system = disk_setup(levels=2, k=3).system(case_circle())
    fronts = solver._Hybrid(system).fronts
    fill = 0
    for sep, bnd, *_, forward, upper in fronts.levels:
        s, f = sep.shape[1], sep.shape[1] + bnd.shape[1]
        assert forward.shape[1:] == (f, s) and upper.shape[1:] == (s, f - s)
        assert len(forward) == len(upper) <= len(sep)
        s, b = np.sum(sep < fronts.n, axis=1), np.sum(bnd < fronts.n, axis=1)
        fill += int(np.sum(s * s + 2 * s * b))
    assert solve(system)[3].fill == fronts.fill == fill


def test_interface_pattern_keeps_every_block_pair_and_its_zeros():
    """Every (multiplier, multiplier) pair of each element block, and theta
    with each of them, meets in the front that eliminates the first of the
    two, so the dense fronts hold every entry of the interface matrix, the
    pairs whose sum is exactly 0.0 included."""
    el = disk_setup(levels=2, k=3).elements
    tris, slots = ordered_table(el)
    fronts = interface_fronts(el, np.linalg.inv(el.matrix), tris, slots)
    n = fronts.n
    held = {}  # multiplier -> the dofs of the front that eliminates it
    for sep, bnd, *_ in fronts.levels:
        for row_s, row_b in zip(sep, bnd):
            dofs = set(np.concatenate([row_s, row_b]).tolist()) - {n}
            held.update((int(i), dofs) for i in row_s[row_s < n])
    assert sorted(held) == list(range(n))
    for multiplier in per_dof_multipliers(el, tris, slots)[0]:
        idx = np.append(multiplier[multiplier >= 0], n - 1)
        assert all(j in held[i] for i in idx for j in idx if i < j)


def test_interface_is_factored_in_its_own_numbering():
    """The multipliers come numbered in nested-dissection order, and the
    fronts eliminate them in that order, theta last: bit by bit, front by
    front, separator dof by separator dof.  ``levels`` keeps each bit's
    fronts in the round order of their patterns, so they are put back in
    the order of their first multiplier."""
    system = disk_setup(levels=2, k=3).system(case_circle())
    fronts = solver._Hybrid(system).fronts
    order = np.concatenate([sep[np.argsort(sep[:, 0])] for sep, *_ in fronts.levels], None)
    assert np.array_equal(order[order < fronts.n], np.arange(fronts.n))


@settings(max_examples=30, deadline=None)
@given(random_domains(), st.sampled_from(("corrected", "uncorrected-strong")), st.integers(1, 3),
       st.integers(0, 2), st.booleans(), st.integers(0, 2**32 - 1))
def test_tree_factor_solves_the_dense_interface(curves, mode, k, level, relabel, seed):
    """On random disks and rings, in the tree numbering of refinement or
    with every triangle, vertex and local vertex relabelled, the tree
    factor's solve of a random load is the dense solve of the COO build of
    the interface matrix to round-off: the same solution to 1e-10 relative
    (these interfaces have condition numbers up to ~1e6), with a backward
    error below 1e-14."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    if relabel:
        mesh = relabelled(mesh, curves, seed)
    el = Assembler(mesh, curves, k=k, mode=mode).elements
    inv = np.linalg.inv(el.matrix)
    tris, slots = ordered_table(el)
    fronts = interface_fronts(el, inv, tris, slots)
    dense = interface_coo(el, inv, tris, slots).toarray()
    g = np.random.default_rng(seed).standard_normal(fronts.n)
    x, expected = fronts.solve(g), np.linalg.solve(dense, g)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()
    scale = np.abs(dense).sum(axis=1).max() * np.abs(x).max() + np.abs(g).max()
    assert np.abs(dense @ x - g).max() <= 1e-14 * scale


@settings(max_examples=25, deadline=None)
@given(random_domains(), st.sampled_from(("corrected", "uncorrected-strong")), st.integers(1, 3),
       st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_per_edge_apply_is_the_per_dof_one_bit_for_bit(curves, mode, k, level, seed):
    """The edge table lists every interior edge once, in ascending order, as
    its two (triangle, local edge) copies with copy 0 on edge_tris[e, 0];
    and the hybridized apply, which gathers and ties the copies edge by
    edge, is the per-dof one bit for bit on a random vector."""
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k=k, mode=mode)
    el = asm.elements
    edges = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    assert el.copies.shape == (len(edges), 2, 2)
    for side in (0, 1):
        tris, slots = el.copies[:, side].T
        assert np.array_equal(mesh.tri_edges[tris, slots], edges)
        assert np.array_equal(tris, mesh.edge_tris[edges, side])
    system = SaddleSystem(np.zeros(asm.dofmap.n_u + el.c.size + 1), el)
    hybrid = solver._Hybrid(system)
    b = np.random.default_rng(seed).standard_normal(system.dimension)
    assert hybrid.apply(b).tobytes() == hybrid_apply_per_dof(system, hybrid, b).tobytes()


def k3_assembler(domain, level):
    """The assembler of the k=3 study's problem at one level."""
    curves = disk_domain() if domain == "disk" else ring_domain()
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    return Assembler(mesh, curves, k=3)


# L.nnz + U.nnz at k=3 under SuperLU's minimum-degree order on A^T + A
MMD_FILL = {("disk", 4): 798_798, ("ring", 3): 894_893}


@pytest.mark.parametrize("domain,level", MMD_FILL)
def test_interface_fill_stays_near_minimum_degree(domain, level):
    """The nested-dissection numbering, in which the fronts eliminate the
    interface, is a good fill-reducing order: SuperLU's factor of the
    interface matrix in that numbering, with no further permutation, fills
    within 10% of minimum degree's (counted as L.nnz + U.nnz like
    MMD_FILL).  The fronts store more (dense separators, see INTERFACE)."""
    el = k3_assembler(domain, level).elements
    matrix = interface_coo(el, np.linalg.inv(el.matrix), *ordered_table(el))
    lu = spla.splu(matrix, permc_spec="NATURAL")
    assert lu.L.nnz + lu.U.nnz <= 1.10 * MMD_FILL[domain, level]


# (interface unknowns, logical front entries) at k=3: an exact count tells a
# changed interface or tree from a changed padding.  SuperLU, which factored
# the interface before the tree, stored 169,410, 879,266, 160,418 and
# 906,210 entries (lu.nnz) here; minimum degree gave L.nnz + U.nnz of
# 798,798 at disk level 4 and 894,893 at ring level 3
INTERFACE = {
    ("disk", 3): (2209, 173_761),
    ("disk", 4): (9025, 915_841),
    ("ring", 2): (2817, 166_913),
    ("ring", 3): (11_777, 953_345),
}


@pytest.mark.parametrize("domain,level", INTERFACE)
def test_interface_size_and_fill_pinned(domain, level):
    case = case_circle() if domain == "disk" else case_ring()
    asm = k3_assembler(domain, level)
    rep = solve(asm.system(case))[3]
    assert rep.success and (rep.n_interface, rep.fill) == INTERFACE[domain, level]
    assert rep.fill == front_fill(asm.mesh, asm.k)


# the patterns of fronts per bit, bits 1 up, at k=3: red refinement repeats
# subtrees, so 1,536/1,536/384/384/96/96/24/24/6/6/3/1/1 fronts at disk
# level 5 and 2,048/2,048/512/512/128/128/32/32/16/8/4/2/1 at ring level 4
# are factored as these few
PATTERNS = {
    ("disk", 5): [72, 73, 33, 33, 12, 13, 4, 5, 1, 2, 2, 1, 1],
    ("ring", 4): [72, 76, 32, 35, 15, 15, 2, 9, 8, 7, 4, 2, 1],
}


@pytest.mark.parametrize("domain,level", [("disk", 3), ("disk", 4), ("disk", 5),
                                          ("ring", 2), ("ring", 3), ("ring", 4)])
def test_kept_factor_is_the_closed_form_over_the_patterns(domain, level):
    """The factor keeps its blocks once per pattern of fronts: the store is
    ``kept_entries``, counted from the mesh and its boundary traces alone;
    each bit's patterns come largest first, each represented by its
    lowest-index front; and at the finest benchmark levels the patterns per
    bit are pinned."""
    asm = k3_assembler(domain, level)
    el = asm.elements
    fronts = interface_fronts(el, np.linalg.inv(el.matrix), *ordered_table(el))
    assert sum(forward.size + upper.size for *_, forward, upper in fronts.levels) == kept_entries(asm)
    for bit in solver._tree(el, *ordered_table(el)):
        assert (np.diff(np.bincount(bit.pat)) <= 0).all()
        assert np.array_equal(bit.rep, np.unique(bit.pat, return_index=True)[1])
    if (domain, level) in PATTERNS:
        assert [len(forward) for *_, forward, _ in fronts.levels] == PATTERNS[domain, level]


def _shuffled(mesh, curves):
    """The mesh with its triangles in a shuffled order: no tree order."""
    perm = np.random.default_rng(mesh.n_triangles).permutation(mesh.n_triangles)
    return _build_mesh(mesh.vertices, mesh.triangles[perm], curves, level=mesh.level)


def _refined(curves, level):
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    return mesh, curves


PATTERN_SETUPS = {
    "disk-L3": lambda: (*_refined(disk_domain(), 3), "corrected"),
    "ring-L2": lambda: (*_refined(ring_domain(), 2), "corrected"),
    "relabelled-disk-L3": lambda: (relabelled(*_refined(disk_domain(), 3), 3), disk_domain(),
                                   "corrected"),
    "shuffled-ring-L2": lambda: (_shuffled(*_refined(ring_domain(), 2)), ring_domain(), "corrected"),
    "strong-disk-L3": lambda: (*_refined(disk_domain(), 3), "uncorrected-strong"),
}


@pytest.mark.parametrize("name", PATTERN_SETUPS)
def test_pattern_factor_solves_the_dense_interface(name):
    """Each front is its pattern's factor with its members' slots and signs:
    the tree factor's solve of a random load is the dense solve of the COO
    build of the interface matrix, which signs every element block by
    itself, to round-off (1e-10 relative; backward error below 1e-14), at
    k=3 on refined meshes, where most fronts share a pattern, on relabelled
    and shuffled ones, where few do, and in strong mode."""
    mesh, curves, mode = PATTERN_SETUPS[name]()
    el = Assembler(mesh, curves, k=3, mode=mode).elements
    inv = np.linalg.inv(el.matrix)
    tris, slots = ordered_table(el)
    fronts = interface_fronts(el, inv, tris, slots)
    dense = interface_coo(el, inv, tris, slots).toarray()
    g = np.random.default_rng(fronts.n).standard_normal(fronts.n)
    x, expected = fronts.solve(g), np.linalg.solve(dense, g)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()
    scale = np.abs(dense).sum(axis=1).max() * np.abs(x).max() + np.abs(g).max()
    assert np.abs(dense @ x - g).max() <= 1e-14 * scale


@pytest.mark.parametrize("k,m", [(k, m) for k in (1, 2, 3) for m in range(k + 1)])
def test_residual_contract_on_disks_of_radius_100(k, m):
    """At the far corners of the accepted geometry the border row c.p =
    gauge has terms of 2.6e12 (k=2); scaled with the domain, it stays at
    round-off of the other rows (see ``assembly``)."""
    for center in [(100.0, 100.0), (100.0, -100.0), (-100.0, 100.0), (-100.0, -100.0)]:
        cfg = StudyConfig(domain="circle", k=k, m=m, center=center, radius=100.0)
        curves, case = cli._domain_curves(cfg), cli._domain_case(cfg)
        mesh = coarse_mesh(curves)
        for level in (0, 1):
            rep = solve(Assembler(mesh, curves, k, m=m).system(case))[3]
            assert rep.success, (center, level, rep.residual)
            mesh = refine_project(mesh, curves)


@pytest.mark.parametrize("k", [8, 9])
def test_residual_contract_on_a_thin_ring_at_high_degree(k):
    """On the ring of radii 0.01 and 0.01112 the first solve leaves a
    residual of 1e-3 at level 0 (the fronts' explicit separator inverses on
    an interface with condition number ~1e9); refinement goes on while
    each step halves the residual, and four steps bring it below 1e-12.
    A single step left 5.4e-10 (k = 8) and 8.1e-8 (k = 9)."""
    cfg = StudyConfig(domain="ring", k=k, m=k, r_inner=0.01, r_outer=0.01112)
    curves, case = cli._domain_curves(cfg), cli._domain_case(cfg)
    rep = solve(Assembler(coarse_mesh(curves), curves, k).system(case))[3]
    assert rep.success and rep.residual <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_triangle_strong_mode(k):
    # every edge is constrained, so the element block loses the constant
    # pressure; at k = 1 it is exactly singular, and the solve says so
    verts = np.array([[0.1, 0.0], [1.2, 0.3], [0.4, 1.0]])
    asm = Assembler(single_triangle_mesh(verts), triangle_domain(verts), k=k,
                    mode="uncorrected-strong")
    system = asm.system(case_circle())
    if k == 1:
        with pytest.raises(RuntimeError, match="^hybridized solve failed: singular element block$"):
            solve(system)
        return
    _, _, _, rep = solve(system)
    assert rep.success and rep.residual <= 1e-10


def test_singular_interface_matrix_is_named():
    """Without the border column c, theta's row and column of the interface
    are exactly zero, so the root front is singular while every element
    block is not."""
    system = disk_setup(levels=1, k=1).system(case_circle())
    el = dataclasses.replace(system.elements, c=np.zeros_like(system.elements.c))
    with pytest.raises(RuntimeError, match="^hybridized solve failed: singular interface matrix$"):
        solve(SaddleSystem(system.rhs, el))


def test_postprocess_mean_zero():
    """The solved pressure has zero mean as it is: the border row c.p = 0 is
    its only normalisation, and nothing shifts it after the solve."""
    asm = disk_setup()
    u, p, lam, rep = solve(asm.system(case_circle()))
    mean = asm.pressure_integrals() @ p / asm.area
    scale = np.abs(p).max()
    assert abs(mean) <= 1e-13 * max(scale, 1.0)


def test_gauge_shift_moves_pressure_by_constant_only():
    asm = disk_setup()
    case = case_circle()
    u1, p1, lam1, rep1 = solve(asm.system(case, gauge=0.0))
    u2, p2, lam2, rep2 = solve(asm.system(case, gauge=1.0))
    assert rep1.success and rep2.success
    # velocity is gauge invariant
    assert np.abs(u1 - u2).max() <= 1e-10 * max(np.abs(u1).max(), 1.0)
    # pressures differ by the constant fixed by the shifted constraint
    diff = p2 - p1
    const = constant_pressure(asm)
    coef = (const @ diff) / (const @ const)
    assert np.abs(diff - coef * const).max() <= 1e-10 * max(np.abs(p1).max(), 1.0)
