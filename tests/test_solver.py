"""Linear solver contracts: residuals, named failures, gauge handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy.analysis import case_circle, case_ring
from bdmdarcy.assembly import Assembler, SaddleSystem
from bdmdarcy import cli, solver
from bdmdarcy.cli import StudyConfig
from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project, ring_domain
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
    hybrid_apply_per_dof,
    ordered_table,
    per_dof_multipliers,
    random_domains,
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
    # the benchmark's speed probe and span tracer hook these two attributes
    system = disk_setup(levels=2, k=3).system(case_circle())
    calls = {"splu": 0, "gmres": 0}
    for name in calls:
        def counted(*args, _real=getattr(solver.spla, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(solver.spla, name, counted)
    _, _, _, rep = solve(system)
    assert calls == {"splu": 1, "gmres": 0}
    assert rep.method == "lu"


def test_report_gives_interface_size_and_repeatable_fill():
    asm = disk_setup(levels=2, k=3)
    system = asm.system(case_circle())
    rep1, rep2 = solve(system)[3], solve(system)[3]
    n_interior_edges = int(np.sum(asm.mesh.edge_tris[:, 1] >= 0))
    assert rep1.n_interface == (asm.k + 1) * n_interior_edges + 1
    assert rep1.fill > 0 and rep1.fill == rep2.fill


def test_fill_is_superlus_count_of_stored_factor_entries():
    system = disk_setup(levels=2, k=3).system(case_circle())
    assert solve(system)[3].fill == solver._Hybrid(system).lu.nnz


def test_interface_pattern_keeps_every_block_pair_and_its_zeros():
    """The interface matrix stores every (multiplier, multiplier) pair of
    each element block and theta's row and column, the pairs whose sum is
    exactly 0.0 included (see ``solver._interface_matrix``)."""
    el = disk_setup(levels=2, k=3).elements
    tris, slots = ordered_table(el)
    n = 4 * len(tris) + 1
    matrix = solver._interface_matrix(el, np.linalg.inv(el.matrix), tris, slots)
    assert np.count_nonzero(matrix.data == 0.0) > 0  # this mesh has such sums
    stored = np.zeros((n, n), dtype=bool)
    stored[matrix.indices, np.repeat(np.arange(n), np.diff(matrix.indptr))] = True
    for multiplier in per_dof_multipliers(el, tris, slots)[0]:
        idx = np.append(multiplier[multiplier >= 0], n - 1)
        assert stored[np.ix_(idx, idx)].all()
    assert stored[-1].all() and stored[:, -1].all()


def test_interface_is_factored_in_its_own_numbering():
    """The multipliers come numbered in nested-dissection order, so SuperLU
    must not reorder the columns."""
    system = disk_setup(levels=2, k=3).system(case_circle())
    perm_c = solver._Hybrid(system).lu.perm_c
    assert np.array_equal(perm_c, np.arange(len(perm_c)))


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


# L.nnz + U.nnz at k=3 under SuperLU's minimum-degree order on A^T + A,
# which factored the interface before the nested-dissection numbering
MMD_FILL = {("disk", 4): 798_798, ("ring", 3): 894_893}


def k3_assembler(domain, level):
    """The assembler of the k=3 study's problem at one level."""
    curves = disk_domain() if domain == "disk" else ring_domain()
    mesh = coarse_mesh(curves)
    for _ in range(level):
        mesh = refine_project(mesh, curves)
    return Assembler(mesh, curves, k=3)


@pytest.mark.parametrize("domain,level", MMD_FILL)
def test_interface_fill_stays_near_minimum_degree(domain, level):
    """The interface factored in its own numbering, as the solve does, with
    its fill counted as L.nnz + U.nnz like MMD_FILL."""
    el = k3_assembler(domain, level).elements
    matrix = solver._interface_matrix(el, np.linalg.inv(el.matrix), *ordered_table(el))
    lu = solver.spla.splu(matrix, permc_spec="NATURAL")
    assert lu.L.nnz + lu.U.nnz <= 1.10 * MMD_FILL[domain, level]


# (interface unknowns, SuperLU's lu.nnz) at k=3 in the nested-dissection
# order: an exact count tells a changed interface from a fill near the guard
# above
INTERFACE = {
    ("disk", 3): (2209, 169_410),
    ("disk", 4): (9025, 879_266),
    ("ring", 2): (2817, 160_418),
    ("ring", 3): (11_777, 906_210),
}


@pytest.mark.parametrize("domain,level", INTERFACE)
def test_interface_size_and_fill_pinned(domain, level):
    case = case_circle() if domain == "disk" else case_ring()
    rep = solve(k3_assembler(domain, level).system(case))[3]
    assert rep.success and (rep.n_interface, rep.fill) == INTERFACE[domain, level]


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


def test_singular_interface_matrix_is_named(monkeypatch):
    system = disk_setup(levels=1, k=1).system(case_circle())

    def splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver.spla, "splu", splu)
    with pytest.raises(RuntimeError, match="^hybridized solve failed: singular interface matrix$"):
        solve(system)


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
