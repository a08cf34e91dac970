"""Linear solver contracts: residuals, named failures, gauge handling."""

import numpy as np
import pytest

from bdmdarcy.analysis import case_circle, case_polynomial_square, case_ring
from bdmdarcy.assembly import Assembler
from bdmdarcy import solver
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
from bdmdarcy.solver import postprocess_pressure, solve


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


def test_postprocess_constant_pressure_to_zero():
    asm = disk_setup(levels=1, k=1)
    p = 3.7 * asm.constant_pressure()
    shifted = postprocess_pressure(p, asm)
    assert np.abs(shifted).max() <= 1e-13


def test_postprocess_mean_zero():
    asm = disk_setup()
    u, p, lam, rep = solve(asm.system(case_circle()))
    p0 = postprocess_pressure(p, asm)
    mean = asm.pressure_integrals() @ p0 / asm.area
    scale = np.abs(p0).max()
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
    const = asm.constant_pressure()
    coef = (const @ diff) / (const @ const)
    assert np.abs(diff - coef * const).max() <= 1e-10 * max(np.abs(p1).max(), 1.0)
