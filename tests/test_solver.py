"""Linear solver contracts: residuals, fallback, gauge handling."""

import numpy as np
import pytest
import scipy.sparse as sp

from bdmdarcy.analysis import case_circle
from bdmdarcy.assembly import Assembler, SaddleSystem
from bdmdarcy import solver
from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project
from bdmdarcy.solver import postprocess_pressure, solve


def toy_system(matrix, rhs, n_u=None):
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    return SaddleSystem(matrix, rhs, n_u if n_u is not None else n - 1, 0,
                        pressure_mass_diag=np.ones(0))


def test_identity_system():
    n = 20
    rhs = np.zeros(n)
    rhs[0] = 1.0
    system = toy_system(sp.eye(n), rhs)
    u, p, lam, rep = solve(system)
    assert rep.success and rep.residual <= 1e-14
    x = np.concatenate([u, p, [lam]])
    assert np.abs(x - rhs).max() == 0.0


def test_random_indefinite_against_dense_oracle():
    rng = np.random.default_rng(31)
    n = 50
    m = rng.standard_normal((n, n))
    m = m + m.T  # symmetric indefinite, generically nonsingular
    rhs = rng.standard_normal(n)
    system = toy_system(m, rhs)
    u, p, lam, rep = solve(system, method="direct")
    x = np.concatenate([u, p, [lam]])
    expected = np.linalg.solve(m, rhs)
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


def test_iterative_path_matches_direct():
    asm = disk_setup(levels=2, k=1)
    system = asm.system(case_circle())
    u1, p1, _, rep1 = solve(system, method="direct")
    u2, p2, _, rep2 = solve(system, method="iterative")
    assert rep1.success and rep2.success
    assert rep2.iterations > 0
    scale = np.abs(u1).max()
    assert np.abs(u1 - u2).max() <= 1e-9 * scale


def test_failed_factorization_falls_back_to_gmres(monkeypatch):
    system = disk_setup(levels=2, k=1).system(case_circle())
    u_direct, _, _, _ = solve(system, method="direct")
    real_splu = solver.spla.splu
    calls = []

    def splu(matrix, *args, **kwargs):
        # only the saddle factorization fails; the velocity-block
        # preconditioner of the fallback still factors
        calls.append(matrix.shape)
        if len(calls) == 1:
            raise MemoryError("out of memory in the saddle factorization")
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", splu)
    u, _, _, rep = solve(system)
    assert len(calls) == 2
    assert rep.method == "lu+gmres"
    assert rep.success and rep.iterations > 0
    assert np.abs(u - u_direct).max() <= 1e-9 * np.abs(u_direct).max()


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
