"""End-to-end acceptance checks.

Convergence studies run through the CLI orchestration (run_study); the
structural identities exercise the library directly.  Each check prints one
pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``).  The
study-based checks at the finest levels take a few minutes each.
"""

import numpy as np
import pytest

from bdmdarcy.analysis import case_circle, compute_eoc, error_norms
from bdmdarcy.assembly import Assembler, ShapeFunctions
from bdmdarcy.cli import StudyConfig, run_study
from bdmdarcy.correction import taylor_trace
from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project, ring_domain
from bdmdarcy.solver import solve
from domains import (
    case_polynomial_square,
    check_geometry_assumption,
    square_domain,
    unit_square_mesh,
)
from oracles import constant_pressure, interpolate_velocity, norm_0h, project_pressure_global

DISK_LEVELS = (3, 6)  # finest level: 24576 triangles
RING_LEVELS = (1, 4)  # finest level: 8192 triangles

_study_cache = {}


def study(domain, k, m, mode, levels):
    key = (domain, k, m, mode, levels)
    if key not in _study_cache:
        cfg = StudyConfig()
        cfg.domain, cfg.k, cfg.m, cfg.mode = domain, k, m, mode
        cfg.level_first, cfg.level_last = levels
        _study_cache[key] = run_study(cfg)
    return _study_cache[key]


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def last_two_eoc(rows):
    errors = [r["E_total"] for r in rows]
    hs = [r["h"] for r in rows]
    return compute_eoc(errors, hs)[-2:]


def mesh_hierarchy(curves, levels):
    mesh = coarse_mesh(curves)
    out = {}
    for lvl in range(max(levels) + 1):
        if lvl > 0:
            mesh = refine_project(mesh, curves)
        if lvl in levels:
            out[lvl] = mesh
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_01_corrected_disk_optimal_order(k):
    rows = study("circle", k, k, "corrected", DISK_LEVELS)
    eocs = last_two_eoc(rows)
    ok = all(k - 0.25 <= e <= k + 0.45 for e in eocs)
    report(
        f"criterion 1 (corrected disk, k={k}, m={k})",
        ok,
        f"last EOCs {[round(e, 3) for e in eocs]} within [{k - 0.25}, {k + 0.45}]; "
        f"finest E_total {rows[-1]['E_total']:.3e}",
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_02_uncorrected_disk_suboptimal(k):
    rows = study("circle", k, k, "uncorrected-strong", DISK_LEVELS)
    errors = [r["E_total"] for r in rows]
    hs = [r["h"] for r in rows]
    eoc = compute_eoc(errors, hs)[-1]
    ok = 0.3 <= eoc <= 0.7
    detail = f"last EOC {eoc:.3f} within [0.3, 0.7]"
    if k == 3:
        corrected = study("circle", 3, 3, "corrected", DISK_LEVELS)
        ratio = rows[-1]["E_total"] / corrected[-1]["E_total"]
        ok = ok and ratio >= 1e3
        detail += f"; uncorrected/corrected ratio {ratio:.1e} >= 1e3"
    report(f"criterion 2 (uncorrected disk, k={k})", ok, detail)


@pytest.mark.parametrize("k,m", [(1, 0), (2, 1), (3, 1)])
def test_criterion_03_reduced_taylor_order(k, m):
    rows = study("circle", k, m, "corrected", DISK_LEVELS)
    eocs = last_two_eoc(rows)
    ok = all(k - 0.25 <= e <= k + 0.45 for e in eocs)
    report(
        f"criterion 3 (corrected disk, k={k}, m={m})",
        ok,
        f"last EOCs {[round(e, 3) for e in eocs]} within [{k - 0.25}, {k + 0.45}]",
    )


@pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (3, 3), (1, 0), (2, 1), (3, 1)])
def test_criterion_04_ring_optimal_order(k, m):
    rows = study("ring", k, m, "corrected", RING_LEVELS)
    errors = [r["E_total"] for r in rows]
    hs = [r["h"] for r in rows]
    eoc = compute_eoc(errors, hs)[-1]
    ok = k - 0.2 <= eoc <= k + 0.3
    report(
        f"criterion 4 (ring, k={k}, m={m})",
        ok,
        f"last EOC {eoc:.3f} within [{k - 0.2}, {k + 0.3}]",
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_05_commuting_diagram(k):
    curves = disk_domain()
    mesh = mesh_hierarchy(curves, (2,))[2]
    asm = Assembler(mesh, curves, k=k)
    t = asm.tables
    rng = np.random.default_rng(100 + k)
    exps = [(a, d - a) for d in range(k + 3) for a in range(d + 1)]
    worst = 0.0
    for _ in range(50):
        coeff = rng.standard_normal((2, len(exps)))

        def field(x, coeff=coeff):
            x = np.atleast_2d(x)
            mono = np.stack([x[:, 0] ** a * x[:, 1] ** b for a, b in exps], axis=1)
            return mono @ coeff.T

        def div_field(x, coeff=coeff):
            x = np.atleast_2d(x)
            out = np.zeros(len(x))
            for c0, c1, (a, b) in zip(coeff[0], coeff[1], exps):
                if a:
                    out += c0 * a * x[:, 0] ** (a - 1) * x[:, 1] ** b
                if b:
                    out += c1 * b * x[:, 0] ** a * x[:, 1] ** (b - 1)
            return out

        u_i = interpolate_velocity(asm, field)
        p_i = project_pressure_global(asm, div_field).reshape(mesh.n_triangles, -1)
        w = asm.local_coeffs(u_i)
        div_vals = np.einsum("en,qn->eq", w, t.v_div_err) / asm.det[:, None]
        proj_vals = np.einsum("el,ql->eq", p_i, t.p_vals_err)
        pts = asm.v0[:, None, :] + np.einsum("eab,qb->eqa", asm.jac, t.err.points)
        dv = div_field(pts.reshape(-1, 2)).reshape(div_vals.shape)
        err_k = np.sqrt(
            asm.det * np.einsum("q,eq->e", t.err.weights, (div_vals - proj_vals) ** 2)
        )
        ref_k = np.sqrt(asm.det * np.einsum("q,eq->e", t.err.weights, dv**2))
        worst = max(worst, float((err_k / ref_k).max()))
    ok = worst <= 1e-10
    report(
        f"criterion 5 (commuting diagram, k={k})",
        ok,
        f"max elementwise relative defect {worst:.2e} <= 1e-10 "
        f"(50 random smooth fields, {mesh.n_triangles} elements)",
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_06_coercivity_identity(k):
    curves = disk_domain()
    mesh = mesh_hierarchy(curves, (2,))[2]
    asm = Assembler(mesh, curves, k=k)
    a = asm.matrix_a()
    rng = np.random.default_rng(200 + k)
    worst = 0.0
    for _ in range(50):
        v = rng.standard_normal(asm.dofmap.n_u)
        quad = float(v @ (a @ v))
        direct = norm_0h(asm, v) ** 2
        worst = max(worst, abs(quad - direct) / direct)
    ok = worst <= 1e-12
    report(
        f"criterion 6 (coercivity identity, k={k})",
        ok,
        f"max relative defect {worst:.2e} <= 1e-12 (50 random fields)",
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_07_constant_pressure_nullity(k):
    curves = disk_domain()
    mesh = mesh_hierarchy(curves, (2,))[2]
    asm = Assembler(mesh, curves, k=k)
    b1, _ = asm.matrix_b()
    ones = constant_pressure(asm)
    rng = np.random.default_rng(300 + k)
    worst = 0.0
    for _ in range(50):
        v = rng.standard_normal(asm.dofmap.n_u)
        val = abs(float(ones @ (b1 @ v)))
        bound = 1e-12 * norm_0h(asm, v) * np.sqrt(asm.area)
        worst = max(worst, val / bound)
    ok = worst <= 1.0
    report(
        f"criterion 7 (constant-pressure nullity, k={k})",
        ok,
        f"max |b_h1(v,1)| at {worst:.2e} of the allowed bound (50 random fields)",
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_08_polygonal_reduction_and_patch_test(k):
    curves = square_domain()
    matrix_scale_ok = True
    for n in (2, 4):
        mesh = unit_square_mesh(n)
        base = Assembler(mesh, curves, k=k, m=0).matrix_a()
        scale = np.abs(base.data).max()
        for m in range(1, k + 1):
            other = Assembler(mesh, curves, k=k, m=m).matrix_a()
            diff = (base - other).tocoo()
            worst = np.abs(diff.data).max() if diff.nnz else 0.0
            matrix_scale_ok = matrix_scale_ok and worst <= 1e-14 * scale
    case = case_polynomial_square(k)
    patch_ok = True
    worst_e = 0.0
    for n in (2, 4, 8):
        mesh = unit_square_mesh(n)
        asm = Assembler(mesh, curves, k=k)
        u, p, lam, rep = solve(asm.system(case))
        err = error_norms(u, p, case, asm)
        worst_e = max(worst_e, err.e_total)
        patch_ok = patch_ok and rep.success and err.e_total <= 1e-9
    ok = matrix_scale_ok and patch_ok
    report(
        f"criterion 8 (polygonal reduction + patch test, k={k})",
        ok,
        f"matrices m-independent to 1e-14*scale: {matrix_scale_ok}; "
        f"patch E_total max {worst_e:.2e} <= 1e-9",
    )


@pytest.mark.parametrize("domain_factory", [disk_domain, ring_domain])
def test_criterion_09_geometry_assumption(domain_factory):
    curves = domain_factory()
    meshes = mesh_hierarchy(curves, (2, 3, 4, 5, 6))
    delta_ratios, gap_ratios = [], []
    for lvl in sorted(meshes):
        diag = check_geometry_assumption(meshes[lvl], curves)
        delta_ratios.append(diag["delta_max_over_h2"])
        gap_ratios.append(diag["sup_normal_gap_over_h"])
    spread_delta = max(delta_ratios) / min(delta_ratios)
    spread_gap = max(gap_ratios) / min(gap_ratios)
    ok = spread_delta < 2.0 and spread_gap < 2.0
    report(
        f"criterion 9 (geometry assumption, {domain_factory.__name__})",
        ok,
        f"delta/h^2 spread {spread_delta:.3f} < 2, gap/h spread {spread_gap:.3f} < 2 "
        f"across levels 2..6",
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_10_fast_path_equivalence(k):
    curves = disk_domain()
    mesh = mesh_hierarchy(curves, (3,))[3]
    asm = Assembler(mesh, curves, k=k)
    basis = ShapeFunctions(asm, asm.trace.owner)

    class _Slow:
        degree = None
        eval = basis.eval
        nu_derivative = basis.nu_derivative

    # all shape functions of every owner: any discrete field combines them
    fast = taylor_trace(basis, asm.trace, k)
    slow = taylor_trace(_Slow(), asm.trace, k)
    scale = np.abs(fast).max(axis=(1, 2, 3))
    worst = float((np.abs(fast - slow).max(axis=(1, 2, 3)) / scale).max())
    ok = worst <= 1e-12
    report(
        f"criterion 10 (fast-path equivalence, k={k})",
        ok,
        f"max relative gap {worst:.2e} <= 1e-12 over {len(mesh.boundary_edges)} edges",
    )


def test_criterion_11_gauge_invariance():
    curves = disk_domain()
    mesh = mesh_hierarchy(curves, (2,))[2]
    asm = Assembler(mesh, curves, k=2)
    case = case_circle()
    u1, p1, _, rep1 = solve(asm.system(case, gauge=0.0))
    u2, p2, _, rep2 = solve(asm.system(case, gauge=1.0))
    u_scale = np.abs(u1).max()
    u_gap = np.abs(u1 - u2).max() / u_scale
    # the gauge-0 solution itself has mean zero: the border row c.p = 0
    c = asm.pressure_integrals()
    mean_gap = abs(float(c @ p1)) / float(abs(c) @ abs(p1))
    ok = rep1.success and rep2.success and u_gap <= 1e-10 and mean_gap <= 1e-14
    report(
        "criterion 11 (gauge invariance)",
        ok,
        f"velocity gap {u_gap:.2e} <= 1e-10; |c.p| of the gauge-0 pressure at "
        f"{mean_gap:.2e} <= 1e-14 of |c|.|p|",
    )
