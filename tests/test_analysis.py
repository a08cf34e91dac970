"""Manufactured cases, error norms, and order computation.

PDE identities are cross-checked by complex-step differentiation of the
closed forms (exact to machine precision for these analytic formulas).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly

from bdmdarcy.analysis import _Poly2D, case_circle, case_ring, compute_eoc, error_norms
from bdmdarcy.assembly import Assembler
from bdmdarcy.mesh import coarse_mesh, disk_domain, refine_project, ring_domain
from bdmdarcy.solver import solve
from domains import case_polynomial_square, compatibility_residual
from oracles import (
    closed_form_circle,
    closed_form_ring,
    constant_pressure,
    interpolate_velocity,
    project_pressure_global,
)


def complex_step_grad(f, pts, h=1e-20):
    pts = np.atleast_2d(pts)
    dx = f(pts + np.array([1j * h, 0.0])).imag / h
    dy = f(pts + np.array([0.0, 1j * h])).imag / h
    return np.column_stack([dx, dy])


def random_points(rng, n, domain):
    if domain == "circle":
        r = np.sqrt(rng.random(n))
        th = 2 * np.pi * rng.random(n)
    else:
        r = np.sqrt(rng.random(n) * 0.75 + 0.25)
        th = 2 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


@pytest.mark.parametrize("case_factory", [case_circle, case_ring])
def test_darcy_identities(case_factory):
    case = case_factory()
    rng = np.random.default_rng(1)
    pts = random_points(rng, 20, case.domain)
    # -grad p = u
    grad_p = complex_step_grad(case.pressure, pts)
    assert np.abs(-grad_p - case.velocity(pts)).max() < 1e-12 * (
        1.0 + np.abs(case.velocity(pts)).max()
    )
    # div u = f
    div_u = (
        complex_step_grad(lambda q: case.velocity(q)[:, 0], pts)[:, 0]
        + complex_step_grad(lambda q: case.velocity(q)[:, 1], pts)[:, 1]
    )
    assert np.abs(div_u - case.source(pts)).max() < 1e-12 * (
        1.0 + np.abs(case.source(pts)).max()
    )


def test_circle_case_values():
    case = case_circle()
    assert case.velocity([[0.0, 0.0]])[0] == pytest.approx([3.0, 0.0])
    assert case.source([[0.5, 0.0]])[0] == pytest.approx(-4.0)
    # homogeneous normal flux on the unit circle
    rng = np.random.default_rng(2)
    th = 2 * np.pi * rng.random(20)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    flux = np.einsum("na,na->n", case.velocity(pts), pts)
    assert np.abs(flux).max() < 1e-12
    assert case.homogeneous_neumann


def test_ring_case_values():
    case = case_ring()
    assert case.source([[0.25, 0.25]])[0] == pytest.approx(-8.0 * np.pi**2, rel=1e-13)
    # u(1, 0) = 0, so the normal flux vanishes there
    assert case.neumann([[1.0, 0.0]], [[1.0, 0.0]])[0] == pytest.approx(0.0, abs=1e-13)
    assert not case.homogeneous_neumann


def test_case_derivatives_match_complex_step():
    case = case_ring()
    rng = np.random.default_rng(3)
    pts = random_points(rng, 10, "ring")
    for rx, ry in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        def f0(q):
            return case.velocity_derivative(q, rx - 1, ry) if rx else None
        exact = case.velocity_derivative(pts, rx, ry)
        if rx:
            ref = complex_step_grad(
                lambda q: case.velocity_derivative(q, rx - 1, ry)[:, 0], pts
            )[:, 0]
            assert np.abs(exact[:, 0] - ref).max() < 1e-10 * (np.abs(ref).max() + 1)
        else:
            ref = complex_step_grad(
                lambda q: case.velocity_derivative(q, rx, ry - 1)[:, 0], pts
            )[:, 1]
            assert np.abs(exact[:, 0] - ref).max() < 1e-10 * (np.abs(ref).max() + 1)


@pytest.mark.parametrize("domain", ["circle", "ring"])
def test_cases_built_from_the_pressure_are_the_closed_forms(domain):
    """The velocity -grad p, the pressure and the source of the cases built
    from their pressure are the hand-written closed forms bit for bit on
    the ring, and equal on the disk, where u = -(-u) flips the sign of a
    zero.  Their partials up to order 6 are the closed forms' to 2e-15 of
    the largest (1.3e-15 measured on 20,000 points): the ring's turn the
    phase by exact quarter turns, where the closed form rounds the phase
    w x + r pi / 2, whose rounding grows with r (2.3e-15 at order 9)."""
    case = case_circle() if domain == "circle" else case_ring()
    closed = closed_form_circle() if domain == "circle" else closed_form_ring()
    pts = np.concatenate([random_points(np.random.default_rng(5), 200, domain),
                          [[0.0, 0.0], [0.5, 0.0], [0.0, -0.5], [-0.75, 0.25]]])
    for name in ("velocity", "pressure", "source"):
        value, expected = getattr(case, name)(pts), getattr(closed, name)(pts)
        if domain == "ring":
            assert value.tobytes() == expected.tobytes(), name
        else:
            assert np.array_equal(value, expected), name
    for rx, ry in [(i, j - i) for j in range(1, 7) for i in range(j + 1)]:
        value = case.velocity_derivative(pts, rx, ry)
        expected = closed.velocity_derivative(pts, rx, ry)
        assert np.abs(value - expected).max() <= 2e-15 * np.abs(expected).max()


# coefficients as the cases write them: zeros often, never -0.0 (polyval2d
# would carry that zero's sign into a zero sum); points with signed zeros
_COEFFS = st.one_of(st.just(0.0), st.floats(-10.0, 10.0).map(lambda v: v + 0.0))
_POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4), st.integers(0, 4),
       st.integers(1, 12), st.data())
def test_poly2d_sums_as_polyval2d(nx, ny, rx, ry, n, data):
    """``_Poly2D`` and its partials are ``npoly.polyval2d`` of the
    (differentiated) coefficients within 0 ulp: bit for bit at real points,
    signed zeros included, and equal at complex points (a zero's sign
    aside), as the complex-step tests take them.  A partial of an order
    above the degree is +0.0."""
    coeff = data.draw(hnp.arrays(np.float64, (nx, ny), elements=_COEFFS))
    pts = data.draw(hnp.arrays(np.float64, (n, 2), elements=_POINTS))
    step = data.draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(-1e-20, 1e-20)))
    poly = _Poly2D(coeff)
    c = npoly.polyder(npoly.polyder(coeff, rx, axis=0), ry, axis=1)
    for points in (pts, pts + 1j * step):
        got = poly.derivative(points, rx, ry) if rx or ry else poly(points)
        if rx < nx and ry < ny:
            expected = npoly.polyval2d(points[:, 0], points[:, 1], c)
        else:
            expected = np.zeros(n, points.dtype)
        assert got.dtype == expected.dtype
        if points.dtype == np.float64:
            assert got.tobytes() == expected.tobytes()
        else:
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("case_factory", [case_circle, case_ring])
def test_compatibility_condition(case_factory):
    assert compatibility_residual(case_factory()) <= 1e-10


def test_eoc_basic():
    assert compute_eoc([1.0, 0.25], [1.0, 0.5]) == pytest.approx([2.0])
    assert compute_eoc([0.3, 0.3, 0.3], [1.0, 0.5, 0.25]) == pytest.approx([0.0, 0.0])


def test_eoc_published_column():
    errors = [3.54e-03, 7.61e-04, 1.67e-04, 3.86e-05]
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    orders = compute_eoc(errors, hs)
    assert orders == pytest.approx([2.22, 2.18, 2.12], abs=0.01)


def test_eoc_validation():
    with pytest.raises(ValueError):
        compute_eoc([1.0, -0.5], [1.0, 0.5])
    with pytest.raises(ValueError):
        compute_eoc([1.0, 0.5], [0.5, 1.0])
    with pytest.raises(ValueError):
        compute_eoc([1.0, 0.5, 0.25], [1.0, 0.5])


def disk_solution(levels=2, k=1, m=None):
    curves = disk_domain()
    mesh = coarse_mesh(curves)
    for _ in range(levels):
        mesh = refine_project(mesh, curves)
    asm = Assembler(mesh, curves, k=k, m=m)
    case = case_circle()
    u, p, lam, rep = solve(asm.system(case))
    assert rep.success
    return asm, case, u, p


def test_pressure_error_ignores_constant_shifts():
    asm, case, u, p = disk_solution()
    base = error_norms(u, p, case, asm)
    shifted = error_norms(u, p + 7.0 * constant_pressure(asm), case, asm)
    assert shifted.e_p == pytest.approx(base.e_p, rel=1e-10)
    assert shifted.e_total == pytest.approx(base.e_total, rel=1e-10)


def test_error_report_structure():
    asm, case, u, p = disk_solution()
    err = error_norms(u, p, case, asm)
    assert err.e_u_0h >= err.e_u_hdiv
    assert err.e_total == pytest.approx(err.e_u_0h + err.e_p)
    assert min(err.e_u_hdiv, err.e_penalty, err.e_p) >= 0.0


def test_coarse_error_magnitude_matches_published_value():
    # corrected k = 1, m = 1 at mesh size ~ 1/8: reported error 3.84e-01
    # (different meshes, so only the magnitude is comparable)
    asm, case, u, p = disk_solution(levels=3, k=1, m=1)
    err = error_norms(u, p, case, asm)
    assert 0.08 <= err.h <= 0.25  # comparable resolution, different meshes
    assert err.e_total <= 3 * 3.84e-01
    assert err.e_total >= 3.84e-01 / 3


@pytest.mark.parametrize("domain_factory,levels", [(disk_domain, (2, 3, 4)), (ring_domain, (1, 2, 3))])
def test_interpolation_alone_converges_at_order_k(domain_factory, levels):
    curves = domain_factory()
    case = case_circle() if domain_factory is disk_domain else case_ring()
    for k in (1, 2, 3):
        errs, hs = [], []
        mesh = coarse_mesh(curves)
        for lvl in range(max(levels) + 1):
            if lvl > 0:
                mesh = refine_project(mesh, curves)
            if lvl in levels:
                asm = Assembler(mesh, curves, k=k)
                u_i = interpolate_velocity(asm, case.velocity)
                p_i = project_pressure_global(asm, case.pressure)
                err = error_norms(u_i, p_i, case, asm)
                errs.append(err.e_total)
                hs.append(err.h)
        eoc = compute_eoc(errs, hs)[-1]
        assert eoc == pytest.approx(k, abs=0.2)


def test_square_patch_case_is_consistent():
    for k in (1, 2, 3):
        case = case_polynomial_square(k)
        rng = np.random.default_rng(5)
        pts = rng.random((20, 2))
        grad_p = complex_step_grad(case.pressure, pts)
        assert np.abs(-grad_p - case.velocity(pts)).max() < 1e-12
        assert compatibility_residual(case) <= 1e-10
