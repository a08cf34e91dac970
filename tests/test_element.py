"""Reference BDM elements, Piola transforms, interpolation, projection."""

import numpy as np
import pytest

from bdmdarcy.femcore import (
    LocalField,
    TriangleBasis,
    affine_map,
    bdm_reference_basis,
    edge_quadrature,
    interpolate_bdm,
    piola_map,
    piola_map_inverse,
    project_pressure,
    triangle_quadrature,
)
from bdmdarcy.femcore.element import REF_EDGES, REF_VERTICES
from oracles import Partials

TRI = np.array([[0.2, -0.1], [1.3, 0.4], [0.3, 1.1]])


@pytest.mark.parametrize("k,dim", [(1, 6), (2, 12), (3, 20)])
def test_dimensions(k, dim):
    el = bdm_reference_basis(k)
    assert el.dim == dim == (k + 1) * (k + 2)
    assert 3 * el.n_edge_moments + el.n_interior == dim


def test_k1_has_only_edge_moments():
    el = bdm_reference_basis(1)
    assert el.n_grad == 0 and el.n_curl == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_duality_identity(k):
    el = bdm_reference_basis(k)
    check = el._dof_matrix_span() @ el.nodal_coeff
    assert np.abs(check - np.eye(el.dim)).max() < 1e-11
    assert np.isfinite(el.dof_condition)


def test_invalid_degree():
    with pytest.raises(ValueError):
        bdm_reference_basis.__wrapped__(0)


def test_piola_identity_triangle():
    identity = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def ref_field(x):
        x = np.atleast_2d(x)
        return np.column_stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]])

    phys = piola_map(identity, ref_field)
    pts = np.array([[0.2, 0.3], [0.5, 0.1]])
    assert np.abs(phys(pts) - ref_field(pts)).max() < 1e-15


def test_piola_divergence_scaling():
    def ref_field(x):
        x = np.atleast_2d(x)
        return np.column_stack([x[:, 0] ** 2 + x[:, 1], x[:, 0] * x[:, 1]])

    def ref_div(x):
        x = np.atleast_2d(x)
        return 2.0 * x[:, 0] + x[:, 0]

    v0, jac, det, jinv = affine_map(TRI)
    phys = piola_map(TRI, ref_field)
    rng = np.random.default_rng(5)
    ref_pts = rng.dirichlet([1, 1, 1], 10)[:, :2]
    phys_pts = v0 + ref_pts @ jac.T
    h = 1e-6
    div_phys = (
        (phys(phys_pts + [h, 0]) - phys(phys_pts - [h, 0]))[:, 0]
        + (phys(phys_pts + [0, h]) - phys(phys_pts - [0, h]))[:, 1]
    ) / (2 * h)
    assert np.abs(div_phys * det - ref_div(ref_pts)).max() < 1e-7
    # the inverse map undoes the forward map
    back = piola_map_inverse(TRI, phys)
    assert np.abs(back(ref_pts) - ref_field(ref_pts)).max() < 1e-13


def test_piola_preserves_edge_normal_moments():
    k = 2
    el = bdm_reference_basis(k)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(el.dim)

    def ref_field(x):
        return np.einsum("qja,j->qa", el.tabulate(np.atleast_2d(x)), coeffs)

    phys = piola_map(TRI, ref_field)
    rule = edge_quadrature(6)
    for l, (p, q) in enumerate(REF_EDGES):
        a_ref, b_ref = REF_VERTICES[p], REF_VERTICES[q]
        a_phys, b_phys = TRI[p], TRI[q]
        for moment_degree in range(k + 1):
            leg = np.polynomial.legendre.legvander(rule.points, k)[:, moment_degree]
            # reference moment
            pts_ref = 0.5 * (a_ref + b_ref) + 0.5 * np.outer(rule.points, b_ref - a_ref)
            t_ref = b_ref - a_ref
            n_ref = np.array([t_ref[1], -t_ref[0]]) / np.hypot(*t_ref)
            m_ref = 0.5 * np.hypot(*t_ref) * np.sum(
                rule.weights * (ref_field(pts_ref) @ n_ref) * leg
            )
            # physical moment with the image orientation
            pts_phys = 0.5 * (a_phys + b_phys) + 0.5 * np.outer(rule.points, b_phys - a_phys)
            t_phys = b_phys - a_phys
            n_phys = np.array([t_phys[1], -t_phys[0]]) / np.hypot(*t_phys)
            m_phys = 0.5 * np.hypot(*t_phys) * np.sum(
                rule.weights * (phys(pts_phys) @ n_phys) * leg
            )
            assert m_phys == pytest.approx(m_ref, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_constants(k):
    field = lambda x: np.broadcast_to([1.0, 2.0], (len(np.atleast_2d(x)), 2)).copy()
    interp = interpolate_bdm(TRI, field, k)
    rng = np.random.default_rng(2)
    pts = rng.dirichlet([1, 1, 1], 10) @ TRI
    assert np.abs(interp.eval(pts) - [1.0, 2.0]).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_full_space(k):
    rng = np.random.default_rng(k)
    exps = [(a, d - a) for d in range(k + 1) for a in range(d + 1)]
    coeff = rng.standard_normal((2, len(exps)))

    def field(x):
        x = np.atleast_2d(x)
        mono = np.stack([x[:, 0] ** a * x[:, 1] ** b for a, b in exps], axis=1)
        return mono @ coeff.T

    interp = interpolate_bdm(TRI, field, k)
    pts = rng.dirichlet([1, 1, 1], 12) @ TRI
    scale = np.abs(field(pts)).max()
    assert np.abs(interp.eval(pts) - field(pts)).max() < 1e-11 * max(scale, 1.0)


def test_commuting_diagram_divergence_free_field():
    # (sin y, x^3) is divergence-free, so the interpolant's divergence must
    # vanish (= the projected divergence); moments over-integrated since the
    # first component is transcendental
    k = 2

    def field(x):
        x = np.atleast_2d(x)
        return np.column_stack([np.sin(x[:, 1]), x[:, 0] ** 3])

    interp = interpolate_bdm(TRI, field, k, edge_rule_points=k + 8, vol_degree=2 * k + 10)
    proj = project_pressure(TRI, lambda x: np.zeros(len(np.atleast_2d(x))), k - 1)
    rule = triangle_quadrature(2 * k + 4)
    v0, jac, det, _ = affine_map(TRI)
    pts = v0 + rule.points @ jac.T
    diff = interp.divergence(pts) - proj.eval(pts)
    err = np.sqrt(det * np.sum(rule.weights * diff**2))
    scale = np.sqrt(det * np.sum(rule.weights * np.sum(field(pts) ** 2, axis=1)))
    assert err <= 1e-10 * scale


@pytest.mark.parametrize("k", [1, 2, 3])
def test_commuting_diagram_polynomial_field(k):
    # random field of degree k+2 (all moments integrate exactly at the
    # default rules): div of the interpolant equals the projected divergence
    rng = np.random.default_rng(40 + k)
    exps = [(a, d - a) for d in range(k + 3) for a in range(d + 1)]
    coeff = rng.standard_normal((2, len(exps)))

    def field(x):
        x = np.atleast_2d(x)
        mono = np.stack([x[:, 0] ** a * x[:, 1] ** b for a, b in exps], axis=1)
        return mono @ coeff.T

    def div_field(x):
        x = np.atleast_2d(x)
        out = np.zeros(len(x))
        for c0, c1, (a, b) in zip(coeff[0], coeff[1], exps):
            if a >= 1:
                out += c0 * a * x[:, 0] ** (a - 1) * x[:, 1] ** b
            if b >= 1:
                out += c1 * b * x[:, 0] ** a * x[:, 1] ** (b - 1)
        return out

    interp = interpolate_bdm(TRI, field, k)
    proj = project_pressure(TRI, div_field, k - 1)
    rule = triangle_quadrature(2 * k + 4)
    v0, jac, det, _ = affine_map(TRI)
    pts = v0 + rule.points @ jac.T
    diff = interp.divergence(pts) - proj.eval(pts)
    err = np.sqrt(det * np.sum(rule.weights * diff**2))
    ref = np.sqrt(det * np.sum(rule.weights * div_field(pts) ** 2))
    assert err <= 1e-10 * ref


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_pressure_projection_reproduces_polynomials(degree):
    rng = np.random.default_rng(degree + 3)
    exps = [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]
    coeff = rng.standard_normal(len(exps))

    def q(x):
        x = np.atleast_2d(x)
        return sum(c * x[:, 0] ** a * x[:, 1] ** b for c, (a, b) in zip(coeff, exps))

    proj = project_pressure(TRI, q, degree)
    pts = rng.dirichlet([1, 1, 1], 8) @ TRI
    assert np.abs(proj.eval(pts) - q(pts)).max() < 1e-12 * max(1.0, np.abs(coeff).max())


def test_pressure_projection_orthogonal_to_constants():
    # the residual is orthogonal to constants by construction, measured with
    # the projection's own quadrature
    q = lambda x: np.sin(np.atleast_2d(x)[:, 0] + np.atleast_2d(x)[:, 1])
    quad_degree = 10
    proj = project_pressure(TRI, q, 1, quad_degree=quad_degree)
    rule = triangle_quadrature(quad_degree)
    v0, jac, det, _ = affine_map(TRI)
    pts = v0 + rule.points @ jac.T
    moment = det * np.sum(rule.weights * (q(pts) - proj.eval(pts)))
    area = det / 2
    assert abs(moment) < 1e-12 * area


def _children(tri):
    m01, m12, m20 = 0.5 * (tri[0] + tri[1]), 0.5 * (tri[1] + tri[2]), 0.5 * (tri[2] + tri[0])
    return [
        np.array([tri[0], m01, m20]),
        np.array([m01, tri[1], m12]),
        np.array([m20, m12, tri[2]]),
        np.array([m01, m12, m20]),
    ]


def _projection_error_sq(tri, q, degree):
    proj = project_pressure(tri, q, degree, quad_degree=14)
    rule = triangle_quadrature(14)
    v0, jac, det, _ = affine_map(tri)
    pts = v0 + rule.points @ jac.T
    diff = q(pts) - proj.eval(pts)
    return det * np.sum(rule.weights * diff**2)


def test_pressure_projection_error_decay():
    # refining K into its four children reduces the P_{k-1} projection
    # error over the same region by about 2^k
    q = lambda x: np.sin(np.atleast_2d(x)[:, 0] + np.atleast_2d(x)[:, 1])
    for degree in (0, 1, 2):
        coarse = np.sqrt(_projection_error_sq(TRI, q, degree))
        fine = np.sqrt(sum(_projection_error_sq(c, q, degree) for c in _children(TRI)))
        assert coarse / fine == pytest.approx(2.0 ** (degree + 1), rel=0.3)


def test_derivatives_of_constant_field_vanish():
    k = 2
    const = interpolate_bdm(TRI, lambda x: np.tile([0.7, -1.2], (len(np.atleast_2d(x)), 1)), k)
    field = Partials(const)
    centre = TRI.mean(axis=0)
    assert np.abs(field.eval(centre) - [0.7, -1.2]).max() < 1e-12
    for rx, ry in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert np.abs(field.derivative(centre, rx, ry)).max() < 1e-12


def test_second_derivative_of_quadratic():
    k = 2
    field = lambda x: np.column_stack(
        [np.atleast_2d(x)[:, 0] ** 2, np.zeros(len(np.atleast_2d(x)))]
    )
    interp = Partials(interpolate_bdm(TRI, field, k))
    pts = np.array([[0.5, 0.3], [0.8, 0.2]])
    dxx = interp.derivative(pts, 2, 0)
    assert np.abs(dxx[:, 0] - 2.0).max() < 1e-11
    assert np.abs(dxx[:, 1]).max() < 1e-11


def test_derivatives_match_finite_differences():
    k = 3
    rng = np.random.default_rng(9)
    el = bdm_reference_basis(k)
    fld = Partials(LocalField(TRI, el, rng.standard_normal(el.dim)))
    pts = rng.dirichlet([1, 1, 1], 4) @ TRI
    h = 1e-5
    for rx, ry in [(1, 0), (0, 1)]:
        step = np.array([h, 0.0]) if rx else np.array([0.0, h])
        fd = (fld.eval(pts + step) - fld.eval(pts - step)) / (2 * h)
        exact = fld.derivative(pts, rx, ry)
        scale = np.abs(exact).max() + 1.0
        assert np.abs(exact - fd).max() / scale < 1e-6


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        affine_map(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        affine_map(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))  # clockwise
