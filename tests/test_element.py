"""Reference BDM elements, the Piola map of ``LocalField``, the DOF signs
of mapped elements, and the BDM interpolant and pressure projection on one
triangle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy.assembly import Assembler
from bdmdarcy.femcore import bdm_reference_basis, edge_quadrature, triangle_quadrature
from bdmdarcy.femcore.element import REF_EDGES, REF_VERTICES
from bdmdarcy.mesh import _build_mesh, refine_project
from domains import StraightBoundary, single_triangle_mesh, triangle_domain, unit_square_mesh
from oracles import (
    LocalField,
    Partials,
    affine_map,
    divergence,
    dof_matrix,
    interpolate_velocity,
    local_field,
    project_pressure_global,
)

TRI = np.array([[0.2, -0.1], [1.3, 0.4], [0.3, 1.1]])


def _assembler(k):
    return Assembler(single_triangle_mesh(TRI), triangle_domain(TRI), k)


def _interpolant(asm, field):
    """The BDM_k interpolant of ``field`` on the one triangle of ``asm``, as
    a LocalField."""
    coeffs = asm.local_coeffs(interpolate_velocity(asm, field))
    return local_field(asm, 0, coeffs[0])


def _projection(asm, q, pts):
    """The elementwise L2 projection of ``q`` onto P_{k-1}, evaluated at
    physical points of each element (pts has shape (nel, n, 2))."""
    coeffs = project_pressure_global(asm, q).reshape(asm.mesh.n_triangles, -1)
    ref = np.einsum("eab,enb->ena", asm.jinv, pts - asm.v0[:, None, :])
    vals = asm.tables.pressure.eval(ref.reshape(-1, 2)).reshape(ref.shape[:2] + (-1,))
    return np.einsum("enl,el->en", vals, coeffs)


def _element_points(asm, rule):
    return asm.v0[:, None, :] + np.einsum("eab,qb->eqa", asm.jac, rule.points)


def _random_field(rng, degree):
    """A random full vector polynomial of the given degree."""
    exps = [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]
    coeff = rng.standard_normal((2, len(exps)))

    def field(x):
        x = np.atleast_2d(x)
        mono = np.stack([x[:, 0] ** a * x[:, 1] ** b for a, b in exps], axis=1)
        return mono @ coeff.T

    return field, exps, coeff


def _affine_square(jac, shift):
    """The 2x2 unit-square mesh under x -> jac x + shift, with its sides."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) @ jac.T + shift
    sides = []
    for i in range(4):
        t = corners[(i + 1) % 4] - corners[i]
        sides.append(StraightBoundary(point=tuple(corners[i]), normal=(t[1], -t[0]),
                                      component_id=i))
    square = unit_square_mesh(2)
    return _build_mesh(square.vertices @ jac.T + shift, square.triangles, sides, 0), sides


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 3),
    angle=st.floats(-np.pi, np.pi),
    scales=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    shear=st.floats(-2.0, 2.0),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_mapped_basis_has_the_sign_diagonal_as_dof_matrix(k, angle, scales, shear, shift):
    """Under any affine map with det > 0, the DOF functionals (edge moments
    with the global normal and parametrization, interior moments against
    covariantly mapped fields) applied to the Piola-mapped nodal basis give
    the +-1 diagonal S_K of ``Assembler.dof_sign``; both orientations of
    the global normal and both parametrizations occur on this mesh."""
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    jac = rotation @ np.array([[scales[0], shear], [0.0, scales[1]]])
    mesh, sides = _affine_square(jac, np.array(shift))
    asm = Assembler(mesh, sides, k)
    outward = asm.dof_sign[:, : 3 * (k + 1) : k + 1]  # the degree-0 edge moments
    direction = outward * asm.dof_sign[:, 1 : 3 * (k + 1) : k + 1]  # degree 1 over degree 0
    assert set(outward.ravel()) == set(direction.ravel()) == {-1, 1}
    for e in range(mesh.n_triangles):
        expected = np.diag(asm.dof_sign[e])
        assert np.abs(dof_matrix(asm, e) - expected).max() <= 1e-12


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
    # on the reference triangle itself the Piola map is the identity
    identity = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    el = bdm_reference_basis(2)
    coeffs = np.random.default_rng(4).standard_normal(el.dim)
    phys = LocalField(identity, el, coeffs)
    pts = np.array([[0.2, 0.3], [0.5, 0.1]])
    ref = np.einsum("qja,j->qa", el.tabulate(pts), coeffs)
    assert np.abs(phys.eval(pts) - ref).max() < 1e-15


def test_piola_divergence_scaling():
    el = bdm_reference_basis(2)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(el.dim)
    phys = LocalField(TRI, el, coeffs)

    def ref_field(x):
        return np.einsum("qja,j->qa", el.tabulate(np.atleast_2d(x)), coeffs)

    v0, jac, det, jinv = affine_map(TRI)
    ref_pts = rng.dirichlet([1, 1, 1], 10)[:, :2]
    phys_pts = v0 + ref_pts @ jac.T
    ref_div = el.tabulate_div(ref_pts) @ coeffs
    h = 1e-6
    div_phys = (
        (phys.eval(phys_pts + [h, 0]) - phys.eval(phys_pts - [h, 0]))[:, 0]
        + (phys.eval(phys_pts + [0, h]) - phys.eval(phys_pts - [0, h]))[:, 1]
    ) / (2 * h)
    assert np.abs(div_phys * det - ref_div).max() < 1e-7
    assert np.abs(divergence(phys, phys_pts) * det - ref_div).max() < 1e-12
    # the inverse map det J J^-1 v(F(xhat)) recovers the reference field
    back = det * (phys.eval(phys_pts) @ jinv.T)
    assert np.abs(back - ref_field(ref_pts)).max() < 1e-13


def test_piola_preserves_edge_normal_moments():
    k = 2
    el = bdm_reference_basis(k)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(el.dim)

    def ref_field(x):
        return np.einsum("qja,j->qa", el.tabulate(np.atleast_2d(x)), coeffs)

    phys = LocalField(TRI, el, coeffs).eval
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
    interp = _interpolant(_assembler(k), field)
    rng = np.random.default_rng(2)
    pts = rng.dirichlet([1, 1, 1], 10) @ TRI
    assert np.abs(interp.eval(pts) - [1.0, 2.0]).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_full_space(k):
    rng = np.random.default_rng(k)
    field, _, _ = _random_field(rng, k)
    interp = _interpolant(_assembler(k), field)
    pts = rng.dirichlet([1, 1, 1], 12) @ TRI
    scale = np.abs(field(pts)).max()
    assert np.abs(interp.eval(pts) - field(pts)).max() < 1e-11 * max(scale, 1.0)


def test_commuting_diagram_divergence_free_field():
    # (y^3 + x^2, -2xy) is divergence-free and of degree k+2, so its moments
    # integrate exactly and the interpolant's divergence must vanish (= the
    # projected divergence)
    k = 2

    def field(x):
        x = np.atleast_2d(x)
        return np.column_stack([x[:, 1] ** 3 + x[:, 0] ** 2, -2.0 * x[:, 0] * x[:, 1]])

    interp = _interpolant(_assembler(k), field)
    rule = triangle_quadrature(2 * k + 4)
    v0, jac, det, _ = affine_map(TRI)
    pts = v0 + rule.points @ jac.T
    err = np.sqrt(det * np.sum(rule.weights * divergence(interp, pts) ** 2))
    scale = np.sqrt(det * np.sum(rule.weights * np.sum(field(pts) ** 2, axis=1)))
    assert err <= 1e-10 * scale


@pytest.mark.parametrize("k", [1, 2, 3])
def test_commuting_diagram_polynomial_field(k):
    # random field of degree k+2 (all moments integrate exactly at the
    # default rules): div of the interpolant equals the projected divergence
    rng = np.random.default_rng(40 + k)
    field, exps, coeff = _random_field(rng, k + 2)

    def div_field(x):
        x = np.atleast_2d(x)
        out = np.zeros(len(x))
        for c0, c1, (a, b) in zip(coeff[0], coeff[1], exps):
            if a >= 1:
                out += c0 * a * x[:, 0] ** (a - 1) * x[:, 1] ** b
            if b >= 1:
                out += c1 * b * x[:, 0] ** a * x[:, 1] ** (b - 1)
        return out

    asm = _assembler(k)
    interp = _interpolant(asm, field)
    rule = triangle_quadrature(2 * k + 4)
    pts = _element_points(asm, rule)
    diff = divergence(interp, pts[0]) - _projection(asm, div_field, pts)[0]
    det = asm.det[0]
    err = np.sqrt(det * np.sum(rule.weights * diff**2))
    ref = np.sqrt(det * np.sum(rule.weights * div_field(pts[0]) ** 2))
    assert err <= 1e-10 * ref


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_pressure_projection_reproduces_polynomials(degree):
    rng = np.random.default_rng(degree + 3)
    exps = [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]
    coeff = rng.standard_normal(len(exps))

    def q(x):
        x = np.atleast_2d(x)
        return sum(c * x[:, 0] ** a * x[:, 1] ** b for c, (a, b) in zip(coeff, exps))

    asm = _assembler(degree + 1)
    pts = rng.dirichlet([1, 1, 1], 8) @ TRI
    proj = _projection(asm, q, pts[None])[0]
    assert np.abs(proj - q(pts)).max() < 1e-12 * max(1.0, np.abs(coeff).max())


def test_pressure_projection_orthogonal_to_constants():
    # the residual is orthogonal to constants by construction, measured with
    # the projection's own quadrature
    q = lambda x: np.sin(np.atleast_2d(x)[:, 0] + np.atleast_2d(x)[:, 1])
    asm = _assembler(2)
    rule = asm.tables.err
    pts = _element_points(asm, rule)
    moment = asm.det[0] * np.sum(rule.weights * (q(pts[0]) - _projection(asm, q, pts)[0]))
    area = asm.det[0] / 2
    assert abs(moment) < 1e-12 * area


def _projection_error_sq(mesh, q, degree):
    asm = Assembler(mesh, triangle_domain(TRI), degree + 1)
    rule = triangle_quadrature(14)
    pts = _element_points(asm, rule)
    diff = q(pts.reshape(-1, 2)).reshape(pts.shape[:2]) - _projection(asm, q, pts)
    return np.einsum("e,q,eq->", asm.det, rule.weights, diff**2)


def test_pressure_projection_error_decay():
    # refining K into its four children reduces the P_{k-1} projection
    # error over the same region by about 2^k
    q = lambda x: np.sin(np.atleast_2d(x)[:, 0] + np.atleast_2d(x)[:, 1])
    coarse_mesh = single_triangle_mesh(TRI)
    fine_mesh = refine_project(coarse_mesh, triangle_domain(TRI))
    for degree in (0, 1, 2):
        coarse = np.sqrt(_projection_error_sq(coarse_mesh, q, degree))
        fine = np.sqrt(_projection_error_sq(fine_mesh, q, degree))
        assert coarse / fine == pytest.approx(2.0 ** (degree + 1), rel=0.3)


def test_derivatives_of_constant_field_vanish():
    k = 2
    const = _interpolant(
        _assembler(k), lambda x: np.tile([0.7, -1.2], (len(np.atleast_2d(x)), 1))
    )
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
    interp = Partials(_interpolant(_assembler(k), field))
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
