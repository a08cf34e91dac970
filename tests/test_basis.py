"""Orthonormality and partials of the reference bases."""

from math import factorial

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

from bdmdarcy.correction import directional_derivative
from bdmdarcy.femcore import TriangleBasis, edge_quadrature, triangle_quadrature


@pytest.mark.parametrize("degree", range(10))
def test_triangle_basis_orthonormal(degree):
    basis = TriangleBasis(degree)
    assert basis.dim == (degree + 1) * (degree + 2) // 2
    rule = triangle_quadrature(2 * degree)
    vals = basis.eval(rule.points)
    gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-14


@pytest.mark.parametrize("degree", range(1, 10))
def test_taylor_sum_of_the_partials_is_the_shifted_value(degree):
    """phi(x0 + h) = sum_{j <= k} (h . grad)^j phi(x0) / j! holds exactly for
    a polynomial of degree k, so it checks every mixed partial up to order k,
    as the boundary correction reads them."""
    basis = TriangleBasis(degree)
    rng = np.random.default_rng(degree)
    x0 = rng.random((400, 2))
    x0 = x0[x0.sum(axis=1) < 1.0]
    h = 0.5 * (rng.random(x0.shape) - 0.5)
    total = 0.0
    for j in range(degree + 1):
        derivative = directional_derivative(lambda rx, ry: basis.eval_derivative(x0, rx, ry), h, j)
        total = total + derivative / factorial(j)
    shifted = basis.eval(x0 + h)
    assert np.abs(total - shifted).max() <= 2e-14 * np.abs(shifted).max()


def test_triangle_basis_first_function_is_constant():
    basis = TriangleBasis(3)
    pts = np.array([[0.1, 0.2], [0.5, 0.25], [0.0, 0.9]])
    vals = basis.eval(pts)[:, 0]
    assert np.allclose(vals, np.sqrt(2.0), atol=1e-14)


def test_triangle_basis_derivatives_match_finite_differences():
    basis = TriangleBasis(3)
    rng = np.random.default_rng(7)
    pts = rng.random((6, 2)) * 0.4 + 0.1
    for rx, ry in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        h = 1e-5 if rx + ry == 1 else 1e-4  # second differences lose eps/h^2
        exact = basis.eval_derivative(pts, rx, ry)
        if (rx, ry) == (1, 0):
            fd = (basis.eval(pts + [h, 0]) - basis.eval(pts - [h, 0])) / (2 * h)
        elif (rx, ry) == (0, 1):
            fd = (basis.eval(pts + [0, h]) - basis.eval(pts - [0, h])) / (2 * h)
        elif (rx, ry) == (1, 1):
            fd = (
                basis.eval(pts + [h, h])
                - basis.eval(pts + [h, -h])
                - basis.eval(pts + [-h, h])
                + basis.eval(pts - [h, h])
            ) / (4 * h * h)
        else:
            fd = (
                basis.eval(pts + [h, 0]) - 2 * basis.eval(pts) + basis.eval(pts - [h, 0])
            ) / (h * h)
        scale = np.abs(exact).max() + 1.0
        assert np.abs(exact - fd).max() / scale < 1e-5


def test_derivative_order_beyond_degree_vanishes():
    basis = TriangleBasis(2)
    pts = np.array([[0.3, 0.3]])
    assert np.allclose(basis.eval_derivative(pts, 3, 0), 0.0)
    assert np.allclose(basis.eval_derivative(pts, 1, 2), 0.0)


@pytest.mark.parametrize("degree", [0, 1, 3, 5])
def test_edge_basis_orthogonality(degree):
    # the edge moments' Legendre basis P_0 .. P_degree
    rule = edge_quadrature(degree + 2)
    vals = legvander(rule.points, degree)
    assert vals.shape == (degree + 2, degree + 1)
    gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    # Legendre: diagonal 2 / (2i + 1), off-diagonal zero
    expected = np.diag([2.0 / (2 * i + 1) for i in range(degree + 1)])
    assert np.abs(gram - expected).max() < 1e-13
