"""Exactness of the reference quadrature rules against closed forms."""

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmdarcy.femcore import edge_quadrature, triangle_quadrature


def monomial_integral(a, b):
    # int over the reference triangle of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(0, 12))
def test_triangle_rule_exact_to_degree(degree):
    rule = triangle_quadrature(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert got == pytest.approx(monomial_integral(a, b), abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40))
def test_triangle_rule_positive_inside_and_exact(degree):
    # one rule family for every degree, the lowest ones included
    rule = triangle_quadrature(degree)
    x, y = rule.points.T
    assert rule.degree == degree and np.all(rule.weights > 0)
    assert np.all(x > 0) and np.all(y > 0) and np.all(x + y <= 1)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(rule.weights * x**a * y**b)
            assert abs(got - monomial_integral(a, b)) <= 1e-14


def test_triangle_weights_sum_to_area():
    for degree in (1, 3, 5, 8):
        assert triangle_quadrature(degree).weights.sum() == pytest.approx(0.5, abs=1e-14)


def test_triangle_area_and_first_moment():
    rule = triangle_quadrature(4)
    assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-15)
    assert np.sum(rule.weights * rule.points[:, 0]) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_triangle_x2y2_closed_form():
    # a! b! / (a+b+2)! with a = b = 2
    rule = triangle_quadrature(6)
    got = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
    assert got == pytest.approx(1.0 / 180.0, abs=1e-15)


def test_degree_validation():
    with pytest.raises(ValueError):
        triangle_quadrature(-1)
    with pytest.raises(ValueError):
        edge_quadrature(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_edge_rule(n):
    rule = edge_quadrature(n)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    for j in range(1, n + 1):
        odd = np.sum(rule.weights * rule.points ** (2 * j - 1))
        assert odd == pytest.approx(0.0, abs=1e-14)
    # even monomials up to the stated degree 2n - 1
    for j in range(0, n):
        got = np.sum(rule.weights * rule.points ** (2 * j))
        assert got == pytest.approx(2.0 / (2 * j + 1), abs=1e-13)
