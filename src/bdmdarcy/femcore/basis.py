"""Orthonormal polynomial bases on the reference triangle."""

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

import numpy as np

__all__ = ["TriangleBasis"]


def _monomial_exponents(degree):
    """Graded ordering (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ..."""
    return [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]


def _monomial_gram_exact(exps):
    """Exact rational L2 Gram of monomials on the reference triangle,
    from the closed form  int x^a y^b = a! b! / (a + b + 2)!."""
    n = len(exps)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i, (ai, bi) in enumerate(exps):
        for j, (aj, bj) in enumerate(exps[: i + 1]):
            a, b = ai + aj, bi + bj
            g[i][j] = g[j][i] = Fraction(factorial(a) * factorial(b), factorial(a + b + 2))
    return g


def _sqrt_fraction(q):
    """High-accuracy float sqrt of a positive rational."""
    scale = 10**40
    return isqrt((q.numerator * scale * scale) // q.denominator) / scale


def _orthonormal_coeff(exps):
    """Orthonormalizing coefficient matrix via an exact rational LDL^T
    factorization of the Gram matrix; only the final scaling by 1/sqrt(D)
    leaves exact arithmetic."""
    g = _monomial_gram_exact(exps)
    n = len(exps)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        diag[j] = g[j][j] - sum(lower[j][t] ** 2 * diag[t] for t in range(j))
        lower[j][j] = Fraction(1)
        for i in range(j + 1, n):
            lower[i][j] = (g[i][j] - sum(lower[i][t] * lower[j][t] * diag[t] for t in range(j))) / diag[j]
    # forward-substitute L X = I exactly
    inv = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for row in range(col, n):
            s = Fraction(1) if row == col else Fraction(0)
            s -= sum(lower[row][t] * inv[t][col] for t in range(col, row))
            inv[row][col] = s
    coeff = np.empty((n, n))
    for i in range(n):
        scale = 1.0 / _sqrt_fraction(diag[i])
        for j in range(n):
            coeff[i, j] = float(inv[i][j]) * scale
    return coeff


class TriangleBasis:
    """L2-orthonormal basis of P_degree on the triangle {(0,0),(1,0),(0,1)}.

    Built by orthonormalizing the monomial basis against the exact rational
    Gram matrix, so the coefficient matrix is exact up to the final float
    conversion.  Values and arbitrary mixed partials are evaluated through
    the (exact) monomial derivative tables.
    """

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.exponents = _monomial_exponents(degree)
        self.dim = len(self.exponents)
        self._coeff = _orthonormal_coeff(self.exponents)
        self._dcache = {}

    def _derivative_coeff(self, rx, ry):
        """Coefficients of the (rx, ry) mixed partial in the monomial basis."""
        key = (rx, ry)
        if key not in self._dcache:
            dmat = np.zeros((self.dim, self.dim))
            index = {e: i for i, e in enumerate(self.exponents)}
            for p, (a, b) in enumerate(self.exponents):
                if a < rx or b < ry:
                    continue
                factor = (factorial(a) // factorial(a - rx)) * (
                    factorial(b) // factorial(b - ry)
                )
                dmat[index[(a - rx, b - ry)], p] = factor
            self._dcache[key] = self._coeff @ dmat.T
        return self._dcache[key]

    def _vandermonde(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0, None], pts[:, 1, None]
        ax = np.array([e[0] for e in self.exponents])
        by = np.array([e[1] for e in self.exponents])
        return x**ax * y**by

    def eval(self, pts):
        """Basis values, shape (npts, dim)."""
        return self._vandermonde(pts) @ self._coeff.T

    def eval_derivative(self, pts, rx, ry):
        """Mixed partial d^rx/dx d^ry/dy of each basis function, (npts, dim)."""
        if rx == 0 and ry == 0:
            return self.eval(pts)
        return self._vandermonde(pts) @ self._derivative_coeff(rx, ry).T

    def grad(self, pts):
        """Gradients, shape (npts, dim, 2)."""
        return np.stack(
            [self.eval_derivative(pts, 1, 0), self.eval_derivative(pts, 0, 1)], axis=-1
        )


@lru_cache(maxsize=None)
def triangle_basis(degree):
    """Shared, immutable TriangleBasis instances."""
    return TriangleBasis(degree)

