"""Orthonormal polynomial bases on the reference triangle.

The basis is the collapsed-coordinate (Dubiner) one (Dubiner 1991; Sherwin
& Karniadakis 1995), phi_pq = P_p(a) ((1 - b)/2)^p P_q^(2p+1,0)(b) scaled to
unit L2 norm by sqrt(2 (2p + 1) (p + q + 1)), evaluated by its three-term
recurrences in Cartesian coordinates, with no division by 1 - y (Kirby
2010, ACM TOMS 37).

Partials come from two derivative matrices: dx phi_i = sum_j Dx[i, j] phi_j
over deg phi_j < deg phi_i, and by parts Dx[i, j] = oint phi_i phi_j n_x ds,
since the volume term's dx phi_j has a lower degree than phi_i.  So Dx and
Dy are the lower-degree parts of two boundary Gram matrices, and a mixed
partial is phi @ (Dx^rx Dy^ry)^T.
"""

from functools import lru_cache

import numpy as np

from bdmdarcy.femcore.quadrature import edge_quadrature

__all__ = ["TriangleBasis"]


def _jacobi_step(alpha, n):
    """P_{n+1} = (a x + b) P_n - c P_{n-1} for the Jacobi P^(alpha, 0)."""
    s = 2 * n + alpha
    a = (s + 1) * (s + 2) / (2 * (n + 1) * (n + alpha + 1))
    b = alpha * alpha * (s + 1) / (2 * (n + 1) * (n + alpha + 1) * s)
    c = n * (n + alpha) * (s + 2) / ((n + 1) * (n + alpha + 1) * s)
    return a, b, c


class TriangleBasis:
    """L2-orthonormal basis of P_degree on the triangle {(0,0),(1,0),(0,1)}.

    Degree d occupies slots d(d+1)/2 ... (d+1)(d+2)/2 - 1, so the first
    function is the constant sqrt(2).
    """

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.dim = (degree + 1) * (degree + 2) // 2
        # eval works on rows ordered by q, then p: row block q holds phi_pq
        # for p = 0 .. degree - q, and takes the Jacobi steps P_q -> P_{q+1}
        # of P^(2p+1, 0) from blocks q and q - 1; _order sorts them by slot
        p_q = [np.arange(degree + 1 - q) for q in range(degree + 1)]
        self._blocks = np.cumsum([0] + [len(p) for p in p_q])
        self._steps = [
            tuple(c[:, None] for c in _jacobi_step(2 * p_q[q + 1] + 1, q)) for q in range(degree)
        ]
        p, q = np.concatenate(p_q), np.repeat(np.arange(degree + 1), np.arange(degree + 1, 0, -1))
        self._order = np.argsort((p + q) * (p + q + 1) // 2 + q)
        self._norms = np.sqrt(2.0 * (2 * p + 1) * (p + q + 1))[:, None]
        # oint phi_i phi_j n ds: on x + y = 1 the length element times n is
        # (1, 1) ds, on x = 0 it is (-1, 0) ds, on y = 0 it is (0, -1) ds
        rule = edge_quadrature(degree + 1)
        s, w = 0.5 * (1.0 + rule.points), 0.5 * rule.weights
        hyp, left, bottom = (
            self.eval(np.column_stack(xy)) for xy in ((1.0 - s, s), (0.0 * s, s), (s, 0.0 * s))
        )
        slanted = (hyp.T * w) @ hyp
        deg = np.repeat(np.arange(degree + 1), np.arange(1, degree + 2))
        lower = deg[:, None] > deg[None, :]
        self._dx = np.where(lower, slanted - (left.T * w) @ left, 0.0)
        self._dy = np.where(lower, slanted - (bottom.T * w) @ bottom, 0.0)
        self._dcache = {}

    def eval(self, pts):
        """Basis values, shape (npts, dim)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        n, r = self.degree, self._blocks
        f1, f2 = 2.0 * x + y - 1.0, (1.0 - y) ** 2  # a (1 - b)/2 and ((1 - b)/2)^2
        eta = 2.0 * y - 1.0
        phi = np.empty((self.dim, len(x)))
        # q = 0: P_p(a) ((1 - b)/2)^p by Legendre's recurrence in p
        phi[0] = 1.0
        if n:
            phi[1] = f1
        for p in range(1, n):
            phi[p + 1] = ((2 * p + 1) * f1 * phi[p] - p * f2 * phi[p - 1]) / (p + 1)
        # times P_q^(2p+1,0)(eta) by Jacobi's recurrence in q, all p at once
        for q, (a, b, c) in enumerate(self._steps):
            step = (a * eta + b) * phi[r[q] : r[q] + n - q]
            if q:
                step -= c * phi[r[q - 1] : r[q - 1] + n - q]
            phi[r[q + 1] : r[q + 2]] = step
        phi *= self._norms
        return np.ascontiguousarray(phi[self._order].T)

    def eval_derivative(self, pts, rx, ry):
        """Mixed partial d^rx/dx d^ry/dy of each basis function, (npts, dim)."""
        if rx == 0 and ry == 0:
            return self.eval(pts)
        key = (rx, ry)
        if key not in self._dcache:
            power = np.linalg.matrix_power
            self._dcache[key] = (power(self._dx, rx) @ power(self._dy, ry)).T
        return self.eval(pts) @ self._dcache[key]

    def grad(self, pts):
        """Gradients, shape (npts, dim, 2)."""
        return np.stack(
            [self.eval_derivative(pts, 1, 0), self.eval_derivative(pts, 0, 1)], axis=-1
        )


@lru_cache(maxsize=None)
def triangle_basis(degree):
    """Shared, immutable TriangleBasis instances."""
    return TriangleBasis(degree)
