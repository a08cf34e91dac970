"""BDM_k velocity elements on the reference triangle.

The reference element is dualized once: its nodal basis is the inverse of
the DOF-functional matrix applied to a spanning set of vector polynomials.
Physical elements are reached through the contravariant Piola map
v = J v_hat / det J.  It preserves edge normal moments up to the sign of the
edge's orientation and parametrization, and the interior moments are taken
against covariantly mapped test fields J^-T phi_hat, for which
int_K v . J^-T phi_hat = int_Khat v_hat . phi_hat.  So on every element the
DOF matrix of the mapped nodal basis is a +-1 diagonal
(``Assembler.dof_sign``), and no element needs a DOF matrix of its own.
Every element is affine, so one batched map evaluates the mapped basis on
all of them at once (``assembly.ShapeFunctions``).
"""

from functools import lru_cache

import numpy as np

from bdmdarcy.femcore.basis import triangle_basis
from bdmdarcy.femcore.quadrature import edge_quadrature, triangle_quadrature

__all__ = [
    "REF_VERTICES",
    "REF_EDGES",
    "BDMElement",
    "bdm_reference_basis",
]

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# edge l is opposite vertex l, traversed counterclockwise
REF_EDGES = ((1, 2), (2, 0), (0, 1))
REF_EDGE_NORMALS = np.array(
    [[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [-1.0, 0.0], [0.0, -1.0]]
)
REF_EDGE_LENGTHS = np.array([np.sqrt(2.0), 1.0, 1.0])

_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # curl w = _ROT @ grad w


def _bubble_times(scalar, pts):
    """Gradients of b*psi for psi in a scalar basis; b = l1 l2 l3."""
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    b = (1.0 - x - y) * x * y
    bx = y - 2.0 * x * y - y**2
    by = x - x**2 - 2.0 * x * y
    vals = scalar.eval(pts)
    gx = scalar.eval_derivative(pts, 1, 0)
    gy = scalar.eval_derivative(pts, 0, 1)
    wx = b[:, None] * gx + bx[:, None] * vals
    wy = b[:, None] * gy + by[:, None] * vals
    return np.stack([wx, wy], axis=-1)  # (npts, dim, 2)


class BDMElement:
    """Reference BDM_k element: full vector polynomials of degree k with
    edge normal moments (k+1 per edge, against Legendre polynomials), moments
    against gradients of P_{k-1} modulo constants, and moments against
    curl(b psi) for psi in P_{k-2} (k >= 2).  On a physical element the
    interior test fields are these reference fields mapped covariantly,
    J^-T grad q and J^-T curl(b psi) in reference coordinates."""

    def __init__(self, k):
        if k < 1:
            raise ValueError("BDM elements need k >= 1")
        self.k = k
        self.scalar = triangle_basis(k)
        self.n_scalar = self.scalar.dim
        self.dim = 2 * self.n_scalar  # (k+1)(k+2)
        self.n_edge_moments = k + 1
        self.n_grad = triangle_basis(k - 1).dim - 1 if k >= 1 else 0
        self.n_curl = triangle_basis(k - 2).dim if k >= 2 else 0
        self.n_interior = self.n_grad + self.n_curl
        assert 3 * self.n_edge_moments + self.n_interior == self.dim

        dof_matrix = self._dof_matrix_span()
        self.dof_condition = float(np.linalg.cond(dof_matrix))
        if not np.isfinite(self.dof_condition) or self.dof_condition > 1e12:
            raise np.linalg.LinAlgError("BDM DOF functional matrix is singular")
        # columns of nodal_coeff express the dual (nodal) basis in the span
        self.nodal_coeff = np.linalg.solve(dof_matrix, np.eye(self.dim))

    # -- span basis: (phi_i, 0) for i < n_scalar, then (0, phi_i) ----------

    def _span_values(self, pts):
        s = self.scalar.eval(pts)
        npts = s.shape[0]
        out = np.zeros((npts, self.dim, 2))
        out[:, : self.n_scalar, 0] = s
        out[:, self.n_scalar :, 1] = s
        return out

    def _span_div(self, pts):
        sx = self.scalar.eval_derivative(pts, 1, 0)
        sy = self.scalar.eval_derivative(pts, 0, 1)
        return np.concatenate([sx, sy], axis=1)

    def _dof_matrix_span(self):
        """DOF functionals applied to the span basis."""
        k = self.k
        rows = []
        edge_rule = edge_quadrature(k + 2)
        leg_vals = np.polynomial.legendre.legvander(edge_rule.points, k)  # (g, k+1)
        for l, (a_idx, b_idx) in enumerate(REF_EDGES):
            a, b = REF_VERTICES[a_idx], REF_VERTICES[b_idx]
            pts = 0.5 * (a + b) + 0.5 * np.outer(edge_rule.points, b - a)
            vals = self._span_values(pts)  # (g, dim, 2)
            vn = vals @ REF_EDGE_NORMALS[l]  # (g, dim)
            w = 0.5 * REF_EDGE_LENGTHS[l] * edge_rule.weights
            rows.append(np.einsum("g,gm,gn->mn", w, leg_vals, vn))
        rule = triangle_quadrature(2 * k)
        vals = self._span_values(rule.points)
        if self.n_grad:
            grads = triangle_basis(k - 1).grad(rule.points)[:, 1:, :]  # skip constant
            rows.append(np.einsum("q,qra,qna->rn", rule.weights, grads, vals))
        if self.n_curl:
            gw = _bubble_times(triangle_basis(k - 2), rule.points)  # (q, r, 2)
            curls = gw @ _ROT.T
            rows.append(np.einsum("q,qra,qna->rn", rule.weights, curls, vals))
        return np.concatenate(rows, axis=0)

    # -- tabulation of the nodal basis ------------------------------------

    def _nodal(self, pts, rx=0, ry=0):
        """Mixed partial of the nodal basis, as one GEMM per component (the
        span's two halves carry the x and y components)."""
        s = self.scalar.eval_derivative(pts, rx, ry)
        c, n = self.nodal_coeff, self.n_scalar
        return np.stack([s @ c[:n], s @ c[n:]], axis=-1)

    def tabulate(self, pts):
        """Nodal basis values at reference points, shape (npts, dim, 2)."""
        return self._nodal(pts)

    def tabulate_div(self, pts):
        return self._span_div(pts) @ self.nodal_coeff

    def tabulate_derivative(self, pts, rx, ry):
        """Reference mixed partial of each nodal basis function."""
        return self._nodal(pts, rx, ry)


@lru_cache(maxsize=None)
def bdm_reference_basis(k):
    """Shared reference elements (dual basis built once per degree)."""
    return BDMElement(k)
