"""Solution of the saddle-point system and pressure gauge post-processing.

The solve is a hybridized one (Arnold-Brezzi).  Normal continuity
is broken on interior edges and restored by k+1 multipliers per edge; the
element blocks L_K = [A_K B1_K^T; B0_K 0] of ``SaddleSystem.elements``
(every boundary term belongs to one element) are inverted in one batched
call, and what is left is a sparse interface system on the multipliers,
factored once by SuperLU.  The system's last unknown, theta (the
pressure-mean multiplier with the boundary-mean term folded in,
theta = lam + flux.u / area; see ``SaddleSystem``), is one more interface
unknown, whose row is c.p = gauge, and is returned as it is.  Velocity
and pressure are recovered element by element, and one step of iterative
refinement against the full operator (``SaddleSystem.matvec``, applied on
the same element blocks) brings the residual to round-off (element blocks
reach condition numbers of 6e8 at ring level 4, and the unrefined residual
misses the contract at the finest studied levels).  No global sparse matrix
of the saddle system is built.

The relative residual of the full operator is verified afterwards; a miss
is reported as ``success=False``, never silently accepted.  A singular
element block or interface matrix raises a ``RuntimeError`` that names it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "solve", "postprocess_pressure"]

RESIDUAL_CONTRACT = 1e-10


@dataclass
class SolveReport:
    residual: float
    method: str  # always "lu"; bench/tracer.py counts solves by method
    dimension: int
    success: bool
    iterations: int = 0  # always 0; bench/tracer.py sums it as Krylov iterations
    fill: int = 0  # L.nnz + U.nnz of the interface factorization
    n_interface: int = 0  # interface unknowns: interior-edge multipliers and theta


def _residual(system, x, rhs):
    norm_b = np.linalg.norm(rhs)
    r = np.linalg.norm(system.matvec(x) - rhs)
    return r / norm_b if norm_b > 0 else r


class _Hybrid:
    """The hybridized inverse of a ``SaddleSystem``: local inverses, the
    factored interface matrix, and ``apply(b)`` ~ M^-1 b."""

    def __init__(self, system):
        el = system.elements
        self.n_u = system.n_u
        self.el = el
        self.nd = el.udofs.shape[1]
        self.ne = el.sign.shape[1]
        self.theta = int(el.multiplier.max()) + 1
        try:
            self.inv = np.linalg.inv(el.matrix)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("hybridized solve failed: singular element block") from exc

        # L_K^-1 G_K: the signed edge-dof columns, and the c_K column of theta
        inv, sign, nd, ne = self.inv, el.sign, self.nd, self.ne
        z = np.concatenate(
            [inv[:, :, :ne] * sign[:, None, :], inv[:, :, nd:] @ el.c[:, :, None]], axis=2
        )
        # G_K^T L_K^-1 G_K, scattered over the interface unknowns
        local = np.concatenate(
            [sign[:, :, None] * z[:, :ne, :], el.c[:, None, :] @ z[:, nd:, :]], axis=1
        )
        idx = np.concatenate([el.multiplier, np.full((len(sign), 1), self.theta)], axis=1)
        keep = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
        rows = np.broadcast_to(idx[:, :, None], local.shape)[keep]
        cols = np.broadcast_to(idx[:, None, :], local.shape)[keep]
        n = self.theta + 1
        matrix = sp.csc_matrix((local[keep], (rows, cols)), shape=(n, n))
        # the pattern is symmetric (the values nearly so): minimum degree on
        # A^T + A gives well under half the fill of the default COLAMD
        try:
            self.lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise RuntimeError("hybridized solve failed: singular interface matrix") from exc
        self.n_interface = n
        self.fill = int(self.lu.L.nnz + self.lu.U.nnz)

        # each shared dof's load goes to the copy on edge_tris[e, 0]
        self.holder = np.ones(el.udofs.shape, dtype=bool)
        self.holder[:, :ne] = sign >= 0

    def apply(self, b):
        el, nd, ne, n_u = self.el, self.nd, self.ne, self.n_u
        f = np.concatenate(
            [np.where(self.holder, b[el.udofs], 0.0), b[n_u:-1].reshape(el.c.shape)], axis=1
        )
        y = (self.inv @ f[:, :, None])[:, :, 0]

        g = np.empty(self.theta + 1)
        inner = el.multiplier >= 0
        g[: self.theta] = np.bincount(
            el.multiplier[inner], weights=(el.sign * y[:, :ne])[inner], minlength=self.theta
        )
        g[self.theta] = np.sum(el.c * y[:, nd:]) - b[-1]
        xi = self.lu.solve(g)

        f[:, :ne] -= el.sign * xi[el.multiplier]  # sign 0 where there is no multiplier
        f[:, nd:] -= el.c * xi[self.theta]
        x_loc = (self.inv @ f[:, :, None])[:, :, 0]

        u = np.empty(n_u)
        u[el.udofs[self.holder]] = x_loc[:, :nd][self.holder]
        return np.concatenate([u, x_loc[:, nd:].ravel(), [xi[self.theta]]])


def solve(system, rhs=None):
    """Solve the assembled system; returns (u, p, theta, report), with theta
    the border unknown of ``SaddleSystem``.

    One hybridized solve and one refinement step against the element-block
    operator; the report's ``success`` says whether the residual meets the
    contract.
    """
    rhs = system.rhs if rhs is None else rhs
    hybrid = _Hybrid(system)
    x = hybrid.apply(rhs)
    x += hybrid.apply(rhs - system.matvec(x))
    res = _residual(system, x, rhs)
    report = SolveReport(res, "lu", system.dimension, res <= RESIDUAL_CONTRACT,
                         fill=hybrid.fill, n_interface=hybrid.n_interface)
    u, p, theta = system.split(x)
    return u, p, theta, report


def postprocess_pressure(p, assembler):
    """Shift a pressure vector to the zero-mean representative over the
    meshed region."""
    c = assembler.pressure_integrals()
    mean = float(c @ p) / assembler.area
    return p - mean * assembler.constant_pressure()
