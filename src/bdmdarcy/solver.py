"""Solution of the saddle-point system.

The solve is a hybridized one (Arnold-Brezzi).  Normal continuity
is broken on interior edges and restored by k+1 multipliers per edge; the
element blocks L_K = S_K L^ S_K of ``SaddleSystem.elements`` (every
boundary term belongs to one element) are inverted once per class of
bit-identical blocks L^, in one batched call, and L_K^-1 is S_K L^^-1 S_K
bit for bit (partial pivoting chooses by magnitude, and sign flips are
exact).  What is left is a sparse interface system on the multipliers,
factored once by SuperLU in the order of its unknowns: the interior-edge
multipliers come numbered in nested-dissection order of the triangle tree
(``assembly._nested_dissection``; George 1973, Lipton, Rose & Tarjan 1979),
so SuperLU computes no ordering of its own.  The system's last unknown,
theta (the pressure-mean multiplier with the boundary-mean term folded in;
see ``build_saddle_system``), is the last interface unknown, whose row is
c.p = gauge, and is returned as it is.  Velocity and pressure are recovered
element by element, and one step of iterative refinement against the full
operator (``SaddleSystem.matvec``, applied on the same element blocks)
brings the residual to round-off (element blocks reach condition numbers of
6e8 at ring level 4, and the unrefined residual misses the contract at the
finest studied levels).  No global sparse matrix of the saddle system is
built.

The relative residual of the full operator is verified afterwards; a miss
is reported as ``success=False``, never silently accepted.  A singular
element block or interface matrix raises a ``RuntimeError`` that names it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "solve"]

RESIDUAL_CONTRACT = 1e-10


@dataclass
class SolveReport:
    residual: float
    method: str  # always "lu"; bench/tracer.py counts solves by method
    success: bool
    iterations: int = 0  # always 0; bench/tracer.py sums it as Krylov iterations
    fill: int = 0  # SuperLU's count of stored interface factor entries (lu.nnz)
    n_interface: int = 0  # interface unknowns: interior-edge multipliers and theta


def _residual(system, x, rhs):
    norm_b = np.linalg.norm(rhs)
    r = np.linalg.norm(system.matvec(x) - rhs)
    return r / norm_b if norm_b > 0 else r


def _interface_matrix(el, inv, n):
    """The (n, n) CSC interface matrix sum_K G_K^T L_K^-1 G_K over the
    interior-edge multipliers and theta (the last unknown), from the class
    inverses ``inv``: G~^T L^^-1 G~ is formed once per class, with G~ the
    unsigned edge-dof columns and the c column of theta, and each element's
    block is that one with the rows and columns of its edge dofs times
    sign * S_K.  Its build temporaries are freed on return, before the
    factorization.

    Sums that come out exactly 0.0 stay stored, so the pattern is the union
    of the element blocks' patterns and structurally symmetric.  In the
    natural order that the solve factors in, dropping them (7,807 entries at
    disk k=m=3 level 5) changes neither the fill nor the factor time; under
    the minimum-degree order used before, it gave more fill and a four times
    slower factorization."""
    nd, ne = el.udofs.shape[1], el.sign.shape[1]
    c = np.empty((len(inv), el.c.shape[1]))
    c[el.cls] = el.c  # c_K depends on det only, so it is one per class
    # L^^-1 G~: the edge-dof columns, and the c column of theta
    z = np.concatenate([inv[:, :, :ne], inv[:, :, nd:] @ c[:, :, None]], axis=2)
    local = np.concatenate([z[:, :ne, :], c[:, None, :] @ z[:, nd:, :]], axis=1)[el.cls]
    d = np.concatenate([el.sign * el.flip[:, :ne], np.ones((len(el.cls), 1))], axis=1)
    local *= d[:, :, None]
    local *= d[:, None, :]
    idx = np.concatenate([el.multiplier, np.full((len(el.sign), 1), n - 1)], axis=1)
    keep = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
    # theta's diagonal has one term per element: summed here in element
    # order, as the COO build sums duplicates in an order set by the numbering
    keep[:, -1, -1] = False
    idx = idx.astype(np.int32)
    m = np.count_nonzero(keep)
    rows, cols, values = np.empty(m + 1, np.int32), np.empty(m + 1, np.int32), np.empty(m + 1)
    rows[:m] = np.broadcast_to(idx[:, :, None], local.shape)[keep]
    cols[:m] = np.broadcast_to(idx[:, None, :], local.shape)[keep]
    values[:m] = local[keep]
    rows[m] = cols[m] = n - 1
    values[m] = local[:, -1, -1].sum()
    return sp.csc_matrix((values, (rows, cols)), shape=(n, n))


class _Hybrid:
    """The hybridized inverse of a ``SaddleSystem``: one inverse per class
    of element blocks, the factored interface matrix, and
    ``apply(b)`` ~ M^-1 b."""

    def __init__(self, system):
        el = system.elements
        self.n_u = system.n_u
        self.el = el
        self.nd = el.udofs.shape[1]
        self.ne = el.sign.shape[1]
        self.theta = int(el.multiplier.max()) + 1
        try:
            self.inv = np.linalg.inv(el.matrix)  # one per class
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("hybridized solve failed: singular element block") from exc

        n = self.theta + 1
        matrix = _interface_matrix(el, self.inv, n)
        # the multipliers are numbered in nested-dissection order of the
        # triangle tree (``assembly._nested_dissection``): SuperLU keeps it
        try:
            self.lu = spla.splu(matrix, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise RuntimeError("hybridized solve failed: singular interface matrix") from exc
        self.n_interface = n
        self.fill = int(self.lu.nnz)

        # each shared dof's load goes to the copy on edge_tris[e, 0]
        self.holder = np.ones(el.udofs.shape, dtype=bool)
        self.holder[:, : self.ne] = el.sign >= 0

    def apply(self, b):
        el, nd, ne, n_u = self.el, self.nd, self.ne, self.n_u
        f = np.concatenate(
            [np.where(self.holder, b[el.udofs], 0.0), b[n_u:-1].reshape(el.c.shape)], axis=1
        )
        y = el.apply(f, self.inv)

        g = np.empty(self.theta + 1)
        inner = el.multiplier >= 0
        g[: self.theta] = np.bincount(
            el.multiplier[inner], weights=(el.sign * y[:, :ne])[inner], minlength=self.theta
        )
        g[self.theta] = np.sum(el.c * y[:, nd:]) - b[-1]
        xi = self.lu.solve(g)

        f[:, :ne] -= el.sign * xi[el.multiplier]  # sign 0 where there is no multiplier
        f[:, nd:] -= el.c * xi[self.theta]
        x_loc = el.apply(f, self.inv)

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
    report = SolveReport(res, "lu", res <= RESIDUAL_CONTRACT,
                         fill=hybrid.fill, n_interface=hybrid.n_interface)
    u, p, theta = system.split(x)
    return u, p, theta, report

