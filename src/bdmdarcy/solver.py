"""Solution of the saddle-point system.

The solve is a hybridized one (Arnold-Brezzi).  Normal continuity
is broken on interior edges and restored by k+1 multipliers per edge; the
element blocks L_K = S_K L^ S_K of ``SaddleSystem.elements`` (every
boundary term belongs to one element) are inverted once per class of
bit-identical blocks L^, in one batched call, and L_K^-1 is S_K L^^-1 S_K
bit for bit (partial pivoting chooses by magnitude, and sign flips are
exact).  What is left is a sparse interface system on the multipliers.
Its CSC is written in place from the class-level blocks G~^T L^^-1 G~,
a chunk of interior edges at a time, into arrays of exactly its size
(``_interface_matrix``): no per-element block or COO triplet is formed,
so the build holds little more than its result while SuperLU allocates.
It is factored once by SuperLU in the order of its unknowns: the interior-edge
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


EDGE_CHUNK = 1024  # interior edges per batch of ``_interface_matrix``


def _interface_matrix(el, inv, n):
    """The (n, n) canonical CSC interface matrix sum_K G_K^T L_K^-1 G_K over
    the interior-edge multipliers and theta (the last unknown), from the
    class inverses ``inv``: G~^T L^^-1 G~ is formed once per class, with G~
    the unsigned edge-dof columns and the c column of theta, and element K's
    block is its class's with the rows and columns of its edge dofs times
    sign * S_K.  No per-element block is formed.

    The CSC is written in place, into arrays of exactly its size, EDGE_CHUNK
    interior edges at a time.  A column is one of the k+1 multipliers of an
    interior edge E (they are numbered edge by edge), and its rows are the
    edge blocks of E's two triangles, at most five, in ascending multiplier
    order, then theta: E's own block and theta's row take the sum of the two
    triangles' terms, each other block the term of its one triangle.
    Theta's column comes last; its diagonal has one term per element,
    summed in element order.  So every entry is the sum of the terms that a
    COO build of the element blocks adds (two terms commute bit for bit),
    and the matrix is that build's, byte for byte: nnz is
    sum_E (k+1)((k+1) blocks_E + 1) + n.

    Sums that come out exactly 0.0 stay stored, so the pattern is the union
    of the element blocks' patterns and structurally symmetric.  In the
    natural order that the solve factors in, dropping them (7,807 entries at
    disk k=m=3 level 5) changes neither the fill nor the factor time; under
    the minimum-degree order used before, it gave more fill and a four times
    slower factorization."""
    nd, ne = el.udofs.shape[1], el.sign.shape[1]
    k1 = ne // 3  # multipliers per edge
    # the two copies of each interior edge, (triangle, local edge), the copy
    # on edge_tris[e, 0] (sign +1) first
    first = el.multiplier[:, ::k1]  # each local edge's first multiplier, -1 on the boundary
    tri, slot = np.nonzero(first >= 0)
    edge, side = first[tri, slot] // k1, (el.sign[tri, slot * k1] < 0).astype(np.intp)
    m = (n - 1) // k1
    tris, slots = np.empty((m, 2), np.intp), np.empty((m, 2), np.intp)
    tris[edge, side], slots[edge, side] = tri, slot
    del tri, slot, edge, side
    length = k1 * (np.count_nonzero(first[tris] >= 0, axis=(1, 2)) - 1) + 1  # per column
    indptr = np.empty(n + 1, np.int32)
    indptr[0] = 0
    np.cumsum(np.repeat(length, k1), out=indptr[1:-1])
    indptr[-1] = indptr[-2] + n
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], np.int32)

    # the class blocks come after the result, so that they and the chunks'
    # buffers, all freed on return, lie above it: this order peaked lower in
    # the benchmark (ring k=3 level 4: 215 against 219 MB)
    c = np.empty((len(inv), el.c.shape[1]))
    c[el.cls] = el.c  # c_K depends on det only, so it is one per class
    # G~^T L^^-1 G~ per class: the edge-dof rows of L^^-1 G~ (its c column
    # is L^^-1 c), then theta's row c^T times its pressure rows
    lc = inv[:, :, nd:] @ c[:, :, None]
    q = np.empty((len(inv), ne + 1, ne + 1))
    q[:, :ne, :ne] = inv[:, :ne, :ne]
    q[:, :ne, ne:] = lc[:, :ne]
    q[:, ne:, :ne] = c[:, None, :] @ inv[:, nd:, :ne]
    q[:, ne:, ne:] = c[:, None, :] @ lc[:, nd:]
    del lc

    i, width = np.arange(k1), 5 * k1 + 1  # a column's rows, at most
    theta = indptr[-2]
    for lo in range(0, m, EDGE_CHUNK):
        t, s = tris[lo : lo + EDGE_CHUNK], slots[lo : lo + EDGE_CHUNK]
        size, a = len(t), np.arange(len(t))
        own = s[:, None, :] * k1 + i[:, None]  # E's local dofs, (C, k+1, copy)
        block = el.cls[t][:, None, :]
        d = el.sign[t] * el.flip[t, :ne]
        d_own = d[a[:, None, None], np.arange(2), own]
        # v[e, j, s, r]: edge row r of E's column j in copy s, signed
        v = q[block, :ne, own]
        v *= d[:, None]
        v *= d_own[..., None]
        v = v.reshape(size, k1, 6, k1)  # by (copy, local edge) block
        v[a, :, s[:, 0]] += v[a, :, 3 + s[:, 1]]  # E's block, once
        # the column: the blocks by ascending multiplier, theta's row, unused
        key = first[t].reshape(size, 6)
        key[key < 0] = n
        key[a, 3 + s[:, 1]] = n
        order = np.argsort(key, axis=1)[:, :5]
        end = length[lo : lo + size] - 1  # theta's place
        col = np.empty((size, k1, width))
        pick = (k1 * a[:, None, None] + i[:, None]) * 6 + order[:, None, :]  # (C, k+1, 5) blocks
        col[:, :, :-1] = v.reshape(-1, k1)[pick].reshape(size, k1, -1)
        term = q[block, ne, own] * d_own
        col[a, :, end] = term[:, :, 0] + term[:, :, 1]
        rows = np.empty((size, width), np.int32)
        rows[:, :-1] = (np.take_along_axis(key, order, axis=1)[:, :, None] + i).reshape(size, -1)
        rows[a, end] = n - 1
        used = np.broadcast_to((np.arange(width) <= end[:, None])[:, None], col.shape)
        span = slice(indptr[k1 * lo], indptr[k1 * (lo + size)])
        data[span], indices[span] = col[used], np.broadcast_to(rows[:, None], col.shape)[used]
        # theta's column: E's rows of the c column, the two copies summed
        term = q[block, own, ne] * d_own
        data[theta + k1 * lo : theta + k1 * (lo + size)] = (term[:, :, 0] + term[:, :, 1]).ravel()
    indices[theta:] = np.arange(n)
    data[-1] = q[el.cls, ne, ne].sum()
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


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

