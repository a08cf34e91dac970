"""Solution of the saddle-point system.

The solve is a hybridized one (Arnold-Brezzi).  Normal continuity
is broken on interior edges and restored by k+1 multipliers per edge; the
element blocks L_K = S_K L^ S_K of ``SaddleSystem.elements`` (every
boundary term belongs to one element) are inverted once per class, an
element shape up to round-off whose members share one block L^, in one
batched call, and L_K^-1 is S_K L^^-1 S_K bit for bit (partial pivoting
chooses by magnitude, and sign flips are exact).  What is left is a sparse
interface system on the multipliers, which the solver numbers edge by
edge: it orders the table of each interior edge's two copies
(``ElementBlocks.copies``) by nested dissection of the triangle tree
(``_nested_dissection``; George 1973, Lipton, Rose & Tarjan 1979), and
factors it on that tree in dense fronts (``_Fronts``;
multifrontal: Duff & Reid 1983, Liu 1992), one batched step per bit of the
triangle index, with numpy alone; the factor is kept as three arrays per
bit, and each sweep of a solve is one gather, one batched product and one
scatter per bit.  No interface matrix is assembled: each element's block
G~^T L_K^-1 G~ (``_leaves``, signed from the class-level blocks in the
batch of fronts that takes it) goes straight into the front where its
first multiplier is eliminated.  ``_Hybrid.apply`` gathers the load
straight into the round order of ``ElementBlocks.apply`` (one batched
product per round, on a prefix of the class inverses, then one per tail)
and ties the copies edge by edge.  The system's last unknown,
theta (the pressure-mean multiplier with the boundary-mean term folded in;
see ``build_saddle_system``), is the last interface unknown, whose row is
c.p = gauge, and is returned as it is.  Velocity and pressure are recovered
element by element, and iterative refinement against the full operator
(``SaddleSystem.matvec``, applied on the same element blocks) brings the
residual to round-off (element blocks reach condition numbers of 6e8 at
ring level 4, and the unrefined residual misses the contract at the
finest studied levels).  The fronts apply explicit inverses of their
separator blocks, which on ill-conditioned interfaces (thin rings at high
degree) leaves the first solve less accurate than an LU solve would; the
refinement goes on while each step halves the residual, as LAPACK's
xGERFS does (Wilkinson 1963; Skeel 1980), so those cases take more steps.
No global sparse matrix of the saddle system is built, and the solve
imports no scipy.

The relative residual of the full operator is verified afterwards; a miss
is reported as ``success=False``, never silently accepted.  A singular
element block or interface matrix raises a ``RuntimeError`` that names it.
"""

from dataclasses import dataclass
from math import isqrt
from types import SimpleNamespace

import numpy as np

__all__ = ["SolveReport", "solve"]

RESIDUAL_CONTRACT = 1e-10
# refinement steps at most: a step is kept if it lowers the residual, and
# the next is taken if it halved it (the rule of LAPACK's xGERFS).  The
# fronts apply explicit separator inverses, so one step can leave the
# residual far above round-off on ill-conditioned interfaces: 5.0e-8 at
# k=6, level 1, on the ring of radii 0.01 and 0.01112, which four steps
# bring to 1.9e-14
MAX_REFINEMENT_STEPS = 5


@dataclass
class SolveReport:
    residual: float
    success: bool
    fill: int = 0  # stored entries of the interface's fronts: sum of s^2 + 2 s b
    n_interface: int = 0  # interface unknowns: interior-edge multipliers and theta
    # read by bench/tracer.py: every solve is one LU, with no Krylov iterations
    method, iterations = "lu", 0


def _nested_dissection(copies):
    """The edge table's rows in nested-dissection order of the triangle
    tree.  Red refinement numbers the children of triangle t 4t..4t+3, so an
    edge whose triangles first differ in bit b - 1 separates two subtrees
    of the subtree t >> b: edges come by that bit (finest separators first),
    then by the subtree, then by index.  On any other numbering this is a
    recursive bisection of the triangle index range, still a valid order."""
    t1, t2 = copies[:, 0, 0], copies[:, 1, 0]
    bit = np.frexp(t1 ^ t2)[1]  # bit_length, exact below 2^53
    return np.lexsort((np.arange(len(copies)), t1 >> bit, bit))


def _leaves(el, inv, tris, slots):
    """``leaves(rows)``: the elements ``rows``' blocks of the interface
    matrix sum_K G_K^T L_K^-1 G_K, (len(rows), 3(k+1) + 1, 3(k+1) + 1) on
    their local edge dofs and theta, from the class inverses ``inv``:
    G~^T L^^-1 G~ is formed once per class, with G~ the unsigned edge-dof
    columns and the c column of theta, and element K's block is its
    class's with the rows and columns of its edge dofs times sign * S_K,
    with sign +1 on copy 0 of an edge of the table (tris, slots), -1 on
    copy 1 and 0 on a boundary edge.  The factor builds them a batch of
    fronts at a time, so no (nel, 3(k+1) + 1, 3(k+1) + 1) array is held."""
    nd = el.udofs.shape[1]
    ne = 3 * isqrt(nd)  # edge dofs: nd = (k+1)(k+2)
    c = np.empty((len(inv), el.c.shape[1]))
    c[el.cls] = el.c  # c_K is its class representative's, so it is one per class
    # the edge-dof rows of L^^-1 G~ (its c column is L^^-1 c), then theta's
    # row c^T times its pressure rows
    lc = inv[:, :, nd:] @ c[:, :, None]
    q = np.empty((len(inv), ne + 1, ne + 1))
    q[:, :ne, :ne] = inv[:, :ne, :ne]
    q[:, :ne, ne:] = lc[:, :ne]
    q[:, ne:, :ne] = c[:, None, :] @ inv[:, nd:, :ne]
    q[:, ne:, ne:] = c[:, None, :] @ lc[:, nd:]
    sign = np.zeros((len(el.cls), 3))
    sign[tris, slots] = (1.0, -1.0)

    def leaves(rows):
        d = np.ones((len(rows), ne + 1))
        d[:, :ne] = sign[rows].repeat(ne // 3, axis=1) * el.flip[rows, :ne]
        out = q[el.cls[rows]]
        out *= d[:, :, None]
        out *= d[:, None, :]
        return out

    return leaves


def _extend_add(parent, at, f):
    """The flat positions of child blocks in fronts of size f, flat, with a
    spare last row and column: child c goes to front ``parent[c]``, and its
    dofs, (edge slot, k+1 dofs) then theta, to the front dofs ``at[c]`` (f
    for a slot without a multiplier) then f - 1."""
    pos = np.full((len(at), at[0].size + 1), f - 1)
    pos[:, :-1] = at.reshape(len(at), -1)
    idx = (parent * (f + 1) ** 2)[:, None] + pos * (f + 1)
    return (idx[:, :, None] + pos[:, None, :]).ravel()


def _tree(tris, n_tri, k1):
    """The fronts of the refinement tree, bit by bit from the lowest, for
    the triangles ``tris`` of the edge table in ``_nested_dissection``
    order (see ``_Fronts``).  Per bit with fronts, a namespace of: the
    fronts' nodes ``fronts`` and the front of each node ``index`` (-1:
    none); their separator edge counts ``n_sep``; the padded front size f,
    its eliminated dofs s (the separator, and theta in the root) and the
    padded separator's ``pad`` dofs; ``slot``, each edge code's slot in its
    front (2 i + side: a copy of row i; 2m: none); the multipliers of the
    fronts' separator and boundary dofs ``sep`` and ``bnd`` (n: padding);
    the codes of the boundary slots ``bcodes``; and ``fill``, the fronts'
    s^2 + 2 s b without the padding."""
    m = len(tris)
    n, dof = k1 * m + 1, np.arange(k1)
    t1, t2 = tris[:, 0], tris[:, 1]
    bit = np.frexp(t1 ^ t2)[1]  # bit_length, exact below 2^53
    top = max(int(n_tri - 1).bit_length(), 1)
    for b in range(1, top + 1):
        rows = np.flatnonzero(bit == b)  # by node, then index
        node = t1[rows] >> b
        fronts = np.unique(node) if b < top else np.zeros(1, np.int64)
        if not len(fronts):
            continue
        index = np.full(((n_tri - 1) >> b) + 1, -1)
        index[fronts] = np.arange(len(fronts))
        n_sep = np.bincount(index[node], minlength=len(fronts))
        rank = np.arange(len(rows)) - (np.cumsum(n_sep) - n_sep)[index[node]]
        alive = np.flatnonzero(bit > b)
        code = np.concatenate([2 * alive, 2 * alive + 1])
        owner = index[np.concatenate([t1[alive], t2[alive]]) >> b]
        code, owner = code[owner >= 0], owner[owner >= 0]
        order = np.lexsort((code, owner))
        code, owner = code[order], owner[order]
        n_bnd = np.bincount(owner, minlength=len(fronts))
        b_rank = np.arange(len(code)) - (np.cumsum(n_bnd) - n_bnd)[owner]
        s_edges, b_edges = n_sep.max(initial=0), n_bnd.max(initial=0)
        f = k1 * (s_edges + b_edges) + 1  # separator, boundary, theta
        slot = np.zeros(2 * m + 1, np.int64)
        slot[2 * rows], slot[2 * rows + 1] = rank, rank
        slot[code] = s_edges + b_rank

        sep = np.full((len(fronts), s_edges, k1), n)
        sep[index[node], rank] = k1 * rows[:, None] + dof
        sep = sep.reshape(len(fronts), -1)
        bnd = np.full((len(fronts), b_edges, k1), n)
        bnd[owner, b_rank] = k1 * (code[:, None] >> 1) + dof
        bnd = np.concatenate([bnd.reshape(len(fronts), -1), np.full((len(fronts), 1), n - 1)], 1)
        bcodes = np.full((len(fronts), b_edges), 2 * m)
        bcodes[owner, b_rank] = code
        s, s_true, b_true = k1 * s_edges, k1 * n_sep, k1 * n_bnd + 1
        if b == top:  # the root eliminates theta too
            sep, bnd, s, s_true, b_true = np.concatenate([sep, bnd], axis=1), bnd[:, :0], f, s_true + 1, 0
        yield SimpleNamespace(b=b, fronts=fronts, index=index, n_sep=n_sep, f=f, s=s,
                              pad=k1 * s_edges, slot=slot, sep=sep, bnd=bnd, bcodes=bcodes,
                              fill=int(np.sum(s_true**2 + 2 * s_true * b_true)))


# front entries per batch of ``_Fronts`` (1 MB): with each bit's fronts in
# one batch, the front, its bincount, the flat indices and the Schur
# complement peaked 40 MB above what the factor keeps at ring k=3 level 4,
# and what glibc keeps of such freed batches raised the benchmark's peak by
# 29% there; batches of 2**17 entries (1 MB) cost 3% of the factor's time
FRONT_CHUNK = 2**17


class _Fronts:
    """The interface matrix factored on the refinement tree (multifrontal;
    Duff & Reid 1983, Liu 1992), and ``solve(g)`` ~ its inverse times g.

    The multipliers come numbered by ``_nested_dissection``; row i of the
    edge table (triangles t1 < t2) has k+1 multipliers and is eliminated at
    the tree node (bit, t1 >> bit), bit the bit length of t1 ^ t2: the node
    is the triangle range t >> bit, and the edge separates its two halves.
    A node with such edges is a front.  Its separator is its edges, its
    boundary the interior edges with one triangle in it (their bit is
    higher), and theta, which is in every front's boundary and is
    eliminated last, in the root (the node of the top bit, which holds
    every triangle).  The children of a front are the elements (the
    leaves: element t's signed block G~^T L_t^-1 G~ of ``_leaves``, on its
    local edge dofs and theta, zero on its boundary edges) and the fronts
    below it whose lowest front ancestor it is.  Each of their variables is
    in its front, as separator or boundary.

    The fronts of one bit are padded to the largest separator and boundary
    of that bit (identity on padded separator dofs, zero on padded boundary
    dofs) and go in batches of about FRONT_CHUNK entries.  A batch's
    children enter it through one flat index map (``_extend_add``) and one
    ``bincount`` over all of them, which sums the terms of an entry in a
    fixed order; one batched LAPACK inverse (LU with partial pivoting) of
    the separator blocks F11 follows, then the Schur update
    F22 - F21 F11^-1 F12, which waits, one array per batch, as a child of
    the fronts above and is freed once they are built.  A waiting source
    whose rows go to fronts of two bits is split in two when the lower
    one is built, and freed at once.  The leaves wait as element numbers,
    and a batch signs its own from the class-level blocks, which are freed
    once every leaf is in its front.  Kept, in one
    buffer, are F11^-1, F11^-1 F12 and F21, three arrays per bit of which
    each batch fills a slice: ``fill`` counts their entries without the
    padding, sum over the fronts of s^2 + 2 s b (s separator and b
    boundary dofs; the root's s includes theta, and its b is 0).  ``solve``
    runs the forward sweep by ascending bit, then the backward sweep by
    descending bit, one gather, one batched product and one scatter per
    bit, on one vector with a spare last slot that the padding reads and
    writes as 0."""

    def __init__(self, el, inv, tris, slots):
        """The elements ``el``, their class inverses ``inv``, and ``tris``
        and ``slots``, the edge table in ``_nested_dissection`` order."""
        n_tri, k1 = len(el.cls), isqrt(el.udofs.shape[1])
        m = len(tris)
        self.n, none = k1 * m + 1, 2 * m
        codes = np.full((n_tri, 3), none)  # row i's copies are 2 i + side
        codes[tris, slots] = 2 * np.arange(m)[:, None] + np.arange(2)
        # what waits for its front: (a triangle of each node, the edge codes
        # of its blocks' dof slots, theta last, the blocks); the leaves wait
        # as their element numbers, and are built in the batch that takes them
        leaves = _leaves(el, inv, tris, slots)
        pending = [(np.arange(n_tri), codes, np.arange(n_tri))]
        bits = list(_tree(tris, n_tri, k1))
        self.fill = sum(bit.fill for bit in bits)
        # one buffer for everything kept: at the finest levels it is above
        # glibc's largest mmap threshold (32 MB), so it goes back to the
        # system when freed, and the freed batches do not stay resident
        store = np.empty(sum(len(bit.fronts) * bit.s * (2 * bit.f - bit.s) for bit in bits))
        used, self.levels = 0, []

        def keep(*shape):
            nonlocal used
            size = np.prod(shape)
            used += size
            return store[used - size : used].reshape(shape)

        dof = np.arange(k1)
        for bit in bits:
            b, fronts, f, s = bit.b, bit.fronts, bit.f, bit.s
            # the children of this bit's fronts, in the order of their fronts
            here, left = [], []
            for i, (rep, child, block) in enumerate(pending):
                pending[i] = None  # a source split in two is freed at once
                parent = bit.index[rep >> b]
                go = parent >= 0
                if go.all():
                    here.append((parent, child, block))
                elif go.any():
                    here.append((parent[go], child[go], block[go]))
                    left.append((rep[~go], child[~go], block[~go]))
                else:
                    left.append((rep, child, block))
            del pending, rep, child, block  # the last source too
            at = k1 * bit.slot[:, None] + dof  # each code's dofs in its front
            at[none] = f  # a slot without a multiplier: the spare row and column
            n_fronts = len(fronts)
            f11inv, upper = keep(n_fronts, s, s), keep(n_fronts, s, f - s)
            lower = keep(n_fronts, f - s, s)
            per = max(1, FRONT_CHUNK // (f + 1) ** 2)
            for lo in range(0, n_fronts, per):
                hi = min(lo + per, n_fronts)
                parts = []
                for parent, child, block in here:
                    a, z = np.searchsorted(parent, (lo, hi))
                    if a < z:  # the leaves are element numbers until here
                        rows = block[a:z] if block.ndim > 1 else leaves(block[a:z])
                        parts.append((parent[a:z] - lo, child[a:z], rows.ravel()))
                        del rows
                here = [src for src in here if src[0][-1] >= hi]  # free what is used up
                if len(parts) == 1:
                    idx, weights = _extend_add(parts[0][0], at[parts[0][1]], f), parts[0][2]
                else:  # written in place: separate arrays and their concatenation raised the peak
                    size = sum(len(part[2]) for part in parts)
                    idx, weights, end = np.empty(size, np.int64), np.empty(size), 0
                    for parent, child, block in parts:
                        idx[end : end + len(block)] = _extend_add(parent, at[child], f)
                        weights[end : end + len(block)] = block
                        end += len(block)
                del parts
                front = np.bincount(idx, weights, (hi - lo) * (f + 1) ** 2)
                del idx, weights
                front = front.reshape(hi - lo, f + 1, f + 1)[:, :f, :f]
                v, r = np.nonzero(np.arange(bit.pad) >= k1 * bit.n_sep[lo:hi, None])
                front[v, r, r] = 1.0  # the padded separator dofs

                try:
                    f11inv[lo:hi] = np.linalg.inv(front[:, :s, :s])
                except np.linalg.LinAlgError as exc:
                    raise RuntimeError("hybridized solve failed: singular interface matrix") from exc
                np.matmul(f11inv[lo:hi], front[:, :s, s:], out=upper[lo:hi])
                lower[lo:hi] = front[:, s:, :s]
                if s < f:
                    schur = lower[lo:hi] @ upper[lo:hi]
                    np.subtract(front[:, s:, s:], schur, out=schur)
                    left.append((fronts[lo:hi] << b, bit.bcodes[lo:hi], schur))
            self.levels.append((bit.sep, bit.bnd, f11inv, upper, lower))
            pending = left
            if all(block.ndim > 1 for *_, block in pending):
                leaves = None  # every leaf is in its front: free the class blocks

    def solve(self, g):
        """The interface unknowns for the interface load g."""
        z = np.append(g, 0.0)
        ys = []
        for sep, bnd, f11inv, upper, lower in self.levels:
            y = (f11inv @ z[sep][:, :, None])[:, :, 0]
            if bnd.size:
                z -= np.bincount(bnd.ravel(), (lower @ y[:, :, None]).ravel(), len(z))
            ys.append(y)
        x = np.zeros(self.n + 1)
        for (sep, bnd, _, upper, _), y in zip(reversed(self.levels), reversed(ys)):
            if bnd.size:
                y = y - (upper @ x[bnd][:, :, None])[:, :, 0]
            x[sep] = y
        return x[:-1]


class _Hybrid:
    """The hybridized inverse of a ``SaddleSystem``: one inverse per class
    of element blocks, the factored interface matrix, and ``apply(b)`` ~
    M^-1 b through ``SaddleSystem._index``, whose element arrays are in
    the round order of ``ElementBlocks.apply``: G^T y is each edge's copy 0
    minus its copy 1, G xi is subtracted from copy 0 and added to copy 1,
    and a shared dof's load and value are copy 0's."""

    def __init__(self, system):
        el = system.elements
        self.el, self.nd = el, el.udofs.shape[1]
        try:
            self.inv = np.linalg.inv(el.matrix)  # one per class
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("hybridized solve failed: singular element block") from exc

        tris, slots = el.copies[_nested_dissection(el.copies)].transpose(2, 0, 1)
        k1 = isqrt(self.nd)  # multipliers per edge: nd = (k+1)(k+2)
        self.fronts = _Fronts(el, self.inv, tris, slots)
        self.n_interface, self.fill = self.fronts.n, self.fronts.fill
        # the round-order arrays come after the factor, so its peak holds none
        self.index, order = system._index, el.rounds[0]
        self.row = np.empty_like(order)  # each element's row in round order
        self.row[order] = np.arange(len(order))
        self.c = el.c[order]
        # the k+1 dofs of each ordered edge's copy 0 and copy 1 as flat positions
        # in the element arrays: take/put is several times faster than pairs
        flat = (self.row[tris] * self.index.shape[1] + slots * k1)[:, :, None] + np.arange(k1)
        self.copy0, self.copy1 = flat[:, 0], flat[:, 1]
        self.shared = self.index.take(self.copy0)  # the dofs that take copy 0's value

    def apply(self, b):
        el, idx, nd, copy0, copy1 = self.el, self.index, self.nd, self.copy0, self.copy1
        f = b[idx]
        f.put(copy1, 0.0)  # a shared dof's load goes to copy 0
        y = el.apply(f, self.inv)

        g = np.empty(self.n_interface)
        g[:-1] = (y.take(copy0) - y.take(copy1)).ravel()  # G^T y, per multiplier
        # summed in element order, so that its bits do not depend on the rounds
        g[-1] = np.sum((self.c * y[:, nd:])[self.row]) - b[-1]
        xi = self.fronts.solve(g)

        ties = xi[:-1].reshape(copy0.shape)  # G xi
        f.put(copy0, f.take(copy0) - ties)
        f.put(copy1, f.take(copy1) + ties)
        f[:, nd:] -= self.c * xi[-1]
        x_loc = el.apply(f, self.inv)

        x = np.empty(len(b))
        x[idx] = x_loc
        x[self.shared] = x_loc.take(copy0)  # a shared dof takes copy 0's value
        x[-1] = xi[-1]
        return x


def solve(system, rhs=None):
    """Solve the assembled system; returns (u, p, theta, report), with theta
    the border unknown of ``SaddleSystem``.

    One hybridized solve and iterative refinement against the element-block
    operator while each step halves the residual (at most
    MAX_REFINEMENT_STEPS steps); the report's ``success`` says whether the
    residual meets the contract.
    """
    rhs = system.rhs if rhs is None else rhs
    hybrid = _Hybrid(system)
    x = hybrid.apply(rhs)
    r = rhs - system.matvec(x)
    norm_r = np.linalg.norm(r)
    for _ in range(MAX_REFINEMENT_STEPS):
        step = x + hybrid.apply(r)
        r_step = rhs - system.matvec(step)
        last, norm_step = norm_r, np.linalg.norm(r_step)
        if norm_step < norm_r:
            x, r, norm_r = step, r_step, norm_step
        if not norm_step < last / 2:
            break
    norm_b = np.linalg.norm(rhs)
    res = norm_r / norm_b if norm_b > 0 else norm_r
    report = SolveReport(res, res <= RESIDUAL_CONTRACT, hybrid.fill, hybrid.n_interface)
    u, p, theta = system.split(x)
    return u, p, theta, report
