"""Solution of the saddle-point system.

The solve is a hybridized one (Arnold-Brezzi).  Normal continuity
is broken on interior edges and restored by k+1 multipliers per edge; the
element blocks L_K = S_K L^ S_K of ``SaddleSystem.elements`` (every
boundary term belongs to one element) are inverted once per class, an
element shape, boundary traces included, up to round-off whose members
share one block L^, in one batched call, and L_K^-1 is S_K L^^-1 S_K bit
for bit (partial pivoting chooses by magnitude, and sign flips are
exact).  What is left is a sparse interface system on the multipliers,
which the solver numbers edge by edge: it orders the table of each
interior edge's two copies
(``ElementBlocks.copies``) by nested dissection of the triangle tree
(``_nested_dissection``; George 1973, Lipton, Rose & Tarjan 1979), and
factors it on that tree in dense fronts (``_Fronts``;
multifrontal: Duff & Reid 1983, Liu 1992), one batched step per bit of the
triangle index, with numpy alone.  Red refinement repeats element shapes,
so it repeats whole subtrees: a subtree's pattern (``_tree``) is keyed
bottom-up from the element classes, and all fronts of one pattern are one
matrix once their multipliers are ordered and signed by the pattern's
rule, so only one front per pattern is built and factored (disk k=3
level 5: 252 patterns for 4,097 fronts).  The factor is kept as two
arrays of blocks per bit, one block per pattern, and each sweep of a solve
gathers each bit's multipliers in their fronts' signs and multiplies them
by their patterns' blocks in rounds and tails, with the element applies'
product (``assembly.apply_rounds``).
No interface matrix is assembled: each element's block G~^T L_K^-1 G~
(``_leaves``, one per class, taken in the signs of the front it enters)
goes straight into the front where its first multiplier is eliminated.
``_Hybrid.apply`` gathers the load straight into the round order of
``ElementBlocks.apply`` (one batched product per round, on a prefix of the
class inverses, then one per tail) and ties the copies edge by edge.  The
system's last unknown, theta (the pressure-mean multiplier with the
boundary-mean term folded in; see ``build_saddle_system``), is the last
interface unknown, whose row is c.p = gauge, and is returned as it is.  Velocity and pressure are recovered
element by element, and iterative refinement against the full operator
(``SaddleSystem.matvec``, applied on the same element blocks) brings the
residual to round-off (element blocks reach condition numbers of 6e8 at
ring level 4, and the unrefined residual misses the contract at the
finest studied levels).  The fronts apply explicit inverses of their
separator blocks, which on ill-conditioned interfaces (thin rings at high
degree) leaves the first solve less accurate than an LU solve would.  The
refinement stops on LAPACK xGERFS's three tests (Wilkinson 1963; Skeel
1980): once the normwise backward error is at round-off (Oettli & Prager
1964; Arioli, Demmel & Duff 1989), once a step fails to halve the
residual, or after MAX_REFINEMENT_STEPS steps.  A well-conditioned solve
stops after one step, and those cases take more.
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

from bdmdarcy.assembly import apply_rounds, classes, rounds

__all__ = ["SolveReport", "solve"]

RESIDUAL_CONTRACT = 1e-10
# refinement steps at most (xGERFS's step limit).  The fronts apply explicit
# separator inverses, so one step can leave the residual far above round-off
# on ill-conditioned interfaces: 7.1e-9 at k=6, level 1, on the ring of radii
# 0.01 and 0.01112, which three steps bring to 4.2e-14
MAX_REFINEMENT_STEPS = 5
# refinement stops once the normwise backward error ||r|| / (|| |M| |x| || +
# ||b||), in the max norm, is at most this, 4 eps.  After one step the
# well-conditioned solves read 0.26-0.79 eps (disk k=3 levels 1-5, ring k=3
# level 4, k=6 level 3, k=9 level 2), and further steps only move it within
# 0.16-1.1; the thin 0.01/0.01112 rings settle at 1.25-1.6 eps.  4 eps is
# above both floors, and below the 5.3 eps of the 0.01/100 ring at k=2,
# level 0, after one step, whose second step still lowers the residual
# 15-fold
BACKWARD_ERROR_STOP = 4 * np.finfo(float).eps


@dataclass
class SolveReport:
    residual: float
    success: bool
    fill: int = 0  # entries of the logical factor, every front's: sum of s^2 + 2 s b
    n_interface: int = 0  # interface unknowns: interior-edge multipliers and theta
    # read by bench/tracer.py: every solve is one LU, with no Krylov iterations
    method, iterations = "lu", 0


def _nested_dissection(copies):
    """The edge table's rows in nested-dissection order of the triangle
    tree.  Red refinement numbers the children of triangle t 4t..4t+3, so an
    edge whose triangles first differ in bit b - 1 separates two subtrees
    of the subtree t >> b: edges come by that bit (finest separators first),
    then by the subtree, then by their copy 0 (triangle, local edge), the
    order of a front's separator slots (``_tree``).  On any other numbering
    this is a recursive bisection of the triangle index range, still a
    valid order."""
    t1, t2 = copies[:, 0, 0], copies[:, 1, 0]
    bit = np.frexp(t1 ^ t2)[1]  # bit_length, exact below 2^53
    return np.lexsort((3 * t1 + copies[:, 0, 1], t1 >> bit, bit))


def _leaves(el, inv):
    """The leaves of the interface matrix sum_K G_K^T L_K^-1 G_K, one per
    class, (n_cls, 3(k+1) + 1, 3(k+1) + 1) on the local edge dofs and theta:
    G~^T L^^-1 G~ from the class inverses ``inv``, with G~ the unsigned
    edge-dof columns and the c column of theta, c the class
    representative's (the operator's own c_K differs from it by round-off,
    which the refinement takes out).  Element K's block is its
    class's with the rows and columns of its edge dofs times sign * S_K,
    sign +1 on copy 0 of an edge, -1 on copy 1 and 0 on a boundary edge:
    the factor takes it in those signs (``_tree``)."""
    nd = el.udofs.shape[1]
    ne = 3 * isqrt(nd)  # edge dofs: nd = (k+1)(k+2)
    c = el.c[el.rep]  # each class's representative's, so one leaf per class
    # the edge-dof rows of L^^-1 G~ (its c column is L^^-1 c), then theta's
    # row c^T times its pressure rows
    lc = inv[:, :, nd:] @ c[:, :, None]
    q = np.empty((len(inv), ne + 1, ne + 1))
    q[:, :ne, :ne] = inv[:, :ne, :ne]
    q[:, :ne, ne:] = lc[:, :ne]
    q[:, ne:, :ne] = c[:, None, :] @ inv[:, nd:, :ne]
    q[:, ne:, ne:] = c[:, None, :] @ lc[:, nd:]
    return q


def _extend_add(parent, at, f):
    """The flat positions of child blocks in fronts of size f, flat, with a
    spare last row and column: child c goes to front ``parent[c]``, and its
    dofs, (edge slot, k+1 dofs) then theta, to the front dofs ``at[c]`` (f
    for a slot without a multiplier) then f - 1."""
    pos = np.full((len(at), at[0].size + 1), f - 1)
    pos[:, :-1] = at.reshape(len(at), -1)
    idx = (parent * (f + 1) ** 2)[:, None] + pos * (f + 1)
    return (idx[:, :, None] + pos[:, None, :]).ravel()


def _tree(el, tris, slots):
    """The fronts of the refinement tree and their patterns, bit by bit
    from the lowest, for the elements ``el`` and the edge table (``tris``,
    ``slots``) in ``_nested_dissection`` order (see ``_Fronts``).

    A node's pattern is its two children's patterns and its separator, each
    edge as its two copies' (triangle offset in the node, local edge) and
    the sign of copy 1's dofs against copy 0's; a leaf's is its element's
    class, which fixes which of its edges are interior (the class key holds
    the element's boundary slots).  Each bit's nodes are numbered
    once by ``assembly.classes``, whose rule the front patterns keep.  A
    front's slots are its separator edges by their copy 0 and its boundary
    edges by their copy in the node, each in (triangle offset, local edge)
    order, so two fronts of one pattern have one matrix in the signs of
    those copies, sign * S_K of ``_leaves``: the pattern's, factored once.

    Per bit with fronts, a namespace of: the fronts' nodes ``fronts``;
    ``target``, per node, the pattern of which it is the representative
    front (its first), -2 for any other front and -1 for no front; each
    front's pattern ``pat`` and each pattern's representative ``rep``; their
    separator edge counts ``n_sep``; the padded front size f, its eliminated
    dofs s (the separator, and theta in the root) and the padded separator's
    ``pad`` dofs; ``enter(codes)``, the front dofs of edge codes (2 i +
    side: a copy of row i; 2m: none) and their signs in the front against
    their own; the codes of the fronts' boundary slots ``bcodes``; the
    multipliers of the fronts' separator and boundary dofs ``sep`` and
    ``bnd`` (n: padding) and their signs ``sep_sign`` and ``bnd_sign``,
    these four with the fronts in the round order of ``assembly.rounds`` of
    ``pat``, whose round and tail sizes are ``sizes`` and ``tails``; and
    ``fill``, the fronts' s^2 + 2 s b without the padding."""
    n_tri, k1 = len(el.cls), isqrt(el.udofs.shape[1])
    m = len(tris)
    n, dof, none = k1 * m + 1, np.arange(k1), 2 * m
    t1, t2 = tris[:, 0], tris[:, 1]
    bit = np.frexp(t1 ^ t2)[1]  # bit_length, exact below 2^53
    # per edge code 2 i + side (2m: none): its copy's place (triangle, local
    # edge), its multipliers and its dofs' signs sign * S_K; a separator's
    # copy 1 enters its front in copy 0's signs, times ``turn``
    place = 3 * tris.ravel() + slots.ravel()
    multiplier = np.full((2 * m + 1, k1), n)  # n: padding
    multiplier[:-1] = k1 * (np.arange(2 * m) >> 1)[:, None] + dof
    own = np.ones((2 * m + 1, k1), np.int8)
    own[:-1] = el.flip[tris.ravel()[:, None], k1 * slots.ravel()[:, None] + dof]
    own[1:-1:2] *= -1
    turn = np.ones_like(own)
    turn[1:-1:2] = own[1:-1:2] * own[:-1:2]
    turn_bits = (turn[1:-1:2] < 0) @ (1 << dof)
    code_bit = np.append(np.repeat(bit, 2), 0)
    # the copies by place, so by node at every bit: a front's boundary slots
    # in (triangle offset, local edge) order
    by_place = np.argsort(place)
    bit_by_place = code_bit[by_place]
    pattern = el.cls
    top = max(int(n_tri - 1).bit_length(), 1)
    for b in range(1, top + 1):
        rows = np.arange(*np.searchsorted(bit, (b, b + 1)))  # by node, then by copy 0
        node = t1[rows] >> b
        n_nodes = ((n_tri - 1) >> b) + 1
        n_sep_all = np.bincount(node, minlength=n_nodes)
        s_edges = n_sep_all.max(initial=0)
        rank = np.arange(len(rows)) - (np.cumsum(n_sep_all) - n_sep_all)[node]
        children = np.full(2 * n_nodes, -1)  # nodes 2 v and 2 v + 1 of the bit below
        children[: len(pattern)] = pattern
        key = np.full((n_nodes, 2 + 3 * s_edges), -1)
        key[:, :2] = children.reshape(n_nodes, 2)
        base = node << b
        key[node, 2 + 3 * rank] = place[2 * rows] - 3 * base
        key[node, 3 + 3 * rank] = place[2 * rows + 1] - 3 * base
        key[node, 4 + 3 * rank] = turn_bits[rows]
        pattern, first = classes(key)

        fronts = np.flatnonzero(n_sep_all) if b < top else np.zeros(1, np.int64)
        if not len(fronts):
            continue
        index = np.full(n_nodes, -1)
        index[fronts] = np.arange(len(fronts))
        n_sep = n_sep_all[fronts]
        # a front's key holds its separator, so no other node shares its
        # pattern: the front patterns, renumbered in their order, keep the rule
        is_front = np.zeros(len(first), bool)
        is_front[pattern[fronts]] = True
        pat, rep = (np.cumsum(is_front) - 1)[pattern[fronts]], index[first[is_front]]
        target = np.where(index >= 0, -2, -1)
        target[fronts[rep]] = np.arange(len(rep))

        code = by_place[bit_by_place > b]
        owner = index[place[code] // 3 >> b]
        code, owner = code[owner >= 0], owner[owner >= 0]
        n_bnd = np.bincount(owner, minlength=len(fronts))
        b_rank = np.arange(len(code)) - (np.cumsum(n_bnd) - n_bnd)[owner]
        b_edges = n_bnd.max(initial=0)
        f = k1 * (s_edges + b_edges) + 1  # separator, boundary, theta
        slot = np.zeros(2 * m + 1, np.int64)
        slot[2 * rows], slot[2 * rows + 1] = rank, rank
        slot[code] = s_edges + b_rank

        # the codes of the fronts' separator slots (copy 0) and boundary slots
        scodes = np.full((len(fronts), s_edges), none)
        scodes[index[node], rank] = 2 * rows
        bcodes = np.full((len(fronts), b_edges), none)
        bcodes[owner, b_rank] = code
        sep, sep_sign = multiplier[scodes].reshape(len(fronts), -1), own[scodes].reshape(len(fronts), -1)
        # theta last, in its own sign
        bnd = np.concatenate([multiplier[bcodes].reshape(len(fronts), -1), np.full((len(fronts), 1), n - 1)], 1)
        bnd_sign = np.concatenate([own[bcodes].reshape(len(fronts), -1), np.ones((len(fronts), 1), np.int8)], 1)
        s, s_true, b_true = k1 * s_edges, k1 * n_sep, k1 * n_bnd + 1
        if b == top:  # the root eliminates theta too
            sep, sep_sign = np.concatenate([sep, bnd], axis=1), np.concatenate([sep_sign, bnd_sign], axis=1)
            bnd, bnd_sign, s, s_true, b_true = bnd[:, :0], bnd_sign[:, :0], f, s_true + 1, 0

        def enter(code, b=b, slot=slot, f=f):
            """The front dofs (f: none) of the edge codes ``code``, (n, slots,
            k+1), and their signs in the front against their own."""
            at = k1 * slot[code][..., None] + dof
            at[code == none] = f
            return at, np.where(code_bit[code, None] == b, turn[code], 1)

        order, sizes, tails = rounds(pat)
        yield SimpleNamespace(b=b, fronts=fronts, target=target, pat=pat, rep=rep, n_sep=n_sep,
                              f=f, s=s, pad=k1 * s_edges, enter=enter, sep=sep[order],
                              bnd=bnd[order], sep_sign=sep_sign[order], bnd_sign=bnd_sign[order],
                              bcodes=bcodes, sizes=sizes, tails=tails,
                              fill=int(np.sum(s_true**2 + 2 * s_true * b_true)))


# front entries per batch of ``_Fronts`` (1 MB): with each bit's patterns in
# one batch, the fronts, their bincount, the flat indices and the Schur
# complements peak 14 MB above what the factor keeps at ring k=3 level 4
# (13 MB at disk level 5), and 8.4 MB (8.2 MB) in batches of 2**17
# entries, which are not slower (best of 5).
# Before the factor was per pattern, what glibc kept of freed one-bit
# batches raised the benchmark's peak by 29% on the ring
FRONT_CHUNK = 2**17


class _Fronts:
    """The interface matrix factored on the refinement tree (multifrontal;
    Duff & Reid 1983, Liu 1992), one front per pattern, and ``solve(g)`` ~
    its inverse times g.

    The multipliers come numbered by ``_nested_dissection``; row i of the
    edge table (triangles t1 < t2) has k+1 multipliers and is eliminated at
    the tree node (bit, t1 >> bit), bit the bit length of t1 ^ t2: the node
    is the triangle range t >> bit, and the edge separates its two halves.
    A node with such edges is a front.  Its separator is its edges, its
    boundary the interior edges with one triangle in it (their bit is
    higher), and theta, which is in every front's boundary and is
    eliminated last, in the root (the node of the top bit, which holds
    every triangle).  The children of a front are the elements (the
    leaves: element t's block G~^T L_t^-1 G~ of ``_leaves``, on its local
    edge dofs and theta, zero on its boundary edges) and the fronts below
    it whose lowest front ancestor it is.  Each of their variables is in
    its front, as separator or boundary.

    Red refinement repeats shapes, so most subtrees repeat: two fronts of
    one pattern (``_tree``) are one matrix once their slots are ordered and
    signed by the pattern's rule.  Only each pattern's representative front
    is built and factored (disk k=3 level 5: 72 and 73 patterns for the
    1,536 fronts of each of bits 1 and 2), from the children of the
    representative: element classes and the patterns below.  The fronts of
    one bit are padded to the largest separator and boundary of that bit
    (identity on padded separator dofs, zero on padded boundary dofs) and
    go in batches of about FRONT_CHUNK entries of the representatives.  A
    batch's children, in the signs of their fronts (``enter`` of ``_tree``),
    enter it through one flat index map (``_extend_add``) and one
    ``bincount`` over all of them, which sums the terms of an entry in a
    fixed order; one batched LAPACK inverse (LU with partial pivoting) of
    the separator blocks F11 follows, then the Schur update F22 - F21
    F11^-1 F12, which waits, one array per batch, as a child of the fronts
    above every member of its patterns, and is freed once they are built.
    The leaves wait as the class blocks, freed once every leaf is in its
    front.  Kept, in one buffer, are a copy of the class inverses
    (``inv``, which the applies of the solve read) and [F11^-1; F21
    F11^-1] and F11^-1 F12 per pattern, two arrays per bit of which each
    batch fills a slice, so the forward sweep makes one product per front.
    ``fill`` counts the entries of F11^-1, F21 and F11^-1 F12 of every
    front, the logical factor, without the padding: sum over the fronts of
    s^2 + 2 s b (s separator and b boundary dofs; the root's s includes
    theta, and its b is 0).  ``levels`` holds, per bit, the fronts'
    separator and boundary multipliers and their signs, the fronts in the
    round order of their patterns (``assembly.rounds``), the rounds' and
    tails' sizes and the two arrays.  ``solve`` runs the forward sweep by
    ascending bit, then the backward sweep by descending bit: per bit, the
    fronts' multipliers are gathered in their signs and multiplied by their
    patterns' blocks with the element applies' one class-batched product
    (``assembly.apply_rounds``), so each front row has the bits of its own
    product with its pattern's block, on one vector with a spare last slot
    that the padding reads and writes as 0."""

    def __init__(self, el, inv, tris, slots):
        """The elements ``el``, their class inverses ``inv``, and ``tris``
        and ``slots``, the edge table in ``_nested_dissection`` order."""
        n_tri, k1 = len(el.cls), isqrt(el.udofs.shape[1])
        m = len(tris)
        self.n, none = k1 * m + 1, 2 * m
        codes = np.full((n_tri, 3), none)  # row i's copies are 2 i + side
        codes[tris, slots] = 2 * np.arange(m)[:, None] + np.arange(2)
        # what waits for its front: (a triangle of each node, the edge codes
        # of its block's dof slots, theta last, the row of its block, the
        # blocks in the signs of its own slots); the leaves are the class blocks
        pending = [(np.arange(n_tri), codes, el.cls, _leaves(el, inv))]
        bits = list(_tree(el, tris, slots))
        self.fill = sum(bit.fill for bit in bits)
        # one buffer for everything kept: the class inverses, which the
        # solve keeps as long as the factor, then each bit's blocks.  The
        # blocks alone (20 MB at ring k=3 level 4) fitted the free space that
        # a global CSR (``operator_csr``, 21 MB of column indices there) had
        # left in the heap, and the next CSR then grew the heap by 13 MB
        store = np.empty(inv.size + sum(len(bit.rep) * bit.s * (2 * bit.f - bit.s) for bit in bits))
        self.inv = store[: inv.size].reshape(inv.shape)
        self.inv[...] = inv
        used, self.levels = inv.size, []

        def keep(*shape):
            nonlocal used
            size = np.prod(shape)
            used += size
            return store[used - size : used].reshape(shape)

        dof = np.arange(k1)
        for bit in bits:
            b, f, s, n_pat = bit.b, bit.f, bit.s, len(bit.rep)
            # the children of this bit's representative fronts, by pattern;
            # the children of the other fronts are dropped
            here, left = [], []
            for i, (tri, code, row, block) in enumerate(pending):
                pending[i] = None  # a source is freed once it is used up
                target = bit.target[tri >> b]
                wait = target == -1
                if wait.any():
                    left.append((tri[wait], code[wait], row[wait], block))
                go = np.flatnonzero(target >= 0)
                go = go[np.argsort(target[go], kind="stable")]
                if len(go):
                    here.append((target[go], code[go], row[go], block))
            del pending, tri, code, row, block  # the last source too
            # F11^-1 and F21 F11^-1 in one block, so that the forward sweep
            # makes one product per front
            forward, upper = keep(n_pat, f, s), keep(n_pat, s, f - s)
            per = max(1, FRONT_CHUNK // (f + 1) ** 2)
            for lo in range(0, n_pat, per):
                hi = min(lo + per, n_pat)
                parts = []
                for target, code, row, block in here:
                    a, z = np.searchsorted(target, (lo, hi))
                    if a < z:
                        parts.append((target[a:z] - lo, code[a:z], row[a:z], block))
                here = [src for src in here if src[0][-1] >= hi]  # free what is used up
                # each child's block in the signs of its front, written in place:
                # separate arrays and their concatenation raised the peak
                size = sum(len(row) * block[0].size for *_, row, block in parts)
                idx, weights, end = np.empty(size, np.int64), np.empty(size), 0
                for parent, code, row, block in parts:
                    rows = weights[end : end + len(row) * block[0].size].reshape((len(row),) + block.shape[1:])
                    np.take(block, row, axis=0, out=rows)
                    at, sign = bit.enter(code)
                    i, j = np.nonzero(sign.reshape(len(row), -1) < 0)
                    rows[i, j] *= -1.0
                    rows[i, :, j] *= -1.0
                    idx[end : end + rows.size] = _extend_add(parent, at, f)
                    end += rows.size
                del parts, rows
                front = np.bincount(idx, weights, (hi - lo) * (f + 1) ** 2)
                del idx, weights
                front = front.reshape(hi - lo, f + 1, f + 1)[:, :f, :f]
                v, r = np.nonzero(np.arange(bit.pad) >= k1 * bit.n_sep[bit.rep[lo:hi], None])
                front[v, r, r] = 1.0  # the padded separator dofs

                try:
                    forward[lo:hi, :s] = np.linalg.inv(front[:, :s, :s])
                except np.linalg.LinAlgError as exc:
                    raise RuntimeError("hybridized solve failed: singular interface matrix") from exc
                np.matmul(forward[lo:hi, :s], front[:, :s, s:], out=upper[lo:hi])
                np.matmul(front[:, s:, :s], forward[lo:hi, :s], out=forward[lo:hi, s:])
                if s < f:
                    schur = front[:, s:, :s] @ upper[lo:hi]
                    np.subtract(front[:, s:, s:], schur, out=schur)
                    members = np.flatnonzero((bit.pat >= lo) & (bit.pat < hi))
                    left.append((bit.fronts[members] << b, bit.bcodes[members],
                                 bit.pat[members] - lo, schur))
            self.levels.append((bit.sep, bit.bnd, bit.sep_sign, bit.bnd_sign, bit.sizes,
                                bit.tails, forward, upper))
            pending = left

    def solve(self, g):
        """The interface unknowns for the interface load g."""
        z = np.append(g, 0.0)
        ys = []
        for sep, bnd, sep_sign, bnd_sign, sizes, tails, forward, _ in self.levels:
            yw = apply_rounds(forward, z[sep] * sep_sign, sizes, tails)
            y, w = yw[:, : sep.shape[1]], yw[:, sep.shape[1] :]
            if bnd.size:
                w *= bnd_sign
                z -= np.bincount(bnd.ravel(), w.ravel(), len(z))
            ys.append(y)
        x = np.zeros(self.n + 1)
        for (sep, bnd, sep_sign, bnd_sign, sizes, tails, _, upper), y in zip(
                reversed(self.levels), reversed(ys)):
            if bnd.size:
                y = y - apply_rounds(upper, x[bnd] * bnd_sign, sizes, tails)
            x[sep] = y * sep_sign
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
            inv = np.linalg.inv(el.matrix)  # one per class
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("hybridized solve failed: singular element block") from exc

        tris, slots = el.copies[_nested_dissection(el.copies)].transpose(2, 0, 1)
        k1 = isqrt(self.nd)  # multipliers per edge: nd = (k+1)(k+2)
        self.fronts = _Fronts(el, inv, tris, slots)
        self.inv = self.fronts.inv  # the factor's copy, in its buffer
        self.n_interface, self.fill = self.fronts.n, self.fronts.fill
        # the round-order arrays come after the factor, so its peak holds none
        self.index, order = system._index, el.rounds[0]
        self.row = np.empty_like(order)  # each element's row in round order
        self.row[order] = np.arange(len(order))
        # theta's row and column with each element's c its class's, as in
        # the leaves: refinement closes the round-off to the operator's own c
        self.c = el.c[el.rep[el.cls[order]]]
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


def _abs_matvec(system, x):
    """|M| |x| as ``SaddleSystem.matvec`` forms M x: over the element blocks
    with their flips left out, since |S_K L^ S_K| = |L^|, then theta's row
    and column |c|.  A shared entry's two element terms are summed in
    absolute value, |a| + |b| >= |a + b|."""
    el, idx, n_u = system.elements, system._index, system.n_u
    _, _, sizes, tails = el.rounds
    y_loc = apply_rounds(np.abs(el.matrix), np.abs(x[idx]), sizes, tails)
    y = np.bincount(idx.ravel(), weights=y_loc.ravel(), minlength=len(x))
    c = np.abs(el.c.ravel())
    y[n_u:-1] += c * abs(x[-1])
    y[-1] = c @ np.abs(x[n_u:-1])
    return y


def solve(system, rhs=None):
    """Solve the assembled system; returns (u, p, theta, report), with theta
    the border unknown of ``SaddleSystem``.

    One hybridized solve and iterative refinement against the element-block
    operator: a step is kept if it lowers the residual, and refinement stops
    once a step fails to halve it, once the backward error is at most
    BACKWARD_ERROR_STOP, or after MAX_REFINEMENT_STEPS steps (xGERFS's three
    tests); the report's ``success`` says whether the residual meets the
    contract.
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
        if np.abs(r).max() <= BACKWARD_ERROR_STOP * (_abs_matvec(system, x).max() + np.abs(rhs).max()):
            break
    norm_b = np.linalg.norm(rhs)
    res = norm_r / norm_b if norm_b > 0 else norm_r
    report = SolveReport(res, res <= RESIDUAL_CONTRACT, hybrid.fill, hybrid.n_interface)
    u, p, theta = system.split(x)
    return u, p, theta, report
