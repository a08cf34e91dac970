"""Solution of the saddle-point system and pressure gauge post-processing.

The default path is a sparse LU factorization of the assembled matrix (the
factored rank-one boundary-mean coupling is folded in by one
Sherman-Morrison update).  Saddle matrices of this kind fill in heavily
under SuperLU, so very large systems (or a failed factorization) are solved
by a residual-minimizing Krylov iteration preconditioned with an exact
factorization of the velocity block and the (diagonal) pressure mass; the
preconditioned operator has mesh-independent conditioning, so a few dozen
iterations reach the target.  The relative residual of the full operator is
verified post hoc either way; failure is reported, never silently accepted.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import LinearOperator

__all__ = ["SolveReport", "solve", "postprocess_pressure"]

# above this dimension the direct factorization's fill-in does not fit a
# small machine; go straight to the preconditioned iteration
DEFAULT_DIRECT_LIMIT = 150_000
# GMRES relative tolerance and restart cycles; the residual contract is
# checked on the full operator afterwards either way
ITERATIVE_TOL = 1e-13
MAX_CYCLES = 2


@dataclass
class SolveReport:
    residual: float
    method: str
    dimension: int
    success: bool
    iterations: int = 0
    message: str = ""


def _residual(system, x, rhs):
    norm_b = np.linalg.norm(rhs)
    r = np.linalg.norm(system.matvec(x) - rhs)
    return r / norm_b if norm_b > 0 else r


def _solve_direct(system, rhs):
    lu = spla.splu(system.matrix.tocsc())
    x = lu.solve(rhs)
    if system.rank1 is not None:
        u_vec, v_vec = system.rank1
        z = lu.solve(u_vec)
        denom = 1.0 + v_vec @ z
        if abs(denom) < 1e-300:
            raise RuntimeError("singular rank-one update")
        x = x - z * ((v_vec @ x) / denom)
    return x


def _block_preconditioner(system):
    """Exact velocity-block solve + inverse pressure mass + multiplier
    scaling, as a LinearOperator."""
    n_u, n_p = system.n_u, system.n_p
    lu_a = spla.splu(system.matrix[:n_u, :n_u].tocsc())
    pdiag = system.pressure_mass_diag
    if pdiag is None:
        pdiag = np.ones(n_p)
    lam_scale = 2.0 * system.area

    def apply(x):
        y = np.empty_like(x)
        y[:n_u] = lu_a.solve(x[:n_u])
        y[n_u : n_u + n_p] = x[n_u : n_u + n_p] / pdiag
        y[n_u + n_p :] = x[n_u + n_p :] / lam_scale
        return y

    return LinearOperator((system.dimension, system.dimension), matvec=apply)


def _solve_iterative(system, rhs, x0=None):
    operator = LinearOperator((system.dimension, system.dimension), matvec=system.matvec)
    prec = _block_preconditioner(system)
    iterations = [0]

    def count(_):
        iterations[0] += 1

    x, info = spla.gmres(
        operator,
        rhs,
        x0=x0,
        M=prec,
        rtol=ITERATIVE_TOL,
        atol=0.0,
        restart=300,
        maxiter=MAX_CYCLES,
        callback=count,
        callback_type="pr_norm",
    )
    return x, iterations[0], info


def solve(system, rhs=None, method="auto"):
    """Solve the assembled system; returns (u, p, multiplier, report).

    ``method`` is ``auto`` (direct up to ``DEFAULT_DIRECT_LIMIT`` unknowns,
    else preconditioned iteration), ``direct``, or ``iterative``.  A direct
    solve that fails or misses the residual contract falls back to the
    iteration, started from the direct solution when there is one.
    """
    rhs = system.rhs if rhs is None else rhs
    use_direct = method == "direct" or (
        method == "auto" and system.dimension <= DEFAULT_DIRECT_LIMIT
    )
    x = None
    report = None
    if use_direct:
        try:
            x = _solve_direct(system, rhs)
            res = _residual(system, x, rhs)
            report = SolveReport(res, "lu", system.dimension, res <= 1e-10)
        except (RuntimeError, MemoryError) as exc:
            report = SolveReport(np.inf, "lu", system.dimension, False, message=str(exc))
            x = None

    if x is None or not report.success:
        x_it, iters, info = _solve_iterative(system, rhs, x0=x)
        res = _residual(system, x_it, rhs)
        if x is None or res < report.residual:
            x = x_it
            prev = "" if report is None or report.method != "lu" else "lu+"
            report = SolveReport(
                res,
                f"{prev}gmres",
                system.dimension,
                res <= 1e-10,
                iterations=iters,
                message="" if info == 0 else f"gmres info={info}",
            )
    if x is None:
        raise RuntimeError(f"linear solve failed: {report.message}")
    u, p, lam = system.split(x)
    return u, p, lam, report


def postprocess_pressure(p, assembler):
    """Shift a pressure vector to the zero-mean representative over the
    meshed region."""
    c = assembler.pressure_integrals()
    mean = float(c @ p) / assembler.area
    return p - mean * assembler.constant_pressure()
