"""Manufactured solutions, the mesh-dependent velocity norm, and
convergence-order bookkeeping.

A manufactured case is built from its pressure p alone, given with its
mixed partials: the velocity u = -grad p and the partials of u that the
Taylor traces read are derived from them (``ManufacturedCase``)."""

from dataclasses import dataclass
from math import pi

import numpy as np
from numpy.polynomial import polynomial as npoly

from bdmdarcy.correction import directional_derivative, dot2, taylor_trace_normal

__all__ = [
    "ManufacturedCase",
    "ErrorReport",
    "case_circle",
    "case_ring",
    "error_norms",
    "compute_eoc",
]


def _horner(x, coeffs):
    """sum_i coeffs[i] x^i by Horner's rule from the top, as
    ``npoly.polyval`` sums it, but with the zero coefficients (None)
    skipped: c + 0.0 is c for every c but -0.0, and a nonzero sum is never
    -0.0, so a skipped addition changes no bit unless the constant term is
    the zero, which then gets polyval's last + 0.0.  None if every
    coefficient is; a scalar if only the constant term is not."""
    value = None
    for c in reversed(coeffs):
        if value is not None:
            value = value * x
        if c is not None:
            value = c if value is None else value + c
    if value is not None and coeffs[0] is None:
        value = value + 0.0
    return value


class _Poly2D:
    """Bivariate polynomial sum_ij coeff[i, j] x^i y^j with exact mixed
    partials.  It is summed as ``npoly.polyval2d`` sums it, by Horner's rule
    in x per power of y and then in y, over the nonzero coefficients alone
    (``_horner``): the same bits at real points, with a few passes over the
    points where polyval2d runs every power of x over (deg_y + 1, n)
    arrays.  Complex points, as in complex-step derivatives, work too."""

    def __init__(self, coeff):
        self.coeff = np.asarray(coeff, dtype=float)
        self._partials = {}  # (rx, ry): the partial's nonzero coefficients, per power of y

    def __call__(self, pts):
        return self.derivative(pts, 0, 0)

    def derivative(self, pts, rx, ry):
        nonzero = self._partials.get((rx, ry))
        if nonzero is None:
            coeff = npoly.polyder(npoly.polyder(self.coeff, rx, axis=0), ry, axis=1)
            nonzero = [[c if c else None for c in column] for column in coeff.T.tolist()]
            self._partials[rx, ry] = nonzero
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        value = _horner(y, [_horner(x, column) for column in nonzero])
        if value is None or np.ndim(value) == 0:  # a constant
            return np.full(x.shape, 0.0 if value is None else value, np.result_type(x, 0.0))
        return value


@dataclass
class ManufacturedCase:
    """Closed-form Darcy data built from the pressure p: its mixed partials
    ``pressure_derivative(pts, rx, ry)``, (n, 2) -> (n,), the velocity
    u = -grad p and its partials, derived here, the source f = div u, and
    the Neumann functional u . n evaluated with a supplied normal.  The
    formulas are globally smooth, so they stand in for their own extensions
    off the physical domain.  A case is also the velocity field of
    ``correction.taylor_trace``, at points with leading axes (n_b, q); its
    degree None selects the truncated sum, never point evaluation."""

    degree = None

    domain: str
    pressure_derivative: callable  # (pts, rx, ry) -> (n,)
    source: callable  # (n, 2) -> (n,)
    homogeneous_neumann: bool = False

    def pressure(self, pts):
        return self.pressure_derivative(np.atleast_2d(pts), 0, 0)

    def velocity_derivative(self, pts, rx, ry):
        """The (rx, ry) mixed partial of u = -grad p, shape (n, 2)."""
        d = self.pressure_derivative
        return -np.column_stack([d(pts, rx + 1, ry), d(pts, rx, ry + 1)])

    def velocity(self, pts):
        return self.velocity_derivative(np.atleast_2d(pts), 0, 0)

    def neumann(self, pts, normals):
        """Boundary functional u . n on the physical boundary."""
        if self.homogeneous_neumann:
            return np.zeros(len(np.atleast_2d(pts)))
        return dot2(self.velocity(pts), np.asarray(normals))

    def eval(self, pts):
        return self.velocity(pts.reshape(-1, 2)).reshape(pts.shape)

    def nu_derivative(self, geom, j):
        pts = geom.points.reshape(-1, 2)
        deriv = directional_derivative(
            lambda rx, ry: self.velocity_derivative(pts, rx, ry),
            geom.nu.reshape(-1, 2),
            j,
        )
        return deriv.reshape(geom.points.shape)


def case_circle():
    """Unit-disk solution: p = x^3 + x y^2 - 3x, u = (3 - 3x^2 - y^2, -2xy).

    u . n vanishes on the unit circle and f = div u = -8x.
    """
    p = _Poly2D([[0.0, 0.0, 0.0], [-3.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return ManufacturedCase(
        domain="circle",
        pressure_derivative=p.derivative,
        source=lambda pts: -8.0 * np.atleast_2d(pts)[:, 0],
        homogeneous_neumann=True,
    )


def case_ring():
    """Ring solution: p = -sin(2 pi x) sin(2 pi y), u = -grad p,
    f = -8 pi^2 sin(2 pi x) sin(2 pi y); u . n is nonzero on both circles."""
    w = 2.0 * pi

    def partial(pts, rx, ry, amp):
        """amp times the (rx, ry) partial of sin(w x) sin(w y) over
        w^(rx + ry): each derivative turns the phase by a quarter turn,
        sin -> cos -> -sin -> -cos, so only the signs change, exactly."""
        pts = np.atleast_2d(pts)
        amp *= (-1) ** (rx // 2 + ry // 2)
        fx = (np.sin, np.cos)[rx % 2](w * pts[:, 0])
        fy = (np.sin, np.cos)[ry % 2](w * pts[:, 1])
        return amp * fx * fy

    return ManufacturedCase(
        domain="ring",
        pressure_derivative=lambda pts, rx, ry: partial(pts, rx, ry, -(w ** (rx + ry))),
        source=lambda pts: partial(pts, 0, 0, -8.0 * pi**2),
        homogeneous_neumann=False,
    )


@dataclass
class ErrorReport:
    h: float
    e_u_hdiv: float
    e_penalty: float
    e_u_0h: float
    e_p: float
    e_total: float


def error_norms(u, p, case, assembler):
    """Velocity error in the mesh-dependent norm and the mean-aligned L2
    pressure error.

    The boundary penalty applies the Taylor extension to the difference:
    the discrete field contracts the assembler's basis traces (point
    evaluation when the order makes it exact) while the exact field always
    uses its truncated Taylor sum.  In strong (uncorrected) mode the traces
    have order 0, so the boundary term is the plain weighted trace mismatch
    h_K^{-1/2} (u - u_h) . n_gamma; this is the component that exposes the
    geometric error of the polygonal approximation (dominant O(h^{1/2})).
    """
    t = assembler.tables
    wq, det = t.err.weights, assembler.det
    flat = assembler.physical_points(t.err.points).reshape(-1, 2)
    # discrete velocity and divergence at the error-rule nodes, as GEMMs,
    # and every integral as GEMVs: over the nodes, with the weights, then
    # over the elements, with det
    w = assembler.local_coeffs(u)
    nel, nd = w.shape
    uh_ref = (w @ t.v_vals_err.transpose(1, 0, 2).reshape(nd, -1)).reshape(nel, -1, 2)
    uh_vals = assembler.piola(uh_ref)
    uh_div = w @ t.v_div_err.T / det[:, None]

    ue = case.velocity(flat).reshape(uh_vals.shape)
    fe = case.source(flat).reshape(uh_div.shape)
    l2_sq = float(det @ (((ue - uh_vals) ** 2).reshape(nel, -1) @ np.repeat(wq, 2)))
    div_sq = float(det @ (((fe - uh_div) ** 2) @ wq))

    geom = assembler.trace
    exact = taylor_trace_normal(case, geom, assembler.m)
    discrete = (assembler.basis_trace @ u[assembler.gidx[geom.owner], None])[..., 0]
    pen_sq = float(np.vdot(geom.weights / geom.h_owner[:, None], (exact - discrete) ** 2))

    ph_vals = p.reshape(nel, -1) @ t.p_vals_err.T
    pe_vals = case.pressure(flat).reshape(ph_vals.shape)
    mean_h = float(det @ (ph_vals @ wq)) / assembler.area
    mean_e = float(det @ (pe_vals @ wq)) / assembler.area
    p_sq = float(det @ ((((pe_vals - mean_e) - (ph_vals - mean_h)) ** 2) @ wq))

    e_hdiv = np.sqrt(l2_sq + div_sq)
    e_pen = np.sqrt(pen_sq)
    e_0h = np.sqrt(l2_sq + div_sq + pen_sq)
    e_p = np.sqrt(p_sq)
    return ErrorReport(
        h=assembler.mesh.h,
        e_u_hdiv=e_hdiv,
        e_penalty=e_pen,
        e_u_0h=e_0h,
        e_p=e_p,
        e_total=e_0h + e_p,
    )


def compute_eoc(errors, hs):
    """Per-step experimental orders log(E_i/E_{i+1}) / log(h_i/h_{i+1})."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if len(errors) != len(hs):
        raise ValueError("errors and mesh sizes must align")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive")
    if np.any(np.diff(hs) >= 0):
        raise ValueError("mesh sizes must decrease strictly")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:]))
