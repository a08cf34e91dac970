"""Manufactured solutions, the mesh-dependent velocity norm, and
convergence-order bookkeeping."""

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


class _Poly2D:
    """Bivariate polynomial with exact mixed partials."""

    def __init__(self, coeff):
        self.coeff = np.asarray(coeff, dtype=float)

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        return npoly.polyval2d(pts[:, 0], pts[:, 1], self.coeff)

    def derivative(self, pts, rx, ry):
        c = self.coeff
        if rx >= c.shape[0] or ry >= c.shape[1]:
            return np.zeros(len(np.atleast_2d(pts)))
        if rx:
            c = npoly.polyder(c, m=rx, axis=0)
        if ry:
            c = npoly.polyder(c, m=ry, axis=1)
        pts = np.atleast_2d(pts)
        return npoly.polyval2d(pts[:, 0], pts[:, 1], c)


@dataclass
class ManufacturedCase:
    """Closed-form solution data: velocity u, pressure p, source f = div u,
    and the Neumann functional u . n evaluated with a supplied normal.  The
    formulas are globally smooth, so they stand in for their own extensions
    off the physical domain.  A case is also the velocity field of
    ``correction.taylor_trace``, at points with leading axes (n_b, q); its
    degree None selects the truncated sum, never point evaluation."""

    degree = None

    domain: str
    velocity: callable  # (n, 2) -> (n, 2)
    velocity_derivative: callable  # (pts, rx, ry) -> (n, 2)
    pressure: callable  # (n, 2) -> (n,)
    source: callable  # (n, 2) -> (n,)
    homogeneous_neumann: bool = False

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
    """Unit-disk solution: u = (3 - 3x^2 - y^2, -2xy), p = x^3 + x y^2 - 3x.

    u . n vanishes on the unit circle and f = div u = -8x.
    """
    u1 = _Poly2D([[3.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])
    u2 = _Poly2D([[0.0, 0.0], [0.0, -2.0]])
    p = _Poly2D([[0.0, 0.0, 0.0], [-3.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def velocity(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([u1(pts), u2(pts)])

    def velocity_derivative(pts, rx, ry):
        return np.column_stack([u1.derivative(pts, rx, ry), u2.derivative(pts, rx, ry)])

    return ManufacturedCase(
        domain="circle",
        velocity=velocity,
        velocity_derivative=velocity_derivative,
        pressure=lambda pts: p(pts),
        source=lambda pts: -8.0 * np.atleast_2d(pts)[:, 0],
        homogeneous_neumann=True,
    )


def case_ring():
    """Ring solution: p = -sin(2 pi x) sin(2 pi y), u = -grad p,
    f = -8 pi^2 sin(2 pi x) sin(2 pi y); u . n is nonzero on both circles."""
    w = 2.0 * pi

    def velocity(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([w * np.cos(w * x) * np.sin(w * y),
                                w * np.sin(w * x) * np.cos(w * y)])

    def velocity_derivative(pts, rx, ry):
        # each derivative advances the trig phase by pi/2
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        amp = w * w ** (rx + ry)
        c1 = amp * np.cos(w * x + rx * pi / 2.0) * np.sin(w * y + ry * pi / 2.0)
        c2 = amp * np.sin(w * x + rx * pi / 2.0) * np.cos(w * y + ry * pi / 2.0)
        return np.column_stack([c1, c2])

    def pressure(pts):
        pts = np.atleast_2d(pts)
        return -np.sin(w * pts[:, 0]) * np.sin(w * pts[:, 1])

    def source(pts):
        pts = np.atleast_2d(pts)
        return -8.0 * pi**2 * np.sin(w * pts[:, 0]) * np.sin(w * pts[:, 1])

    return ManufacturedCase(
        domain="ring",
        velocity=velocity,
        velocity_derivative=velocity_derivative,
        pressure=pressure,
        source=source,
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
    wq = t.err.weights
    flat = assembler.physical_points(t.err.points).reshape(-1, 2)
    # discrete velocity and divergence at the error-rule nodes, as GEMMs
    w = assembler.local_coeffs(u)
    nel, nd = w.shape
    uh_ref = (w @ t.v_vals_err.transpose(1, 0, 2).reshape(nd, -1)).reshape(nel, -1, 2)
    uh_vals = uh_ref @ assembler.jac.transpose(0, 2, 1) / assembler.det[:, None, None]
    uh_div = w @ t.v_div_err.T / assembler.det[:, None]

    ue = case.velocity(flat).reshape(uh_vals.shape)
    fe = case.source(flat).reshape(uh_div.shape)
    l2_sq = float(np.einsum("e,q,eqa->", assembler.det, wq, (ue - uh_vals) ** 2))
    div_sq = float(np.einsum("e,q,eq->", assembler.det, wq, (fe - uh_div) ** 2))

    geom = assembler.trace
    exact = taylor_trace_normal(case, geom, assembler.m)
    discrete = np.einsum("bqi,bi->bq", assembler.basis_trace, u[assembler.gidx[geom.owner]])
    diff = exact - discrete
    pen_sq = float(np.einsum("bq,b,bq->", geom.weights, 1.0 / geom.h_owner, diff**2))

    p_loc = p.reshape(assembler.mesh.n_triangles, -1)
    ph_vals = np.einsum("el,ql->eq", p_loc, t.p_vals_err)
    pe_vals = case.pressure(flat).reshape(ph_vals.shape)
    mean_h = float(np.einsum("e,q,eq->", assembler.det, wq, ph_vals)) / assembler.area
    mean_e = float(np.einsum("e,q,eq->", assembler.det, wq, pe_vals)) / assembler.area
    p_sq = float(
        np.einsum(
            "e,q,eq->", assembler.det, wq, ((pe_vals - mean_e) - (ph_vals - mean_h)) ** 2
        )
    )

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
