"""Reference elements, bases and quadrature."""

from bdmdarcy.femcore.quadrature import QuadratureRule, triangle_quadrature, edge_quadrature
from bdmdarcy.femcore.basis import TriangleBasis
from bdmdarcy.femcore.element import BDMElement, bdm_reference_basis

__all__ = [
    "QuadratureRule",
    "triangle_quadrature",
    "edge_quadrature",
    "TriangleBasis",
    "BDMElement",
    "bdm_reference_basis",
]
