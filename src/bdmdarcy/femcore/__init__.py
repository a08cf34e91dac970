"""Reference elements, quadrature, and fields on one physical triangle."""

from bdmdarcy.femcore.quadrature import QuadratureRule, triangle_quadrature, edge_quadrature
from bdmdarcy.femcore.basis import TriangleBasis, EdgeBasis
from bdmdarcy.femcore.element import (
    BDMElement,
    LocalField,
    affine_map,
    bdm_reference_basis,
)

__all__ = [
    "QuadratureRule",
    "triangle_quadrature",
    "edge_quadrature",
    "TriangleBasis",
    "EdgeBasis",
    "BDMElement",
    "LocalField",
    "affine_map",
    "bdm_reference_basis",
]
