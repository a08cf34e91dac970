"""Reference elements, quadrature, and local interpolation operators."""

from bdmdarcy.femcore.quadrature import QuadratureRule, triangle_quadrature, edge_quadrature
from bdmdarcy.femcore.basis import TriangleBasis, EdgeBasis
from bdmdarcy.femcore.element import (
    BDMElement,
    LocalField,
    affine_map,
    piola_map,
    piola_map_inverse,
    bdm_reference_basis,
    interpolate_bdm,
    project_pressure,
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
    "piola_map",
    "piola_map_inverse",
    "bdm_reference_basis",
    "interpolate_bdm",
    "project_pressure",
]
