"""Mixed BDM_k finite element solver for Darcy flow on curved 2D domains.

The discretization lives on a body-fitted triangulation whose straight
boundary edges chord the curved physical boundary.  Neumann data is
transferred from the physical boundary to the mesh boundary by a truncated
Taylor expansion along the closest-point projection direction, which keeps
the optimal O(h^k) convergence that a plain polygonal approximation loses.
"""

from bdmdarcy.geometry import BoundaryCurve, GeometryError
from bdmdarcy.mesh import Mesh, MeshStats, coarse_mesh, refine_project, mesh_stats

__all__ = [
    "BoundaryCurve",
    "GeometryError",
    "Mesh",
    "MeshStats",
    "coarse_mesh",
    "refine_project",
    "mesh_stats",
]

__version__ = "0.1.0"
