"""The square Clifford torus covered four times along its first circle.

x(a, b) = (cos a, sin a, cos b, sin b)/sqrt(2) with a in [0, 8 pi) and b in
[0, 2 pi) is a minimal immersion of a flat torus in S^3 that is not an
embedding. Its first Laplace eigenvalue is 2/4^2 = 1/8, of multiplicity 2,
below the certificate threshold (n-2)/(2n) = 1/6 of n = 3.
"""

import numpy as np

from spherevar.catalog import grid_faces, sweep_ring, torus_ring
from spherevar.mesh import SurfaceMesh, validate_mesh


def covered_clifford_torus(r):
    """The 4-fold cover on a 4r x r grid, a SurfaceMesh with no chart.

    Vertex i * r + j sits at a = 2 pi i / r, b = 2 pi j / r, so vertices i
    and i + r coincide in S^3: the catalog torus's ring swept 4r times.
    """
    vertices = sweep_ring(*torus_ring(4 * r, r, 4))[0] / np.sqrt(2.0)
    mesh = SurfaceMesh(n=3, vertices=vertices, faces=grid_faces(4 * r, r),
                       name="clifford-torus-4-cover", genus=1)
    validate_mesh(mesh)
    return mesh
