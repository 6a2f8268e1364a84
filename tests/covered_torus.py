"""The square Clifford torus covered four times along its first circle.

x(a, b) = (cos a, sin a, cos b, sin b)/sqrt(2) with a in [0, 8 pi) and b in
[0, 2 pi) is a minimal immersion of a flat torus in S^3 that is not an
embedding. Its first Laplace eigenvalue is 2/4^2 = 1/8, of multiplicity 2,
below the certificate threshold (n-2)/(2n) = 1/6 of n = 3.
"""

import numpy as np

from spherevar.mesh import SurfaceMesh, validate_mesh


def covered_clifford_torus(r):
    """The 4-fold cover on a 4r x r grid, a SurfaceMesh with no chart.

    Vertex i * r + j sits at a = 2 pi i / r, b = 2 pi j / r, so vertices i
    and i + r coincide in S^3. Each grid quad is split along its
    (i, j) -> (i+1, j+1) diagonal, as the catalog torus is.
    """
    rows = 4 * r
    i, j = np.divmod(np.arange(rows * r), r)
    a, b = 2.0 * np.pi * i / r, 2.0 * np.pi * j / r
    vertices = np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)], axis=1) / np.sqrt(2.0)
    i1, j1 = (i + 1) % rows, (j + 1) % r
    v00, v10, v11, v01 = i * r + j, i1 * r + j, i1 * r + j1, i * r + j1
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    mesh = SurfaceMesh(n=3, vertices=vertices, faces=faces, name="clifford-torus-4-cover",
                       genus=1)
    validate_mesh(mesh)
    return mesh
