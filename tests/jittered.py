"""A mesh moved off its minimal immersion: the negative control.

Each vertex gets a Gaussian displacement and is pushed back onto the unit
sphere, so the mesh stays valid and on the sphere but is no longer minimal.
"""

import numpy as np

from spherevar.mesh import SurfaceMesh


def jitter_vertices(mesh, scale, seed=0):
    """Random perturbation renormalized back to the sphere (negative control)."""
    rng = np.random.default_rng(seed)
    x = mesh.vertices + scale * rng.standard_normal(mesh.vertices.shape)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return SurfaceMesh(
        n=mesh.n, vertices=x, faces=mesh.faces.copy(),
        name=mesh.name + "-jittered", genus=mesh.genus, chart=None,
    )
