"""Seeded smooth test data: random low-degree functions and tangent fields.

Band-limited means low-degree polynomials in the ambient coordinates
restricted to the surface, so the fields are smooth at every mesh scale and
independent of any eigensolve.
"""

from __future__ import annotations

import numpy as np

from .mobius import moebius_field

FIELD_TERMS = 3


def random_polynomial_scalar(mesh, rng):
    """Random quadratic c0 + sum c_i x_i + sum c_ij x_i x_j at the vertices."""
    x = mesh.vertices
    d = mesh.n + 1
    f = rng.standard_normal() * np.ones(mesh.num_vertices)
    f = f + x @ rng.standard_normal(d)
    C = rng.standard_normal((d, d))
    return f + np.einsum("vi,vi->v", x @ C, x)


def random_bandlimited_field(mesh, rng):
    """Random sphere-tangent field sum_m f_m(x) * xi_{v_m}(x), FIELD_TERMS terms."""
    X = np.zeros_like(mesh.vertices)
    d = mesh.n + 1
    for _ in range(FIELD_TERMS):
        v = rng.standard_normal(d)
        f = random_polynomial_scalar(mesh, rng)
        X += f[:, None] * moebius_field(mesh, v)
    return X


def random_unit_direction(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)
