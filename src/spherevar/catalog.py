"""Exactly-known minimal surfaces in S^n, built as triangle meshes.

Builders return a SurfaceMesh with analytic chart metadata so the tangent /
normal splits downstream carry no discretization error. Resolution semantics:
the equatorial sphere takes an icosahedron subdivision level, the Clifford
torus a grid size (points per circle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, UnsupportedSurfaceError
from .mesh import Chart, SurfaceMesh, frames_from_projectors, validate_mesh
from .operators import assemble_stiffness, vertex_weights

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _icosahedron():
    p = GOLDEN
    verts = np.array([
        [-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
        [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
        [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return verts, faces


def _subdivide(verts, faces):
    """Loop-style 1-to-4 subdivision with midpoints pushed to the sphere.

    Each edge {i, j} is the key min * V + max. Its midpoint is numbered
    after the old vertices in the order the edges first occur, face by face
    in the order ab, bc, ca.
    """
    V = verts.shape[0]
    ends = faces[:, [1, 2, 0]]
    keys = (np.minimum(faces, ends) * V + np.maximum(faces, ends)).ravel()
    edges, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    number = np.empty_like(by_first)
    number[by_first] = V + np.arange(by_first.size)
    ab, bc, ca = number[inverse].reshape(-1, 3).T
    i, j = np.divmod(edges[by_first], V)
    m = verts[i] + verts[j]
    # per row the dot product np.linalg.norm takes of one vector, so each
    # level matches normalizing the midpoints one at a time bit for bit
    m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
    a, b, c = faces.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.vstack([verts, m]), out


def _sphere_chart(vertices3, n):
    """Chart for the equatorial S^2 sitting in the first 3 coordinates."""
    V = vertices3.shape[0]
    d = n + 1
    # tangent plane at x: orthogonal complement of x inside span(e0, e1, e2)
    proj = np.zeros((V, d, d))
    proj[:, :3, :3] = np.eye(3)[None] - np.einsum("vi,vj->vij", vertices3, vertices3)
    return Chart(tangent_frames=frames_from_projectors(proj, 2), normsq_A=0.0)


def build_equatorial_sphere(n, res):
    """Totally geodesic S^2 inside S^n: icosphere at subdivision level res."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ParameterError(f"ambient dimension n={n} must be an integer >= 2")
    if not (isinstance(res, (int, np.integer)) and res >= 0):
        raise ParameterError(f"subdivision level res={res} must be a nonnegative integer")
    verts3, faces = _icosahedron()
    for _ in range(res):
        verts3, faces = _subdivide(verts3, faces)
    verts3 /= np.linalg.norm(verts3, axis=1, keepdims=True)
    verts = np.zeros((verts3.shape[0], n + 1))
    verts[:, :3] = verts3
    mesh = SurfaceMesh(
        n=n, vertices=verts, faces=faces, name="equatorial-sphere",
        genus=0, chart=_sphere_chart(verts3, n),
    )
    validate_mesh(mesh)
    return mesh


def _torus_trig(res):
    """cos a, sin a, cos b, sin b at each grid vertex i * res + j, each (V,).

    The angles are a = 2 pi i / res and b = 2 pi j / res, so cos and sin are
    taken once on the res grid angles and gathered per vertex.
    """
    angles = 2.0 * np.pi * np.arange(res) / res
    cos, sin = np.cos(angles), np.sin(angles)
    i, j = np.divmod(np.arange(res * res), res)
    return cos[i], sin[i], cos[j], sin[j]


def _torus_chart(trig, n):
    cos_a, sin_a, cos_b, sin_b = trig
    V = cos_a.shape[0]
    d = n + 1
    frames = np.zeros((V, 2, d))
    frames[:, 0, 0] = -sin_a
    frames[:, 0, 1] = cos_a
    frames[:, 1, 2] = -sin_b
    frames[:, 1, 3] = cos_b
    # in codimension > 1 the scalar area Jacobi form does not apply
    return Chart(tangent_frames=frames, normsq_A=2.0 if n == 3 else None)


def _clifford_vertices(trig, n):
    verts = np.zeros((trig[0].shape[0], n + 1))
    for axis, column in enumerate(trig):
        verts[:, axis] = column
    verts /= np.sqrt(2.0)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return verts


def _torus_faces(res):
    """Each grid quad split along the (i,j) -> (i+1,j+1) diagonal."""
    i, j = np.divmod(np.arange(res * res, dtype=np.int64), res)
    i1, j1 = (i + 1) % res, (j + 1) % res
    v00, v10, v11, v01 = i * res + j, i1 * res + j, i1 * res + j1, i * res + j1
    return np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)


def build_clifford_torus(res):
    """Square Clifford torus (cos a, sin a, cos b, sin b)/sqrt(2) in S^3."""
    return build_product_torus(res, n=3)


def build_product_torus(res, n=3):
    """Clifford torus embedded equatorially in S^n, n >= 3."""
    if not (isinstance(res, (int, np.integer)) and res >= 8):
        raise ParameterError(f"torus grid size res={res} must be an integer >= 8")
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ParameterError(f"ambient dimension n={n} must be an integer >= 3")
    trig = _torus_trig(res)
    mesh = SurfaceMesh(
        n=n, vertices=_clifford_vertices(trig, n), faces=_torus_faces(res),
        name="clifford-torus" if n == 3 else f"clifford-torus-in-s{n}",
        genus=1, chart=_torus_chart(trig, n),
    )
    validate_mesh(mesh)
    return mesh


def _clifford_torus_entry(n=3, res=64):
    if n != 3:
        raise ParameterError(f"clifford-torus lies in S^3, not S^{n}; n >= 4 is product-torus")
    return build_clifford_torus(res)


def _product_torus_entry(n=4, res=64):
    if not (isinstance(n, (int, np.integer)) and n >= 4):
        raise ParameterError(f"product-torus needs an integer n >= 4, not {n}; see clifford-torus")
    return build_product_torus(res, n=n)


def minimality_residual(mesh):
    """Defect of the discrete minimal-immersion equation -Delta u = 2u.

    The weak Laplacian S u is converted to a strong (pointwise) form with the
    lumped-mass inverse and compared against 2u coordinatewise: the
    mass-weighted L2 norm of (lumped-inverse S u - 2u) relative to |2u|, a
    float.
    """
    w = vertex_weights(mesh)
    u = mesh.vertices
    r = (assemble_stiffness(mesh) @ u) / w[:, None] - 2.0 * u
    return float(np.sqrt(np.einsum("v,vd->", w, r * r)
                         / np.einsum("v,vd->", w, 4.0 * u * u)))


@dataclass
class CatalogEntry:
    """A catalog surface with its analytically certain data."""

    name: str
    builder: callable
    description: str
    area: Optional[float] = None
    lambda1: Optional[float] = None
    lambda1_multiplicity: Optional[int] = None
    normsq_A: Optional[float] = None
    expected_index_area: Optional[int] = None
    expected_index_energy: Optional[int] = None
    in_geodesic_s2: bool = False
    provenance: str = ""


CATALOG = {
    "equatorial-sphere": CatalogEntry(
        name="equatorial-sphere",
        builder=lambda n=3, res=4: build_equatorial_sphere(n, res),
        description="totally geodesic S^2 in S^n (icosphere, res = subdivision level)",
        area=4.0 * np.pi,
        lambda1=2.0,
        lambda1_multiplicity=3,
        normsq_A=0.0,
        expected_index_area=1,
        expected_index_energy=None,
        in_geodesic_s2=True,
        provenance="spherical harmonics oracle lambda_k = k(k+1); area index 1 (Urbano)",
    ),
    "clifford-torus": CatalogEntry(
        name="clifford-torus",
        builder=_clifford_torus_entry,
        description="square Clifford torus in S^3 (res = grid points per circle)",
        area=2.0 * np.pi ** 2,
        lambda1=2.0,
        lambda1_multiplicity=4,
        normsq_A=2.0,
        expected_index_area=5,
        expected_index_energy=4,
        in_geodesic_s2=False,
        provenance="flat-torus spectrum oracle 2(j^2+k^2); area index 5 (Urbano), energy index 4",
    ),
    "product-torus": CatalogEntry(
        name="product-torus",
        builder=_product_torus_entry,
        description="Clifford torus included equatorially in S^n, n > 3 (non-full)",
        area=2.0 * np.pi ** 2,
        lambda1=2.0,
        lambda1_multiplicity=4,
        normsq_A=None,
        in_geodesic_s2=False,
        provenance="equatorial inclusion of the Clifford torus; fullness only for n=3",
    ),
}


def build_by_name(name, n=None, res=None):
    if name not in CATALOG:
        raise UnsupportedSurfaceError(f"unknown catalog surface {name!r}")
    entry = CATALOG[name]
    kwargs = {}
    if n is not None:
        kwargs["n"] = n
    if res is not None:
        kwargs["res"] = res
    return entry.builder(**kwargs)
