"""Exactly-known minimal surfaces in S^n, built as triangle meshes.

Builders return a SurfaceMesh with analytic chart metadata so the tangent /
normal splits downstream carry no discretization error. Resolution semantics:
the equatorial sphere takes an icosahedron subdivision level, the Clifford
torus a grid size (points per circle) of a ring swept by rotations (sweep_ring).
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


def grid_faces(rows, cols):
    """The periodic rows x cols grid's quads, split along their (i,j) -> (i+1,j+1) diagonal."""
    i, j = np.divmod(np.arange(rows * cols, dtype=np.int64), cols)
    i1, j1 = (i + 1) % rows, (j + 1) % cols
    v00, v10, v11, v01 = i * cols + j, i1 * cols + j, i1 * cols + j1, i * cols + j1
    return np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)


def sweep_ring(rotations, ring):
    """Vertices (V, d) and tangent frames (V, 2, d) of a closed ring swept by rotations.

    rotations is (rows, d, d) and ring (cols, 3, d), each point and its two unit
    frame vectors. Vertex i * cols + j is rotations[i] @ ring[j, 0], and its
    frames rotations[i] @ ring[j, 1:]: each one matmul with the transposed stack.
    """
    d = ring.shape[2]
    # matmul runs about 3x faster on a contiguous stack than on the transposed view
    turn = np.ascontiguousarray(rotations.transpose(0, 2, 1))
    frames = ring[:, 1:].reshape(-1, d) @ turn
    return (ring[:, 0] @ turn).reshape(-1, d), frames.reshape(-1, 2, d)


def torus_ring(rows, cols, d):
    """sweep_ring's arguments for a torus on a rows x cols grid in R^d: the ring
    (1, 0, cos b, sin b), with frames (0, 1, 0, 0) and (0, 0, -sin b, cos b),
    turned by a in the (x0, x1) plane, at a = 2 pi i / cols and b = 2 pi j / cols.
    """
    a = 2.0 * np.pi * np.arange(rows) / cols
    b = 2.0 * np.pi * np.arange(cols) / cols
    rotations = np.broadcast_to(np.eye(d), (rows, d, d)).copy()
    rotations[:, 0, 0] = rotations[:, 1, 1] = np.cos(a)
    rotations[:, 1, 0], rotations[:, 0, 1] = np.sin(a), -np.sin(a)
    ring = np.zeros((cols, 3, d))
    ring[:, 0, 0] = ring[:, 1, 1] = 1.0
    ring[:, 0, 2] = ring[:, 2, 3] = np.cos(b)
    ring[:, 0, 3], ring[:, 2, 2] = np.sin(b), -np.sin(b)
    return rotations, ring


def build_clifford_torus(res):
    """Square Clifford torus (cos a, sin a, cos b, sin b)/sqrt(2) in S^3."""
    return build_product_torus(res, n=3)


def build_product_torus(res, n=3):
    """Clifford torus embedded equatorially in S^n, n >= 3."""
    if not (isinstance(res, (int, np.integer)) and res >= 8):
        raise ParameterError(f"torus grid size res={res} must be an integer >= 8")
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ParameterError(f"ambient dimension n={n} must be an integer >= 3")
    verts, frames = sweep_ring(*torus_ring(res, res, n + 1))
    verts /= np.sqrt(2.0)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    # in codimension > 1 the scalar area Jacobi form does not apply
    mesh = SurfaceMesh(
        n=n, vertices=verts, faces=grid_faces(res, res),
        name="clifford-torus" if n == 3 else f"clifford-torus-in-s{n}",
        genus=1, chart=Chart(tangent_frames=frames, normsq_A=2.0 if n == 3 else None),
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
