"""Triangle meshes on the unit sphere S^n in R^{n+1}.

A SurfaceMesh stores vertices (all on the unit sphere), oriented triangular
faces, and optional analytic chart data for catalog surfaces (per-vertex
tangent frames and the squared norm of the second fundamental form). Its
vertices and faces are read-only. Every per-mesh quantity (geometry,
operators, frames, Moebius fields) is a function of the mesh decorated with
per_mesh, which computes it once, at first use, and holds it on the mesh.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import MeshError, ParameterError

UNIT_SPHERE_TOL = 1e-12
FRAME_SKIP_TOL = 1e-6
GEODESIC_RANK_CUTOFF = 1e-8


@dataclass(frozen=True)
class Chart:
    """Analytic per-vertex data for exactly-known surfaces.

    tangent_frames : (V, 2, n+1) orthonormal basis of the surface tangent
        plane at each vertex, orthogonal to the position vector.
    normsq_A : squared norm of the second fundamental form, a constant or a
        per-vertex array; only meaningful for surfaces in S^3.

    Frozen, and its arrays are made read-only in place, so the frames held
    for a mesh cannot change after construction.
    """

    tangent_frames: np.ndarray
    normsq_A: Union[float, np.ndarray, None] = None

    def __post_init__(self):
        for value in (self.tangent_frames, self.normsq_A):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


class FaceGram(NamedTuple):
    """Gram data of the corner vectors u = B - A, w = C - A, each (F,)."""

    guu: np.ndarray
    gww: np.ndarray
    guw: np.ndarray
    det: np.ndarray


def per_mesh(compute):
    """Hold ``compute(mesh)`` on the mesh: computed at first use, then returned as is.

    The value lives in the mesh's memo, so it lives exactly as long as the
    mesh. Its arrays, and the buffers of a sparse matrix, are made read-only
    before they are held; the mesh is frozen, so a held value cannot go stale.
    """

    @functools.wraps(compute)
    def held(mesh):
        memo = mesh._memo
        if compute not in memo:
            value = compute(mesh)
            for part in value if isinstance(value, tuple) else (value,):
                arrays = (part.data, part.indices, part.indptr) if sp.issparse(part) else (part,)
                for array in arrays:
                    array.flags.writeable = False
            memo[compute] = value
        return memo[compute]

    return held


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed orientable triangulated surface with vertices on S^n.

    The mesh is frozen and its arrays are read-only copies, so the values
    held in its memo (see per_mesh) cannot go stale; a changed surface is a
    new SurfaceMesh.
    """

    n: int
    vertices: np.ndarray          # (V, n+1)
    faces: np.ndarray             # (F, 3) int
    name: str = "mesh"
    genus: Optional[int] = None
    chart: Optional[Chart] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=float, order="C")
        faces = np.array(self.faces, dtype=np.int64, order="C")
        if vertices.ndim != 2 or vertices.shape[1] != self.n + 1:
            raise MeshError("vertices must have shape (V, n+1)")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError("faces must have shape (F, 3)")
        vertices.flags.writeable = False
        faces.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_faces(self):
        return self.faces.shape[0]


def face_corners(mesh):
    """The three corner positions of every face, each (F, n+1).

    np.take gathers the rows several times faster than x[f[:, k]].
    """
    return tuple(np.take(mesh.vertices, mesh.faces[:, k], axis=0) for k in range(3))


def face_corner_vectors(mesh):
    """Edge vectors (B-A, C-A) per face, each of shape (F, n+1).

    One gather, so it is recomputed at each use rather than held: held, the
    two (F, n+1) arrays would outweigh every other per-face quantity.
    """
    a, b, c = face_corners(mesh)
    return b - a, c - a


@per_mesh
def face_gram(mesh):
    """Gram data of the corner vectors, with its determinant, read-only. It
    holds the one face check: a face with det <= 0 raises MeshError."""
    u, w = face_corner_vectors(mesh)
    guu = np.einsum("fd,fd->f", u, u)
    gww = np.einsum("fd,fd->f", w, w)
    guw = np.einsum("fd,fd->f", u, w)
    det = guu * gww - guw * guw
    if np.any(det <= 0.0):
        raise MeshError("degenerate (zero-area) triangle")
    return FaceGram(guu, gww, guw, det)


@per_mesh
def face_areas(mesh):
    """Triangle areas from the ambient Gram determinant (any codimension), read-only."""
    return 0.5 * np.sqrt(face_gram(mesh).det)


@per_mesh
def face_derivatives(mesh):
    """Derivatives of P1 fields along two orthonormal in-plane directions, (2F, V) CSR, held.

    Row 2f + k holds, on the three corners of face f, the coefficients of
    the derivative along d_k: d_1 = u / |u| and d_2 the unit part of w
    orthogonal to u, with u = B - A, w = C - A. With du, dw the differences
    of a field along u and w, the two derivatives are du / |u| and
    (guu dw - guw du) / sqrt(det guu). The derivative of the position along
    d_k is d_k, so ``face_derivatives(mesh) @ mesh.vertices`` holds the
    directions themselves. A face with det <= 0 raises MeshError (face_gram).
    """
    guu, _, guw, det = face_gram(mesh)
    # (F, 2, 3): the coefficients of corners A, B, C in each derivative
    coeffs = np.stack([np.outer(1.0 / np.sqrt(guu), [-1.0, 1.0, 0.0]),
                       np.stack([guw - guu, -guw, guu], axis=1) / np.sqrt(det * guu)[:, None]],
                      axis=1)
    columns = np.repeat(mesh.faces, 2, axis=0)
    return sp.csr_matrix((coeffs.ravel(), columns.ravel(), np.arange(0, coeffs.size + 1, 3)),
                         shape=(2 * mesh.num_faces, mesh.num_vertices))


def mesh_size(mesh):
    """Longest edge length h, over the held edge table (mesh_edges)."""
    x = mesh.vertices[mesh_edges(mesh)]
    return float(np.linalg.norm(x[:, 0] - x[:, 1], axis=1).max())


def _directed_edges(mesh):
    """Tails and heads of the directed edges ab, bc, ca of every face, each (3F,)."""
    f = mesh.faces
    return f.ravel(), f[:, [1, 2, 0]].ravel()


def _edge_fault(mesh):
    """What keeps the face graph from being closed and oriented, as a message.

    Names the directed edge used twice with the smallest key a * V + b, else
    the first directed edge in face order whose reverse is missing, else an
    edge from a vertex to itself.
    """
    V = mesh.num_vertices
    a, b = _directed_edges(mesh)
    keys = np.sort(a * V + b)
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if twice.size:
        edge = tuple(int(v) for v in divmod(int(keys[twice[0]]), V))
        return f"directed edge {edge} used twice (non-orientable or non-manifold)"
    reverse = b * V + a
    at = np.minimum(np.searchsorted(keys, reverse), keys.size - 1)
    open_edges = np.flatnonzero(keys[at] != reverse)
    if open_edges.size:
        i = open_edges[0]
        return f"boundary edge ({a[i]}, {b[i]}): mesh is not closed"
    loop = int(a[np.flatnonzero(a == b)[0]])
    return f"edge ({loop}, {loop}) joins a vertex to itself"


@per_mesh
def mesh_edges(mesh):
    """The undirected edges (a, b), a < b, of a closed oriented mesh, (E, 2), held.

    Each directed edge a -> b of a face is the key (min * V + max) * 2 + [a > b],
    so the two directions of one edge are the keys 2k and 2k + 1. The mesh
    is closed and oriented exactly when its sorted keys come in such pairs:
    every directed edge is used once and its reverse once. The edges are
    sorted by (a, b), as int32 (a mesh that fits in memory has fewer than
    2^31 vertices), which halves what the table holds. Raises MeshError
    naming the fault otherwise.
    """
    V = mesh.num_vertices
    a, b = _directed_edges(mesh)
    keys = np.sort((np.minimum(a, b) * V + np.maximum(a, b)) * 2 + (a > b))
    down, up = keys[0::2], keys[1::2]
    if np.any(down & 1) or not np.array_equal(down + 1, up):
        raise MeshError(_edge_fault(mesh))
    return np.stack(np.divmod(down >> 1, V), axis=1).astype(np.int32)


def validate_mesh(mesh):
    """Raise MeshError unless the mesh is a valid closed oriented surface.

    Checks: finite unit vertices, positive triangle areas, every directed
    edge used exactly once with its reverse also used exactly once
    (mesh_edges), and every vertex used by some face.
    """
    x = mesh.vertices
    if not np.all(np.isfinite(x)):
        raise MeshError("non-finite vertex coordinates")
    r = np.linalg.norm(x, axis=1)
    off = float(np.max(np.abs(r - 1.0)))
    if off > UNIT_SPHERE_TOL:
        raise MeshError(f"vertices off the unit sphere by {off:.3e}")
    f = mesh.faces
    if f.min() < 0 or f.max() >= mesh.num_vertices:
        raise MeshError("face index out of range")
    face_gram(mesh)   # raises MeshError on a zero-area triangle
    mesh_edges(mesh)
    unused = np.flatnonzero(np.bincount(f.ravel(), minlength=mesh.num_vertices) == 0)
    if unused.size:
        raise MeshError(f"vertex {unused[0]} is used by no face")
    return True


def contained_in_geodesic_s2(mesh):
    """True iff the vertices span a linear subspace of dimension <= 3.

    Rank is taken from the singular values of the vertex matrix with a
    relative cutoff, i.e. the surface lies in some totally geodesic S^2.
    """
    s = np.linalg.svd(mesh.vertices, compute_uv=False)
    rank = int(np.sum(s > GEODESIC_RANK_CUTOFF * s[0]))
    return rank <= 3


def frames_from_projectors(proj, count):
    """Deterministic orthonormal frames inside per-vertex subspaces.

    proj is (V, d, d), the orthogonal projector onto the desired subspace at
    each vertex. Ambient axes are projected and Gram-Schmidt-ed in index
    order, skipping near-degenerate directions; the first `count` survivors
    form the frame. Returns (V, count, d).
    """
    V, d, _ = proj.shape
    frames = np.zeros((V, count, d))
    filled = np.zeros(V, dtype=int)
    for axis in range(d):
        w = proj[:, :, axis].copy()
        # remove components along frame vectors already chosen (unfilled rows are zero)
        coeff = np.einsum("vkd,vd->vk", frames, w)
        w -= np.einsum("vkd,vk->vd", frames, coeff)
        norm = np.linalg.norm(w, axis=1)
        take = (norm > FRAME_SKIP_TOL) & (filled < count)
        idx = np.nonzero(take)[0]
        frames[idx, filled[idx]] = w[idx] / norm[idx, None]
        filled[idx] += 1
        if np.all(filled == count):
            break
    if np.any(filled < count):
        raise MeshError("could not build a full tangent frame at some vertex")
    return frames


@per_mesh
def sphere_tangent_frames(mesh):
    """(V, n, n+1) orthonormal basis of T_x S^n (everything orthogonal to x)."""
    x = mesh.vertices
    d = mesh.n + 1
    proj = np.eye(d)[None] - np.einsum("vi,vj->vij", x, x)
    return frames_from_projectors(proj, mesh.n)


@per_mesh
def surface_tangent_frames(mesh):
    """(V, 2, n+1) orthonormal basis of the discrete tangent plane of Sigma.

    Uses the analytic chart frames when present; otherwise the area-weighted
    average of incident face planes (projected orthogonal to the position
    vector), canonicalized by Gram-Schmidt over the ambient axes.
    """
    if mesh.chart is not None:
        return mesh.chart.tangent_frames
    x = mesh.vertices
    d = mesh.n + 1
    V = mesh.num_vertices
    areas = face_areas(mesh)
    directions = (face_derivatives(mesh) @ x).reshape(mesh.num_faces, 2, d)
    face_proj = np.einsum("fki,fkj->fij", directions, directions)
    acc = np.zeros((V, d, d))
    for corner in range(3):
        np.add.at(acc, mesh.faces[:, corner], areas[:, None, None] * face_proj)
    # restrict to the sphere tangent space before extracting the plane
    sph = np.eye(d)[None] - np.einsum("vi,vj->vij", x, x)
    acc = sph @ acc @ sph
    vals, vecs = np.linalg.eigh(acc)
    top2 = vecs[:, :, -2:]  # (V, d, 2)
    plane = np.einsum("vik,vjk->vij", top2, top2)
    return frames_from_projectors(plane, 2)


# ---------------------------------------------------------------------------
# Extended OFF format: "nOFF" header, "<n+1> <V> <F> 0" counts line,
# V vertex lines of n+1 floats at 17 significant digits, F lines "3 i j k".
# ---------------------------------------------------------------------------

def write_off(mesh, path):
    with open(path, "w") as fh:
        fh.write("nOFF\n")
        fh.write(f"{mesh.n + 1} {mesh.num_vertices} {mesh.num_faces} 0\n")
        for row in mesh.vertices:
            fh.write(" ".join(f"{c:.17g}" for c in row) + "\n")
        for tri in mesh.faces:
            fh.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")


def read_off(path):
    """Read an extended OFF file; the mesh must pass validate_mesh (MeshError).

    The mesh is named after the file's stem. Text from # to the end of a
    line is a comment. A file that cannot be read as text or does not
    parse as nOFF raises ParameterError.
    """
    try:
        with open(path) as fh:
            stripped = (ln.split("#", 1)[0].strip() for ln in fh)
            lines = [ln for ln in stripped if ln]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read mesh file {path!r}: {exc}") from exc
    if not lines or lines[0] != "nOFF":
        raise ParameterError(f"{path}: missing nOFF header")
    try:
        dim, nv, nf, _ = (int(tok) for tok in lines[1].split())
        if dim < 3:
            raise ParameterError(f"{path}: ambient dimension {dim} below 3")
        verts = np.array([[float(t) for t in ln.split()] for ln in lines[2:2 + nv]])
        faces = []
        for ln in lines[2 + nv:2 + nv + nf]:
            toks = ln.split()
            if toks[0] != "3":
                raise ParameterError(f"{path}: non-triangular face")
            faces.append([int(t) for t in toks[1:4]])
        faces = np.array(faces, dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise ParameterError(f"{path}: malformed OFF data ({exc})") from exc
    if verts.shape != (nv, dim) or len(faces) != nf:
        raise ParameterError(f"{path}: truncated OFF data")
    mesh = SurfaceMesh(n=dim - 1, vertices=verts, faces=faces, name=Path(path).stem)
    validate_mesh(mesh)
    return mesh
