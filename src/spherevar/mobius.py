"""Moebius vector fields xi_v(x) = v - <v,x> x and tangent/normal splits.

These are the gradients of the ambient linear coordinates restricted to the
sphere; they span the explicit negative directions of the energy second
variation. All pointwise algebra (|xi_v|^2 = |v|^2 - <v,x>^2 etc.) holds to
machine precision regardless of mesh quality; only the split against the
surface tangent plane carries discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .mesh import face_areas, face_derivatives, mesh_edges, per_mesh, surface_tangent_frames
from .operators import lumped_gram, vertex_weights

SPHERE_TANGENCY_TOL = 1e-10
GRAM_SINGULAR_REL = 1e-12


def moebius_field(mesh, v):
    """Tangent field v - <v,x> x per vertex; linear in v. Shape (V, n+1)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.n + 1,):
        raise ContractError(f"direction vector must have length {mesh.n + 1}")
    x = mesh.vertices
    return v[None, :] - (x @ v)[:, None] * x


@per_mesh
def moebius_basis(mesh):
    """All n+1 coordinate Moebius fields, shape (n+1, V, n+1), read-only."""
    d = mesh.n + 1
    return np.stack([moebius_field(mesh, np.eye(d)[i]) for i in range(d)])


def check_sphere_tangent(mesh, X):
    X = np.asarray(X, dtype=float)
    if X.shape != mesh.vertices.shape:
        raise ContractError("tangent field must have shape (V, n+1)")
    radial = np.abs(np.einsum("vd,vd->v", X, mesh.vertices))
    scale = np.maximum(np.linalg.norm(X, axis=1), 1.0)
    worst = float(np.max(radial / scale))
    if worst > SPHERE_TANGENCY_TOL:
        raise ContractError(f"field is not sphere-tangent (radial part {worst:.3e})")
    return X


@dataclass
class SplitField:
    """Orthogonal decomposition of a sphere-tangent field along the surface."""

    tangential: np.ndarray   # (V, n+1), in the discrete tangent plane of Sigma
    normal: np.ndarray       # (V, n+1), sphere-tangent and Sigma-normal


def split_tangent_normal(mesh, X):
    """Project X onto the discrete tangent plane; the rest is the normal part."""
    X = check_sphere_tangent(mesh, X)
    frames = surface_tangent_frames(mesh)
    coeff = np.einsum("vkd,vd->vk", frames, X)
    tangential = np.einsum("vkd,vk->vd", frames, coeff)
    return SplitField(tangential=tangential, normal=X - tangential)


@per_mesh
def moebius_tangential(mesh):
    """Tangential parts xi_i^T of the Moebius basis, (n+1, V, n+1), read-only."""
    return np.stack([split_tangent_normal(mesh, xi).tangential for xi in moebius_basis(mesh)])


@per_mesh
def moebius_normal(mesh):
    """Normal parts xi_i^N = xi_i - xi_i^T of the Moebius basis, (n+1, V, n+1), read-only."""
    return moebius_basis(mesh) - moebius_tangential(mesh)


@per_mesh
def moebius_gram(mesh):
    """(n+1)x(n+1) matrix of int xi_i . xi_j dmu, lumped (lumped_gram), read-only.

    The barycentric quadrature keeps the algebraic Moebius identities (Gram
    integrand, trace) exact up to rounding.
    """
    return lumped_gram(mesh, moebius_basis(mesh))


@per_mesh
def moebius_normal_gram(mesh):
    """(n+1)x(n+1) matrix of int xi_i^N . xi_j^N dmu, lumped as moebius_gram, read-only."""
    return lumped_gram(mesh, moebius_normal(mesh))


def vertex_products(X, Y):
    """Dot products X_i(v) . Y_j(v) of two field stacks (p, V, d) and (q, V, d)
    at every vertex, (V, p * q), row-major in (i, j)."""
    return np.einsum("ivc,jvc->vij", X, Y).reshape(X.shape[1], -1)


def moebius_coefficients(mesh, b):
    """Solve G a = b with G the Moebius Gram matrix, b (n+1,) or (n+1, k).

    A singular G falls back to least squares. Returns (a, degenerate_gram).
    """
    gram = moebius_gram(mesh)
    evals = np.linalg.eigvalsh(gram)
    degenerate = bool(evals[0] <= GRAM_SINGULAR_REL * max(evals[-1], 1.0))
    if degenerate:
        return np.linalg.lstsq(gram, b, rcond=None)[0], degenerate
    return np.linalg.solve(gram, b), degenerate


def project_orthogonal_to_moebius(mesh, X):
    """Remove the Moebius components: X_perp = X - sum_j a_j xi_j.

    Coefficients solve G a = (int X . xi_j)_j (moebius_coefficients).
    Returns (X_perp, a, residuals, degenerate_gram) with residuals
    normalized by ||X_perp||_{L2} ||xi_j||_{L2}, which is stricter than
    ||X||_{L2} when the projection removes most of X.
    """
    basis = moebius_basis(mesh)
    gram = moebius_gram(mesh)
    X = check_sphere_tangent(mesh, X)
    a, degenerate = moebius_coefficients(mesh, lumped_gram(mesh, X[None], basis)[0])
    X_perp = X - np.einsum("j,jvd->vd", a, basis)
    tiny = np.finfo(float).tiny
    norm_x = max(np.sqrt(max(lumped_gram(mesh, X_perp[None])[0, 0], 0.0)), tiny)
    norm_xi = np.maximum(np.sqrt(np.maximum(np.diag(gram), 0.0)), tiny)
    residuals = np.abs(lumped_gram(mesh, X_perp[None], basis)[0]) / (norm_x * norm_xi)
    return X_perp, a, residuals, degenerate


def pointwise_identity_report(mesh):
    """Worst pointwise errors of the Moebius-field identities, a dict of floats.

      norm_sq       max_i | |xi_i|^2 - (1 - x_i^2 (2 - |x|^2)) |  (algebraic, ~machine)
      tangential_sq max_i | |xi_i^T|^2 - |grad x_i|^2 |         (discretization)
      covariant     max_i | FD of xi_i along an edge + x_i * edge | / |edge|

    norm_sq compares with the exact value for the stored x, which may lie
    off the unit sphere by rounding: 1 - x_i^2 alone differs from it by
    x_i^2 (|x|^2 - 1). tangential_sq compares at each vertex v: |xi_i^T(v)|^2
    against the area-weighted mean over the faces around v of the P1
    |grad x_i|^2.
    """
    x = mesh.vertices
    two_minus_sq = 2.0 - np.einsum("vd,vd->v", x, x)
    d = mesh.n + 1
    basis = moebius_basis(mesh)
    tangential = moebius_tangential(mesh)
    # |grad x_i|^2 per face is sum_k (d_k)_i^2 over the in-plane directions d_k
    directions = (face_derivatives(mesh) @ x).reshape(mesh.num_faces, 2, d)
    weighted = face_areas(mesh)[:, None] * np.einsum("fki,fki->fi", directions, directions)
    star_gradsq = np.zeros((mesh.num_vertices, d))
    for corner in range(3):
        np.add.at(star_gradsq, mesh.faces[:, corner], weighted)
    # the star's area is three times the vertex weight
    star_gradsq /= 3.0 * vertex_weights(mesh)[:, None]

    # every edge {a, b} once, with its unit-sphere midpoint
    a, b = mesh_edges(mesh).T
    p, q = x[a], x[b]
    mid = 0.5 * (p + q)
    mid_hat = mid / np.linalg.norm(mid, axis=1, keepdims=True)
    edge = q - p
    edge_len = np.linalg.norm(edge, axis=1)

    errors = []   # (norm_sq, tangential_sq, covariant) of each coordinate
    for i in range(d):
        xi = basis[i]
        sq = np.einsum("vd,vd->v", xi, xi)
        err_norm = np.max(np.abs(sq - (1.0 - x[:, i] ** 2 * two_minus_sq)))

        tansq = np.einsum("vd,vd->v", tangential[i], tangential[i])
        err_tan = np.max(np.abs(tansq - star_gradsq[:, i]))

        # finite difference of xi_i along each edge, projected to the sphere
        # tangent space at the midpoint, against -x_i * edge
        delta = basis[i][b] - basis[i][a]
        delta -= np.einsum("ed,ed->e", delta, mid_hat)[:, None] * mid_hat
        target = -mid_hat[:, i][:, None] * edge
        err_cov = np.max(np.linalg.norm(delta - target, axis=1) / edge_len)
        errors.append((err_norm, err_tan, err_cov))
    norm_sq, tangential_sq, covariant = np.max(errors, axis=0).tolist()
    return {"norm_sq": norm_sq, "tangential_sq": tangential_sq, "covariant": covariant}


def sum_normal_sq(mesh):
    """Per-vertex sum_i |xi_i^N|^2 (equals n-2 on minimal surfaces)."""
    normal = moebius_normal(mesh)
    return np.einsum("ivd,ivd->v", normal, normal)
