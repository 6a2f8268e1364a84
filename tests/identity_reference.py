"""Reference evaluations of L2 products and the eigenfunction proof identities.

field_inner and field_norm evaluate the lumped L2 product of one pair of
fields, the reference for operators.lumped_gram. identity_55,
weak_form_identity and mixed_gradient_identity evaluate one identity for
one Moebius combination a_j xi_j, splitting the combination afresh.
run_verification contracts the integrals of the lambda-free two into
(n+1) x (n+1) matrices (verify.identity_matrices);
identity_matrices_reference contracts L, T and D for one function f from
the per-face covariant derivatives of each f xi_i, and
product_stiffness_reference contracts K from the per-face gradients of f
and of each xi_i . xi_j. These are the references the contraction is
tested against.
eigenspace_witness_reference evaluates the certificate witness of an
eigenspace field by field: each canonical variation F_a xi_i is formed,
projected orthogonal to the Moebius fields, and the energy Gram matrix
G_i of the projections is one energy_form_coordinate of their stack.
certificates.eigenspace_witness forms the same G_i in (n+1)-space from
per-vertex densities, with no field F_a xi_i.
surface_gradient is the per-face gradient of a linear interpolant from the
inverse of the face Gram matrix, the reference for mesh.face_derivatives.
frame_block_reference and shifted_in_order_reference build the index
pencils and their shifted matrices through COO triplets, the references for
the CSR assembly of secondvar.energy_quadratic_matrix and the
elimination-order builder behind operators._factor_shifted.
p1_gram_reference and cotangent_stiffness_reference assemble M from its
nine COO entries per face and S from the cotangents of the edge lengths
(U. Pinkall and K. Polthier, Experiment. Math. 2, 1993), the references
for the one P1 scatter, operators._p1_matrix.
"""

import numpy as np
import scipy.sparse as sp

from spherevar.certificates import TIE_REL
from spherevar.errors import ContractError
from spherevar.mobius import (
    moebius_basis,
    moebius_normal,
    moebius_normal_gram,
    moebius_tangential,
    project_orthogonal_to_moebius,
    split_tangent_normal,
)
from spherevar.mesh import face_areas, face_corner_vectors, face_corners, face_gram
from spherevar.operators import integrate, lumped_gram, vertex_weights
from spherevar.secondvar import (
    covariant_face_derivatives,
    covariant_gradient_inner,
    energy_form_coordinate,
)

LAMBDA_SINGULAR_TOL = 1e-6


def field_inner(weights, X, Y):
    """L2 inner product int X . Y dmu, pointwise dot against the vertex weights."""
    return float(np.einsum("v,vd,vd->", weights, X, Y))


def field_norm(weights, X):
    return float(np.sqrt(max(field_inner(weights, X, X), 0.0)))


def surface_gradient(mesh, f):
    """Per-face constant gradient of the linear interpolant, shape (F, n+1)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.num_vertices,):
        raise ContractError("scalar field length must equal vertex count")
    u, w = face_corner_vectors(mesh)
    guu, gww, guw, det = face_gram(mesh)
    tri = mesh.faces
    du = f[tri[:, 1]] - f[tri[:, 0]]
    dw = f[tri[:, 2]] - f[tri[:, 0]]
    c1 = (gww * du - guw * dw) / det
    c2 = (guu * dw - guw * du) / det
    return c1[:, None] * u + c2[:, None] * w


def p1_gram_reference(mesh, areas):
    """Gram matrix of the P1 hat functions, each face counted with its
    entry of ``areas``: area / 6 on the diagonal, area / 12 off it."""
    f = mesh.faces
    V = mesh.num_vertices
    rows = np.concatenate([f[:, 0], f[:, 1], f[:, 2],
                           f[:, 0], f[:, 1], f[:, 0], f[:, 2], f[:, 1], f[:, 2]])
    cols = np.concatenate([f[:, 0], f[:, 1], f[:, 2],
                           f[:, 1], f[:, 0], f[:, 2], f[:, 0], f[:, 2], f[:, 1]])
    vals = np.concatenate([areas / 6.0] * 3 + [areas / 12.0] * 6)
    return sp.coo_matrix((vals, (rows, cols)), shape=(V, V)).tocsr()


def cotangent_stiffness_reference(mesh):
    """Cotangent stiffness from the edge lengths: half the cotangent of the
    angle at each corner on the edge opposite it, the diagonal minus the
    off-diagonal row sums. Sparse sums drop exact zeros."""
    a, b, c = face_corners(mesh)
    l0, l1, l2 = (np.linalg.norm(c - b, axis=1), np.linalg.norm(a - c, axis=1),
                  np.linalg.norm(b - a, axis=1))
    areas = face_areas(mesh)
    # cot(angle at corner k) = (sum of adjacent squared lengths - opposite^2) / (4 area)
    sq0, sq1, sq2 = l0 * l0, l1 * l1, l2 * l2
    cot0 = (sq1 + sq2 - sq0) / (4.0 * areas)
    cot1 = (sq2 + sq0 - sq1) / (4.0 * areas)
    cot2 = (sq0 + sq1 - sq2) / (4.0 * areas)
    f = mesh.faces
    V = mesh.num_vertices
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0], f[:, 2], f[:, 0], f[:, 1]])
    cols = np.concatenate([f[:, 2], f[:, 1], f[:, 2], f[:, 0], f[:, 1], f[:, 0]])
    w = np.concatenate([cot0, cot0, cot1, cot1, cot2, cot2]) * 0.5
    off = sp.coo_matrix((-w, (rows, cols)), shape=(V, V)).tocsr()
    return (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()


def frame_block_reference(frames, entries, *values):
    """Frame congruences of scalar matrices, scattered from COO triplets.

    Each scalar matrix is given by its values on the COO pattern entries;
    the block at (v, w) is A_vw * F_v F_w^T. The triplets of every block
    entry are summed into CSR, and exact zeros are dropped.
    """
    count = frames.shape[1]
    products = np.einsum("eki,eli->ekl", frames[entries.row], frames[entries.col])
    k_idx, l_idx = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
    rows = (entries.row[:, None, None] * count + k_idx[None]).ravel()
    cols = (entries.col[:, None, None] * count + l_idx[None]).ravel()
    dim = entries.shape[0] * count
    matrices = []
    for data in values:
        blocks = (products * data[:, None, None]).ravel()
        matrix = sp.coo_matrix((blocks, (rows, cols)), shape=(dim, dim)).tocsr()
        matrix.eliminate_zeros()
        matrices.append(matrix)
    return matrices


def shifted_in_order_reference(A, M, sigma, order):
    """A - sigma M in elimination order, a CSC matrix built from the permuted
    COO triplet. The DOF at position p * block + j is order[p] * block + j.
    """
    block = A.shape[0] // np.size(order)
    perm = (np.asarray(order)[:, None] * block + np.arange(block)).ravel()
    position = np.empty_like(perm)
    position[perm] = np.arange(perm.size)
    K = (A - sigma * M).tocoo()
    return sp.csc_matrix((K.data, (position[K.row], position[K.col])), shape=A.shape)


def _combination(basis, a):
    return np.einsum("j,jvd->vd", np.asarray(a, dtype=float), basis)


def _pointwise_dot(X, Y):
    return np.einsum("vd,vd->v", X, Y)


def identity_55(mesh, f, lam, a, i):
    """int f xi_i . (a_j xi_j) vs -2/(4-lambda) int f xi_i^T . (a_j xi_j)^T,
    for an eigenfunction f of eigenvalue lam."""
    if abs(lam - 4.0) < LAMBDA_SINGULAR_TOL:
        raise ContractError("eigenvalue at the singular denominator lambda = 4")
    basis = moebius_basis(mesh)
    combo = _combination(basis, a)
    lhs = integrate(mesh, f * _pointwise_dot(basis[i], combo))
    xi_t = moebius_tangential(mesh)[i]
    combo_t = split_tangent_normal(mesh, combo).tangential
    rhs = -2.0 / (4.0 - lam) * integrate(mesh, f * _pointwise_dot(xi_t, combo_t))
    return lhs, rhs


def _stiffness_inner(mesh, f, g):
    """int grad f . grad g of the linear interpolants, face by face."""
    return float(face_areas(mesh) @ np.einsum("fc,fc->f", surface_gradient(mesh, f),
                                              surface_gradient(mesh, g)))


def weak_form_identity(mesh, f, a, i):
    """Weak form of Delta(x_i x_j) = -4 x_i x_j + 2 grad x_i . grad x_j,
    against the combination a_j xi_j; holds for any f on a minimal surface.

    lhs = int grad f . grad(xi_i . a_j xi_j) with the per-face gradients;
    rhs = 4 int f xi_i . (a_j xi_j) - 4 a_i int f
          + 2 int f xi_i^T . (a_j xi_j)^T.
    """
    basis = moebius_basis(mesh)
    f = np.asarray(f, dtype=float)
    combo = _combination(basis, a)
    lhs = _stiffness_inner(mesh, f, _pointwise_dot(basis[i], combo))
    combo_t = split_tangent_normal(mesh, combo).tangential
    rhs = (4.0 * integrate(mesh, f * _pointwise_dot(basis[i], combo))
           - 4.0 * a[i] * integrate(mesh, f)
           + 2.0 * integrate(mesh, f * _pointwise_dot(moebius_tangential(mesh)[i], combo_t)))
    return lhs, rhs


def mixed_gradient_identity(mesh, f, a, i):
    """Mixed covariant-gradient term of the cross expansion.

    lhs = -2 int <D(f xi_i), D(a_j xi_j)> with the per-face sphere-covariant
    derivative; rhs = -2 int f xi_i^T . (a_j xi_j)^T. Holds for any f.
    """
    basis = moebius_basis(mesh)
    f = np.asarray(f, dtype=float)
    U = f[:, None] * basis[i]
    W = _combination(basis, a)
    lhs = -2.0 * covariant_gradient_inner(mesh, U, W)
    xi_t = moebius_tangential(mesh)[i]
    combo_t = split_tangent_normal(mesh, W).tangential
    rhs = -2.0 * integrate(mesh, f * _pointwise_dot(xi_t, combo_t))
    return lhs, rhs


def identity_matrices_reference(mesh, f):
    """L, T, D of verify.identity_matrices for one f (V,), contracted directly.

    L and T contract the weighted basis and tangential parts over vertices
    and components; D[i, j] contracts the per-face covariant
    derivatives of f xi_i with those of xi_j, weighted by the face areas.
    """
    f = np.asarray(f, dtype=float)
    weighted = vertex_weights(mesh) * f

    def contract(X):
        return np.tensordot(X * weighted[None, :, None], X, axes=([1, 2], [1, 2]))

    basis, tangential = moebius_basis(mesh), moebius_tangential(mesh)
    derivatives = np.stack([covariant_face_derivatives(mesh, xi) for xi in basis])
    areas = face_areas(mesh)[:, None, None]
    D = np.stack([
        np.tensordot(covariant_face_derivatives(mesh, f[:, None] * xi) * areas,
                     derivatives, axes=([0, 1, 2], [1, 2, 3]))
        for xi in basis])
    return contract(basis), contract(tangential), D


def product_stiffness_reference(mesh, f):
    """K of verify.identity_matrices for one f (V,), entry by entry:
    K[i, j] = int grad f . grad(xi_i . xi_j) from the per-face gradients."""
    basis = moebius_basis(mesh)
    d = mesh.n + 1
    return np.array([[_stiffness_inner(mesh, f, _pointwise_dot(basis[i], basis[j]))
                      for j in range(d)] for i in range(d)])


def eigenspace_witness_reference(mesh, F, lam):
    """The certificate witness of the eigenspace spanned by F (V, m), field by field.

    G_i is the energy Gram matrix of the projections of the fields F_a xi_i
    (project_orthogonal_to_moebius); i0 and c follow the tie rule of
    certificates.eigenspace_witness, and the other fields are evaluated on
    the fields f xi_i and f xi_i^N of the witness f = F c. Returns the
    fields keyed as eigenspace_witness returns them, and G (n+1, m, m).
    """
    n = mesh.n
    basis = moebius_basis(mesh)
    normals = moebius_normal(mesh)
    G = np.stack([energy_form_coordinate(mesh, np.stack(
        [project_orthogonal_to_moebius(mesh, F_a[:, None] * xi)[0] for F_a in F.T]))
        for xi in basis])
    spectra, vectors = np.linalg.eigh(G)
    least = spectra[:, 0]
    i0 = int(np.flatnonzero(least <= least.min() + TIE_REL * np.max(np.abs(spectra)))[0])
    f = F @ vectors[i0, :, 0]
    f_normals = f[None, :, None] * normals
    d2e = np.diag(energy_form_coordinate(mesh, f[None, :, None] * basis))
    normal_mass = np.diag(lumped_gram(mesh, f_normals))
    X_perp, a, residuals, degenerate = project_orthogonal_to_moebius(mesh, f[:, None] * basis[i0])
    decomposition = (d2e[i0]
                     - 2.0 * (a @ moebius_normal_gram(mesh) @ a)
                     + 4.0 * (lumped_gram(mesh, f_normals[[i0]], normals)[0] @ a))
    coeff = (n * lam - 2 * n + 4) / (n - 2)
    return {
        "i0": i0, "a": a, "d2e_canonical": d2e, "normal_mass": normal_mass,
        "d2e_value": energy_form_coordinate(mesh, X_perp),
        "decomposition_value": decomposition,
        "pigeonhole_sum": float(np.sum(d2e - coeff * normal_mass)),
        "orthogonality_residuals": residuals,
        "proposition_applicable": bool(lam <= 1.0 and d2e[i0] < -1.5 * normal_mass[i0]),
        "degenerate_gram": degenerate,
        "cluster_members": spectra.tolist(),
    }, G
