"""Second-variation quadratic forms and Morse-index counts.

Two independent discretizations of the energy second variation:

* coordinate form: sum_i int |grad X^i|^2 - 2 |X^i|^2 over the ambient
  components, assembled from the scalar stiffness/mass matrices (canonical);
* covariant form: int |D X|^2 - 2|X^N|^2 - |X^T|^2 with the derivative taken
  per face and projected into the sphere tangent space (cross-check only).

The codimension-one area Jacobi form int |grad f|^2 - 2 f^2 - |A|^2 f^2 is
available for catalog surfaces in S^3 with analytic |A|^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, ParameterError, SolverError, UnsupportedSurfaceError
from .mesh import face_areas, face_derivatives, per_mesh, sphere_tangent_frames
from .mobius import check_sphere_tangent, moebius_basis, split_tangent_normal
from .operators import (
    KEPT_ENTRY_BYTES,
    SUPERLU_ENTRY_BYTES,
    Pencil,
    _eliminate,
    _fronts,
    _p1_mass,
    _shift_invert_lanczos,
    assemble_mass,
    assemble_stiffness,
    dissection_tree,
    face_centroids_on_sphere,
    lumped_gram,
)

DEFAULT_INDEX_DELTA = 0.1


def _apply_to_stack(A, X):
    """A applied to every component of every field of a stack X (m, V, n+1).

    One sparse product over the (V, m * (n+1)) matrix of components; each
    column is the product A @ X[k] would give, and each field of the result
    is contiguous again.
    """
    m, V, d = X.shape
    AX = A @ np.moveaxis(X, 0, 1).reshape(V, m * d)
    return np.ascontiguousarray(np.moveaxis(AX.reshape(V, m, d), 1, 0))


def _field_stack(mesh, X):
    """X as a stack (m, V, n+1) of sphere-tangent fields; one field is a stack of one."""
    X = np.asarray(X, dtype=float)
    stack = X if X.ndim == 3 else X[None]
    for one in stack:
        check_sphere_tangent(mesh, one)
    return stack


def coordinate_form_parts(mesh, X, Y=None):
    """Stiffness and mass parts sum_i X_a^i' S Y_b^i and sum_i X_a^i' M Y_b^i of D^2E.

    X is a stack (m, V, n+1) of fields and Y one (p, V, n+1); one field
    (V, n+1) is a stack of one. The parts are two (m, p) matrices, from one
    stiffness and one mass product over the fields of Y, each entry summed
    as for that pair alone; two single fields give two floats. Without Y
    the matrices are Gram matrices of X, each entry a <= b mirrored, so
    they are exactly symmetric.
    """
    Xs = _field_stack(mesh, X)
    Ys = Xs if Y is None else _field_stack(mesh, Y)
    parts = []
    for A in (assemble_stiffness(mesh), assemble_mass(mesh)):
        AY = _apply_to_stack(A, Ys)
        G = np.array([[np.einsum("vd,vd->", x, ay) for ay in AY] for x in Xs])
        if Y is None:
            lower = np.tril_indices(len(G), -1)
            G[lower] = G.T[lower]
        parts.append(G)
    if np.ndim(X) == 2 and (Y is None or np.ndim(Y) == 2):
        return tuple(float(G[0, 0]) for G in parts)
    return tuple(parts)


def energy_form_coordinate(mesh, X, Y=None):
    """D^2E as a bilinear form: sum_i (X^i' S Y^i - 2 X^i' M Y^i).

    Stacks of fields give the (m, p) matrix of D^2E on every pair, a Gram
    matrix without Y (see coordinate_form_parts).
    """
    stiffness, mass = coordinate_form_parts(mesh, X, Y)
    return stiffness - 2.0 * mass


@per_mesh
def moebius_energy_gram(mesh):
    """(n+1)x(n+1) Gram matrix B_ij = D^2E(xi_i, xi_j) of the Moebius basis, read-only."""
    return energy_form_coordinate(mesh, moebius_basis(mesh))


@per_mesh
def moebius_covariant_load(mesh):
    """Covariant loads C xi_j of the Moebius basis, (n+1, V, n+1), read-only.

    sum_v X(v) . (C xi_j)(v) = covariant_gradient_inner(mesh, X, xi_j) for
    every field X (V, n+1). The projection orthogonal to the face centroid
    is symmetric and idempotent, so on each face <D X, D xi_j> is the
    unprojected derivative of X along each direction dotted with
    (D xi_j)_k, and C xi_j = D' (area * D xi_j) with D the face derivatives.
    """
    D = face_derivatives(mesh)
    areas = face_areas(mesh)[:, None, None]
    d = mesh.n + 1
    return np.stack([D.T @ (areas * covariant_face_derivatives(mesh, xi)).reshape(-1, d)
                     for xi in moebius_basis(mesh)])


def covariant_face_derivatives(mesh, X):
    """Per-face sphere-covariant derivatives of a field X (V, n+1), (F, 2, n+1).

    Entry [:, k] is the derivative of the linear interpolant of X along the
    k-th orthonormal in-plane direction (face_derivatives), projected
    orthogonal to the face centroid on the sphere.
    """
    D = (face_derivatives(mesh) @ np.asarray(X, dtype=float)).reshape(mesh.num_faces, 2, -1)
    centroid = face_centroids_on_sphere(mesh)
    D -= np.einsum("fkc,fc->fk", D, centroid)[:, :, None] * centroid[:, None, :]
    return D


def covariant_gradient_inner(mesh, X, Y=None):
    """int <D X, D Y> with D the per-face sphere-covariant derivative."""
    DX = covariant_face_derivatives(mesh, X)
    DY = DX if Y is None else covariant_face_derivatives(mesh, Y)
    return float(face_areas(mesh) @ np.einsum("fkc,fkc->f", DX, DY))


def energy_form_covariant(mesh, X):
    """D^2E(X) = int |D X|^2 - 2 |X^N|^2 - |X^T|^2 (cross-check form)."""
    split = split_tangent_normal(mesh, X)
    tansq, norsq = np.diag(lumped_gram(mesh, np.stack([split.tangential, split.normal])))
    return covariant_gradient_inner(mesh, X) - 2.0 * norsq - tansq


def _normsq_A_values(mesh):
    if mesh.chart is None or mesh.chart.normsq_A is None:
        raise UnsupportedSurfaceError(
            "area Jacobi form needs analytic |A|^2 chart data (catalog surfaces in S^3)")
    a2 = mesh.chart.normsq_A
    if np.ndim(a2) == 0:
        return float(a2) * np.ones(mesh.num_vertices)
    a2 = np.asarray(a2, dtype=float)
    if a2.shape != (mesh.num_vertices,):
        raise ContractError("|A|^2 array length must equal vertex count")
    return a2


def area_jacobi_form(mesh, f, g=None):
    """int grad f . grad g - 2 f g - |A|^2 f g (codimension one, n = 3 only)."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    if f.shape != (mesh.num_vertices,) or g.shape != (mesh.num_vertices,):
        raise ContractError("scalar fields must have one value per vertex")
    return float(f @ (area_jacobi_matrix(mesh).Q @ g))


def _frame_block_matrices(frames, pattern, *values):
    """Congruences of scalar matrices to per-vertex frame coordinates, on one
    CSR pattern.

    Each scalar matrix is given by its values on the CSR pattern of
    ``pattern`` (canonical). For one with entries A_vw, the block at (v, w)
    is A_vw * F_v F_w^T where F_v is the (count, n+1) frame at vertex v. The
    frame products F_v F_w^T are formed once and expanded to CSR once, by
    scipy's bsr_tocsr: row v * count + k holds row k of the blocks of row v
    in turn, so each run of count entries is one block's. Each matrix
    scales every run by the value of its block, and all of them hold the
    one read-only indices and indptr of that expansion. An entry is dropped
    where it is zero in every matrix, as where frame vectors have disjoint
    support.
    """
    count = frames.shape[1]
    V = pattern.shape[0]
    row = np.repeat(np.arange(V), np.diff(pattern.indptr))
    products = np.einsum("eki,eli->ekl", frames[row], frames[pattern.indices])
    dim = V * count
    expanded = sp.bsr_matrix((products, pattern.indices, pattern.indptr),
                             shape=(dim, dim)).tocsr()
    del products
    indices, indptr, runs = expanded.indices, expanded.indptr, expanded.data.reshape(-1, count)
    # the block of each run: row v's blocks, once for each of its count rows
    blocks = sp.csr_matrix((np.arange(pattern.nnz), pattern.indices, pattern.indptr),
                           shape=pattern.shape)[np.repeat(np.arange(V), count)].data
    # the last matrix scales the products in place
    data = [np.multiply(runs, block_values[blocks, None],
                        out=runs if k == len(values) - 1 else None).ravel()
            for k, block_values in enumerate(values)]
    del expanded, runs, blocks
    keep = np.logical_or.reduce([one != 0.0 for one in data])
    if not keep.all():
        for k in range(len(data)):
            data[k] = data[k][keep]   # one at a time, each freeing its uncompacted array
        indices = indices[keep]
        kept = np.zeros(keep.size + 1, dtype=indptr.dtype)   # entries kept before each
        np.cumsum(keep, out=kept[1:])
        indptr = kept[indptr]
    indices.flags.writeable = indptr.flags.writeable = False
    matrices = [sp.csr_matrix((one, indices, indptr), shape=(dim, dim)) for one in data]
    for matrix in matrices:
        # the constructor holds views; hold the arrays themselves
        matrix.indices, matrix.indptr = indices, indptr
    return matrices


def energy_quadratic_matrix(mesh):
    """Energy form over per-vertex orthonormal sphere-tangent frames.

    DOF dimension is n * V; the frame (sphere_tangent_frames) removes the
    radial directions, so the pencil has no artificial zero modes. Q is the
    congruence of S - 2M and the pencil's mass that of M, both taken on the
    one CSR pattern of S and M and expanded to one CSR pattern, whose
    read-only index arrays Q and M share. Both are exactly symmetric,
    because S and M are.
    """
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    Q, MQ = _frame_block_matrices(sphere_tangent_frames(mesh), M, S.data - 2.0 * M.data, M.data)
    return Pencil(Q, MQ, "energy", dissection_tree(mesh))


def area_jacobi_matrix(mesh):
    """Scalar area Jacobi pencil (S - 2M - W, M), n = 3 only, with W the mass
    weighted by |A|^2 averaged on each face; S, M and W share one pattern."""
    if mesh.n != 3:
        raise UnsupportedSurfaceError("area Jacobi form is defined for surfaces in S^3 only")
    W = _p1_mass(mesh, face_areas(mesh) * _normsq_A_values(mesh)[mesh.faces].mean(axis=1))
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    Q = sp.csr_matrix((S.data - 2.0 * M.data - W.data, M.indices, M.indptr), shape=M.shape)
    return Pencil(Q, M, "areaJacobi", dissection_tree(mesh))


class IndexCount(NamedTuple):
    count: int
    negatives: np.ndarray     # eigenvalues below -delta, ascending
    near_zero: np.ndarray     # eigenvalues in [-delta, delta] (diagnostics)
    delta: float
    lanczos_factor: str       # the factor of Q - delta M that Lanczos solved with, "" if none ran


def negative_index_count(form, delta=DEFAULT_INDEX_DELTA, seed=0):
    """Count eigenvalues of Q w = mu M w below -delta.

    Sylvester inertia leads and Lanczos supplies the values. The count is
    the inertia of Q + delta M, and that of Q - delta M gives the number of
    eigenvalues below +delta, both counted on the dense fronts of the
    dissection tree (operators._eliminate). Shift-invert Lanczos at +delta
    solves with a factor of Q - delta M; there exactly those eigenvalues
    have a negative transformed value 1 / (mu - delta), so which="SA" with
    k equal to that number returns exactly them.

    The factor is chosen from the pencil alone. For a pencil of more than
    one DOF per vertex (the energy pencil), the count at -delta also
    counts its factor's nonzeros, and the elimination at +delta keeps its
    fronts (operators.FrontFactor) when that factor takes no more bytes
    than SuperLU's, whose L and U each store those nonzeros; otherwise, and
    for a scalar pencil, SuperLU factors Q - delta M for Lanczos in the
    same order. Raises SolverError if an eigenvalue sits on +-delta (a
    singular front), if a Lanczos value is not below +delta, or if the
    Lanczos values below -delta are not as many as the count. A delta that
    is not positive and finite raises ParameterError.
    """
    if not 0.0 < delta < math.inf:
        raise ParameterError(f"delta={delta:g} must be positive and finite")
    dim = form.Q.shape[0]
    fronts = _fronts(form)
    below = _eliminate(form, fronts, -delta, count_nonzeros=form.block > 1)
    keep = form.block > 1 and (KEPT_ENTRY_BYTES * int(np.sum(fronts.kept_sizes))
                               <= SUPERLU_ENTRY_BYTES * 2 * below.nonzeros)
    above = _eliminate(form, fronts, delta, keep=keep)
    del fronts   # its buffers, before SuperLU factors or Lanczos solves
    if above.negative >= dim:
        raise SolverError(f"{form.kind} index: all {dim} eigenvalues lie below "
                          f"{delta:g}; shift-invert Lanczos needs fewer than {dim}")
    vals, factor = np.empty(0), ""
    if above.negative:
        vals = _shift_invert_lanczos(form, delta, above.negative, "SA", seed,
                                     factor=above.factor)
        factor = "the kept dense-front LDL^T" if keep else "a SuperLU factor"
    if vals.size and not vals[-1] < delta:
        raise SolverError(
            f"{form.kind} index: Lanczos returned {vals[-1]:.6g}, not below "
            f"{delta:g}, so an eigenvalue below {delta:g} was missed")
    negatives = vals[vals < -delta]
    if negatives.size != below.negative:
        raise SolverError(
            f"{form.kind} index: Lanczos counts {negatives.size} eigenvalues below "
            f"-{delta:g}, the inertia of Q + {delta:g} M counts {below.negative}")
    return IndexCount(count=below.negative, negatives=negatives,
                      near_zero=vals[vals >= -delta], delta=delta, lanczos_factor=factor)


class EjiriMicallefR(NamedTuple):
    """Index-gap bound r with the case(s) of the piecewise formula that fired."""

    value: int
    cases: tuple


def ejiri_micallef_r(g, b):
    """Piecewise bound r(g, b) on ind_A - ind_E for genus g, b branch points."""
    if not (isinstance(g, (int, np.integer)) and g >= 0):
        raise ParameterError(f"genus g={g} must be a nonnegative integer")
    if not (isinstance(b, (int, np.integer)) and b >= 0):
        raise ParameterError(f"branch count b={b} must be a nonnegative integer")
    hits = []
    if b <= 2 * g - 3:
        hits.append(("b <= 2g-3", 6 * g - 6 - 2 * b))
    if 2 * g - 2 <= b <= 4 * g - 4:
        hits.append(("2g-2 <= b <= 4g-4", 4 * g - 2 + 2 * math.floor(-b / 2)))
    if b >= 4 * g - 3:
        hits.append(("b >= 4g-3", 0))
    if not hits:
        raise ParameterError(f"(g={g}, b={b}) falls in no case of the r formula")
    values = {v for _, v in hits}
    if len(values) > 1:
        raise ParameterError(
            f"(g={g}, b={b}) matches cases with conflicting values: {hits}")
    return EjiriMicallefR(value=hits[0][1], cases=tuple(name for name, _ in hits))
