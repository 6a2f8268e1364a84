"""Second-variation quadratic forms and Morse-index counts.

Two independent discretizations of the energy second variation:

* coordinate form: sum_i int |grad X^i|^2 - 2 |X^i|^2 over the ambient
  components, assembled from the scalar stiffness/mass matrices (canonical:
  the energy pencil, the Moebius Gram matrix B and the canonical energies
  of the certificate);
* covariant form: int |D X|^2 - 2|X^N|^2 - |X^T|^2 with the derivative taken
  per face and projected orthogonal to the face centroid on the sphere, as
  one covariant Dirichlet matrix per Moebius field and the covariant loads
  of the Moebius fields (cross-checks only).

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
from .mobius import moebius_basis
from .operators import (
    KEPT_ENTRY_BYTES,
    SUPERLU_ENTRY_BYTES,
    Pencil,
    _eliminate,
    _fronts,
    _p1_mass,
    _p1_matrix,
    _shift_invert_lanczos,
    _stiffness_element,
    assemble_mass,
    assemble_stiffness,
    dissection_tree,
    face_centroids_on_sphere,
)

DEFAULT_INDEX_DELTA = 0.1


@per_mesh
def moebius_energy_gram(mesh):
    """(n+1)x(n+1) Gram matrix B_ij = D^2E(xi_i, xi_j) of the Moebius basis, read-only.

    D^2E(X, Y) = sum_c X^c' S Y^c - 2 X^c' M Y^c over the ambient components
    (the coordinate form). S and M are each applied once, to the (V, (n+1)^2)
    matrix of all components of the basis; each entry sums its stiffness
    and its mass part apart, and the entries a > b are mirrored, so B is
    exactly symmetric.
    """
    basis = moebius_basis(mesh)
    d, V, _ = basis.shape
    components = np.moveaxis(basis, 0, 1).reshape(V, d * d)
    lower = np.tril_indices(d, -1)
    parts = []
    for A in (assemble_stiffness(mesh), assemble_mass(mesh)):
        applied = np.ascontiguousarray(np.moveaxis((A @ components).reshape(V, d, d), 1, 0))
        G = np.array([[np.einsum("vd,vd->", x, ay) for ay in applied] for x in basis])
        G[lower] = G.T[lower]
        parts.append(G)
    return parts[0] - 2.0 * parts[1]


def _off_centroid(mesh, A):
    """Per-face vectors A (F, k, n+1), each projected orthogonal to its face's
    centroid on the sphere: the one projection of the covariant derivative."""
    centroid = face_centroids_on_sphere(mesh)
    return A - np.einsum("fkc,fc->fk", A, centroid)[:, :, None] * centroid[:, None, :]


@per_mesh
def moebius_covariant_load(mesh):
    """Covariant loads C xi_j of the Moebius basis, (n+1, V, n+1), read-only.

    sum_v X(v) . (C xi_j)(v) = int <D X, D xi_j> for every field X (V, n+1),
    with D the per-face sphere-covariant derivative
    (covariant_face_derivatives). The projection orthogonal to the face
    centroid is symmetric and idempotent, so on each face <D X, D xi_j> is
    the unprojected derivative of X along each direction dotted with
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
    orthogonal to the face centroid on the sphere (_off_centroid).
    """
    D = face_derivatives(mesh) @ np.asarray(X, dtype=float)
    return _off_centroid(mesh, D.reshape(mesh.num_faces, 2, -1))


def moebius_covariant_matrices(mesh):
    """The covariant Dirichlet matrix K_i of every Moebius field, one P1 matrix each.

    g' K_i h = int <D(g xi_i), D(h xi_i)> for scalar fields g and h, with D
    the per-face covariant derivative (covariant_face_derivatives). The
    projection is linear and constant on a face, so D(g xi_i) is the
    derivative of the interpolant of the projected corner values g u_i,
    u_i = xi_i at the corners of the face projected by _off_centroid: K_i
    is the cotangent element of each face (operators._stiffness_element)
    weighted entrywise by u_i(v) . u_i(w) over its corners v, w, on the
    one P1 pattern of S and M.
    """
    element = _stiffness_element(mesh)
    matrices = []
    for xi in moebius_basis(mesh):
        u = _off_centroid(mesh, xi[mesh.faces])
        matrices.append(_p1_matrix(mesh, element * (u @ u.transpose(0, 2, 1))))
    return matrices


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


def energy_quadratic_matrix(mesh):
    """Energy form over per-vertex orthonormal sphere-tangent frames.

    DOF dimension is n * V; the frame (sphere_tangent_frames) removes the
    radial directions, so the pencil has no artificial zero modes. Q is the
    congruence of S - 2M and the pencil's mass that of M by the frames,
    held as that congruence (operators.Pencil): the scalar S - 2M and M on
    their one P1 pattern and the frames, never expanded to 3V x 3V on the
    way to a count. The DOF-level Q and M, formed on access, are exactly
    symmetric, because S and M are.
    """
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    Q = sp.csr_matrix((S.data - 2.0 * M.data, M.indices, M.indptr), shape=M.shape)
    return Pencil(Q, M, "energy", dissection_tree(mesh), frames=sphere_tangent_frames(mesh))


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
    dim = form.dim
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
