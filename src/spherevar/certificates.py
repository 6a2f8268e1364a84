"""Constructive certificate pipeline and proof-identity checks.

Pipeline: over the first Laplace eigenspace, project the canonical
variations f * xi_i orthogonal to the span of all Moebius fields, take the
witness (f, i0) on which the energy second variation of the projection is
least, and report its sign. The witness depends on the eigenspace, not on
the basis the eigensolver returns. The eigenvalue threshold for a
guaranteed negative direction is (n-2)/(2n).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError, UnsupportedSurfaceError
from .mesh import contained_in_geodesic_s2, mesh_size
from .mobius import (
    moebius_basis,
    moebius_coefficients,
    moebius_normal,
    moebius_normal_gram,
    project_orthogonal_to_moebius,
    vertex_products,
)
from .operators import (
    assemble_mass,
    assemble_stiffness,
    first_nonzero_cluster,
    laplace_pencil,
    lumped_gram,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from .secondvar import energy_form_coordinate, moebius_energy_gram

ORTHOGONALITY_TOL = 1e-8
DEFAULT_CERTIFICATE_K = 8   # eigenpairs solved for the first nonzero cluster
TIE_REL = 1e-9              # per-i least eigenvalues this close (relative) tie


def threshold(n):
    """Eigenvalue threshold (n-2)/(2n) below which a certificate exists."""
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ParameterError(
            f"ambient dimension n={n} gives a degenerate threshold (need n >= 3)")
    return (n - 2) / (2 * n)


def threshold_chain_check(n):
    """Exact proof of (n*l - 2n + 4)/(n - 2) < -3/2  <=>  l < (n-2)/(2n).

    The left side is linear in l with slope n/(n-2) and equals -3/2 at
    l = (n-2)/(2n); both are exact Fractions, and a positive slope with
    that root makes the equivalence hold for every l. Returns True iff it
    does.
    """
    if n < 3:
        raise ParameterError("threshold chain needs n >= 3")
    slope = Fraction(n, n - 2)
    root = (Fraction(-3, 2) - Fraction(4 - 2 * n, n - 2)) / slope
    return slope > 0 and root == Fraction(n - 2, 2 * n)


def prop1_sum(mesh, f):
    """Sum of canonical-variation energies vs n*int|grad f|^2 - (2n-4)*int f^2.

    f is one function (V,), which gives two floats (lhs, rhs), or a batch
    (V, m) of functions, which gives two length-m arrays. The lhs sums the
    n+1 canonical energies of each function, the diagonals of
    canonical_variation_values; the rhs takes one product with S and one
    with M. The identity holds for every smooth f on a minimal surface, so
    the gap is pure discretization error.
    """
    f = np.asarray(f, dtype=float)

    def form(A):
        return np.einsum("v...,v...->...", f, A @ f)

    n = mesh.n
    d2e = canonical_variation_values(mesh, f.reshape(f.shape[0], -1))[0]
    lhs = np.diagonal(d2e, axis1=1, axis2=2).sum(axis=0)
    rhs = n * form(assemble_stiffness(mesh)) - (2 * n - 4) * form(assemble_mass(mesh))
    if f.ndim == 1:
        return float(lhs[0]), float(rhs)
    return lhs, rhs


def el_soufi_lower_bound_check(mesh):
    """Negative definiteness of the Moebius-span energy Gram matrix.

    Returns (eigenvalues, negative_definite, claim_valid): the ascending
    eigenvalues of the held (n+1)x(n+1) matrix of energy-form values on
    pairs of Moebius fields (moebius_energy_gram), whether all of them are
    negative, and whether the lower bound ind_E >= n+1 may be claimed (the
    surface must not sit in a geodesic S^2).
    """
    evals = np.linalg.eigvalsh(moebius_energy_gram(mesh))
    negative_definite = bool(evals[-1] < 0.0)
    claim_valid = not contained_in_geodesic_s2(mesh)
    return evals, negative_definite, claim_valid


@dataclass
class CertificateReport:
    """Outcome of the certificate pipeline on one mesh."""

    surface: str
    n: int
    mesh_size: float
    lambda1: float
    multiplicity: int
    threshold: float
    hypothesis_met: bool
    i0: int
    a: np.ndarray
    d2e_canonical: np.ndarray        # D^2E(f xi_i) for every i
    normal_mass: np.ndarray          # int |f xi_i^N|^2 for every i
    d2e_value: float                 # D^2E on the projected field
    decomposition_value: float       # three-term reconstruction of d2e_value
    pigeonhole_sum: float            # sum_i [D^2E(f xi_i) - c(lambda) int |f xi_i^N|^2]
    orthogonality_residuals: np.ndarray
    proposition_applicable: bool     # lambda <= 1 and the -3/2 gap condition
    verdict: str                     # negative | nonnegative
    degenerate_gram: bool
    cluster_members: list            # ascending eigenvalues of each G_i

    def to_dict(self):
        """JSON-ready dict in field order, each array as a list of floats."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(map(float, v)) if isinstance(v, np.ndarray) else v
                for name, v in values.items()}


def canonical_variation_values(mesh, F):
    """D^2E(F_a xi_i, F_b xi_i) and int F_a F_b |xi_i^N|^2 over the columns of F (V, m).

    Two arrays (n+1, m, m). S and M share one CSR pattern, so the energies
    are F' S_i F - 2 F' M_i F, with S_i and M_i the matrices S and M on that
    pattern weighted entrywise by xi_i(v) . xi_i(w). The two parts are
    summed apart, as the coordinate form sums them: S - 2M formed entrywise
    rounds alike on every vertex of a regular grid, which shifts f'(S - 2M)f
    by about 100 times the rounding of the separate sums. The normal masses
    weight F_a(v) F_b(v) by the per-vertex density w_v |xi_i^N(v)|^2.
    """
    M = assemble_mass(mesh)
    row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    stiffness = assemble_stiffness(mesh).data
    d2e = np.empty((mesh.n + 1, F.shape[1], F.shape[1]))
    for i, xi in enumerate(moebius_basis(mesh)):
        w = np.einsum("ed,ed->e", np.take(xi, row, axis=0), np.take(xi, M.indices, axis=0))
        S_i, M_i = (sp.csr_matrix((values * w, M.indices, M.indptr), shape=M.shape)
                    for values in (stiffness, M.data))
        d2e[i] = F.T @ (S_i @ F) - 2.0 * (F.T @ (M_i @ F))
    normal = moebius_normal(mesh)
    density = vertex_weights(mesh)[:, None] * np.einsum("ivd,ivd->vi", normal, normal)
    return d2e, np.stack([(F * weight[:, None]).T @ F for weight in density.T])


def eigenspace_witness(mesh, F, lam):
    """The one witness (f, i0) of the eigenspace spanned by F (V, m), M-orthonormal.

    G_i[a, b] = D^2E(P F_a xi_i, P F_b xi_i), P the projection orthogonal to
    the Moebius fields, is formed in (n+1)-space: G_i = C_i - R_i'A_i -
    A_i'R_i + A_i'BA_i with C_i the canonical energies, A_i = G^-1 b_i,
    b_i[j, a] = int F_a xi_i . xi_j, R_i[j, a] = D^2E(xi_j, F_a xi_i), G the
    Moebius Gram and B moebius_energy_gram. A rotation F Q turns G_i into
    Q'G_i Q. i0 is the lowest i whose least eigenvalue is within TIE_REL
    times the largest |eigenvalue| of the least of all, f = F c with c its
    first eigenvector. Returns the CertificateReport fields it fills.
    """
    n, d, m = mesh.n, mesh.n + 1, F.shape[1]
    basis = moebius_basis(mesh)
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    C, N = canonical_variation_values(mesh, F)
    # b[a, i, j] = int F_a xi_i . xi_j and R[a, i, j] = D^2E(F_a xi_i, xi_j)
    b = (F * vertex_weights(mesh)[:, None]).T @ vertex_products(basis, basis)
    load = np.stack([S @ xi - 2.0 * (M @ xi) for xi in basis])
    R = (F.T @ vertex_products(basis, load)).reshape(m, d, d)
    A = moebius_coefficients(mesh, b.reshape(-1, d).T)[0].T.reshape(m, d, d)
    cross = np.einsum("aij,bij->iab", R, A)
    G = (C - cross - cross.transpose(0, 2, 1)
         + np.einsum("aij,jk,bik->iab", A, moebius_energy_gram(mesh), A))
    spectra, vectors = np.linalg.eigh(G)
    least = spectra[:, 0]
    i0 = int(np.argmax(least <= least.min() + TIE_REL * np.max(np.abs(spectra))))
    c = vectors[i0, :, 0]
    f = F @ c
    d2e, normal_mass = (np.einsum("a,iab,b->i", c, X, c) for X in (C, N))
    X_perp, a, residuals, degenerate = project_orthogonal_to_moebius(mesh, f[:, None] * basis[i0])

    # proof decomposition: D^2E(X) = D^2E(f xi_i0) - 2 int |a_j xi_j^N|^2
    #                                + 4 int f xi_i0^N . (a_j xi_j^N)
    normals = moebius_normal(mesh)
    decomposition = (d2e[i0] - 2.0 * (a @ moebius_normal_gram(mesh) @ a) + 4.0 * (
        lumped_gram(mesh, f[None, :, None] * normals[[i0]], normals)[0] @ a))
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
    }


def build_certificate(mesh, k=DEFAULT_CERTIFICATE_K, seed=0):
    """Run the full certificate pipeline on a mesh.

    The report comes from the one witness of the first nonzero eigenspace
    (eigenspace_witness): d2e_value is the least eigenvalue of all G_i, and
    cluster_members holds each G_i's ascending eigenvalues. Where that
    eigenvalue repeats in G_i0, the witness fields belong to the first
    eigenvector of its eigenspace. The hypothesis, the pigeonhole
    coefficient and proposition_applicable read the measured lambda1.
    """
    if contained_in_geodesic_s2(mesh):
        raise UnsupportedSurfaceError(
            "certificate pipeline requires a surface not contained in a geodesic S^2")
    spectrum = solve_smallest_eigenpairs(laplace_pencil(mesh), k=k, seed=seed)
    first = first_nonzero_cluster(spectrum.values)
    if first is None:
        raise SolverError("k too small: no whole nonzero eigenvalue cluster resolved")
    lambda1 = float(np.mean(spectrum.values[first]))
    witness = eigenspace_witness(mesh, spectrum.fields[:, first], lambda1)
    residual_ok = bool(np.max(witness["orthogonality_residuals"]) <= ORTHOGONALITY_TOL)
    verdict = "negative" if (witness["d2e_value"] < 0.0 and residual_ok) else "nonnegative"

    return CertificateReport(
        surface=mesh.name, n=mesh.n, mesh_size=mesh_size(mesh), lambda1=lambda1,
        multiplicity=len(first), threshold=threshold(mesh.n),
        hypothesis_met=bool(lambda1 < threshold(mesh.n)), verdict=verdict, **witness)
