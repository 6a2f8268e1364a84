"""Constructive certificate pipeline and proof-identity checks.

Pipeline: take the first Laplace eigenfunction f, form the canonical
variations f * xi_i, pick the index with the most negative energy ratio,
project orthogonal to the span of all Moebius fields, and report the sign of
the energy second variation on the projection. The eigenvalue threshold for
a guaranteed negative direction is (n-2)/(2n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError, UnsupportedSurfaceError
from .mesh import contained_in_geodesic_s2, mesh_size, per_mesh
from .mobius import (
    moebius_basis,
    moebius_normal,
    moebius_normal_gram,
    project_orthogonal_to_moebius,
)
from .operators import (
    assemble_mass,
    assemble_stiffness,
    dissection_order,
    eigen_clusters,
    lumped_gram,
    solve_smallest_eigenpairs,
)
from .secondvar import energy_form_coordinate, moebius_energy_gram

ORTHOGONALITY_TOL = 1e-8


def threshold(n):
    """Eigenvalue threshold (n-2)/(2n) below which a certificate exists."""
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ParameterError(
            f"ambient dimension n={n} gives a degenerate threshold (need n >= 3)")
    return (n - 2) / (2 * n)


def threshold_chain_check(n, num_samples=10000):
    """Exact rational check of (n*l - 2n + 4)/(n - 2) < -3/2  <=>  l < (n-2)/(2n).

    Samples rational lambdas on a grid straddling the threshold; returns True
    iff the equivalence holds at every sample.
    """
    if n < 3:
        raise ParameterError("threshold chain needs n >= 3")
    thr = Fraction(n - 2, 2 * n)
    for k in range(num_samples):
        lam = Fraction(k, num_samples) * 2 * thr  # spans [0, 2*threshold)
        lhs = (n * lam - 2 * n + 4) / Fraction(n - 2) < Fraction(-3, 2)
        rhs = lam < thr
        if lhs != rhs:
            return False
    return True


@per_mesh
def canonical_variation_matrix(mesh):
    """The matrix P with f' P f = sum_i D^2E(f xi_i), held.

    sum_i D^2E(f xi_i) = sum_vw f_v f_w (S - 2M)_vw sum_i xi_i(v) . xi_i(w),
    so P is S - 2M weighted entrywise by sum_i xi_i(v) . xi_i(w),
    accumulated over the Moebius basis.
    """
    A = (assemble_stiffness(mesh) - 2.0 * assemble_mass(mesh)).tocoo()
    weight = np.zeros(A.nnz)
    for xi in moebius_basis(mesh):
        weight += np.einsum("ed,ed->e", xi[A.row], xi[A.col])
    return sp.csr_matrix((A.data * weight, (A.row, A.col)), shape=A.shape)


def prop1_sum(mesh, f):
    """Sum of canonical-variation energies vs n*int|grad f|^2 - (2n-4)*int f^2.

    f is one function (V,), which gives two floats (lhs, rhs), or a batch
    (V, m) of functions, which gives two length-m arrays from one product
    with each matrix. The identity holds for every smooth f on a minimal
    surface, so the gap is pure discretization error.
    """
    f = np.asarray(f, dtype=float)

    def form(A):
        return np.einsum("v...,v...->...", f, A @ f)

    n = mesh.n
    lhs = form(canonical_variation_matrix(mesh))
    rhs = n * form(assemble_stiffness(mesh)) - (2 * n - 4) * form(assemble_mass(mesh))
    if f.ndim == 1:
        return float(lhs), float(rhs)
    return lhs, rhs


def el_soufi_lower_bound_check(mesh):
    """Negative definiteness of the Moebius-span energy Gram matrix.

    Returns (matrix, negative_definite, claim_valid): the held (n+1)x(n+1)
    matrix of energy-form values on pairs of Moebius fields
    (moebius_energy_gram), whether all its eigenvalues are negative, and
    whether the lower bound ind_E >= n+1 may be claimed (the surface must
    not sit in a geodesic S^2).
    """
    B = moebius_energy_gram(mesh)
    evals = np.linalg.eigvalsh(B)
    negative_definite = bool(evals[-1] < 0.0)
    claim_valid = not contained_in_geodesic_s2(mesh)
    return B, negative_definite, claim_valid


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
    synthetic: bool
    lambda_used: float
    i0: int
    a: np.ndarray
    d2e_canonical: np.ndarray        # D^2E(f xi_i) for every i
    normal_mass: np.ndarray          # int |f xi_i^N|^2 for every i
    d2e_value: float                 # D^2E on the projected field
    decomposition_value: float       # three-term reconstruction of d2e_value
    pigeonhole_sum: float            # sum_i [D^2E(f xi_i) - c(lambda) int |f xi_i^N|^2]
    orthogonality_residuals: np.ndarray
    proposition_applicable: bool     # lambda <= 1 and the -3/2 gap condition
    verdict: str                     # negative | nonnegative | hypothesis-not-met
    degenerate_gram: bool
    cluster_members: list = field(default_factory=list)

    def to_dict(self):
        """JSON-ready dict with a stable field order."""
        return {
            "surface": self.surface,
            "n": self.n,
            "mesh_size": self.mesh_size,
            "lambda1": self.lambda1,
            "multiplicity": self.multiplicity,
            "threshold": self.threshold,
            "hypothesis_met": self.hypothesis_met,
            "synthetic": self.synthetic,
            "lambda_used": self.lambda_used,
            "i0": self.i0,
            "a": list(map(float, self.a)),
            "d2e_canonical": list(map(float, self.d2e_canonical)),
            "normal_mass": list(map(float, self.normal_mass)),
            "d2e_value": self.d2e_value,
            "decomposition_value": self.decomposition_value,
            "pigeonhole_sum": self.pigeonhole_sum,
            "orthogonality_residuals": list(map(float, self.orthogonality_residuals)),
            "proposition_applicable": self.proposition_applicable,
            "verdict": self.verdict,
            "degenerate_gram": self.degenerate_gram,
            "cluster_members": self.cluster_members,
        }


def _certificate_for_eigenfunction(mesh, f, lam):
    """Selection + projection + evaluation for one eigenfunction."""
    n = mesh.n
    basis = moebius_basis(mesh)
    normals = moebius_normal(mesh)
    f_normals = f[None, :, None] * normals
    d2e = energy_form_coordinate(mesh, f[None, :, None] * basis)
    normal_mass = np.diag(lumped_gram(mesh, f_normals))
    mass_floor = 1e-12 * max(float(np.max(normal_mass)), 1.0)
    usable = normal_mass > mass_floor
    if np.any(usable):
        ratios = np.where(usable, d2e / np.maximum(normal_mass, mass_floor), np.inf)
        i0 = int(np.argmin(ratios))
        ratio_defined = True
    else:
        i0 = int(np.argmin(d2e))
        ratio_defined = False
    X0 = f[:, None] * basis[i0]
    X_perp, a, residuals, degenerate = project_orthogonal_to_moebius(mesh, X0)
    d2e_value = energy_form_coordinate(mesh, X_perp)

    # proof decomposition: D^2E(X) = D^2E(f xi_i0) - 2 int |a_j xi_j^N|^2
    #                                + 4 int f xi_i0^N . (a_j xi_j^N)
    decomposition = (d2e[i0]
                     - 2.0 * (a @ moebius_normal_gram(mesh) @ a)
                     + 4.0 * (lumped_gram(mesh, f_normals[[i0]], normals)[0] @ a))

    coeff = (n * lam - 2 * n + 4) / (n - 2)
    pigeonhole = float(np.sum(d2e - coeff * normal_mass))
    prop_ok = bool(lam <= 1.0 and d2e[i0] < -1.5 * normal_mass[i0])
    return {
        "d2e": d2e, "normal_mass": normal_mass, "i0": i0,
        "ratio_defined": ratio_defined, "a": a, "residuals": residuals,
        "degenerate": degenerate, "d2e_value": d2e_value,
        "decomposition": decomposition, "pigeonhole": pigeonhole,
        "prop_ok": prop_ok,
    }


def build_certificate(mesh, k=8, seed=0, synthetic_lambda=None):
    """Run the full certificate pipeline on a mesh.

    All first-eigenvalue cluster members are processed; the reported fields
    come from the lowest-index member. With synthetic_lambda the eigenvalue
    is overridden (plumbing exercise) and the report is tagged synthetic.
    """
    if contained_in_geodesic_s2(mesh):
        raise UnsupportedSurfaceError(
            "certificate pipeline requires a surface not contained in a geodesic S^2")
    pairs = solve_smallest_eigenpairs(assemble_stiffness(mesh), assemble_mass(mesh), k=k,
                                      order=dissection_order(mesh), seed=seed)
    clusters = eigen_clusters(pairs)
    if len(clusters) < 2:
        raise SolverError("k too small: no nonzero eigenvalue cluster resolved")
    first = clusters[1]
    lambda1 = float(np.mean([pairs[j].lam for j in first]))
    lam_used = float(synthetic_lambda) if synthetic_lambda is not None else lambda1
    thr = threshold(mesh.n)

    members = [_certificate_for_eigenfunction(mesh, pairs[j].field, lam_used) for j in first]
    main = members[0]

    residual_ok = bool(np.max(main["residuals"]) <= ORTHOGONALITY_TOL)
    verdict = "negative" if (main["d2e_value"] < 0.0 and residual_ok) else "nonnegative"

    return CertificateReport(
        surface=mesh.name,
        n=mesh.n,
        mesh_size=mesh_size(mesh),
        lambda1=lambda1,
        multiplicity=len(first),
        threshold=thr,
        hypothesis_met=bool(lam_used < thr),
        synthetic=synthetic_lambda is not None,
        lambda_used=lam_used,
        i0=main["i0"],
        a=main["a"],
        d2e_canonical=main["d2e"],
        normal_mass=main["normal_mass"],
        d2e_value=main["d2e_value"],
        decomposition_value=main["decomposition"],
        pigeonhole_sum=main["pigeonhole"],
        orthogonality_residuals=main["residuals"],
        proposition_applicable=main["prop_ok"],
        verdict=verdict,
        degenerate_gram=main["degenerate"],
        cluster_members=[
            {"i0": m["i0"], "d2e_value": float(m["d2e_value"]),
             "max_residual": float(np.max(m["residuals"]))}
            for m in members
        ],
    )
