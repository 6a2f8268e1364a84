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
from typing import Optional

import numpy as np

from .errors import ContractError, ParameterError, SolverError, UnsupportedSurfaceError
from .mesh import contained_in_geodesic_s2, mesh_size
from .mobius import (
    moebius_basis,
    moebius_tangential,
    project_orthogonal_to_moebius,
    split_tangent_normal,
)
from .operators import (
    assemble_mass,
    assemble_stiffness,
    dissection_order,
    eigen_clusters,
    integrate,
    solve_smallest_eigenpairs,
)
from .secondvar import covariant_gradient_inner, energy_form_coordinate

ORTHOGONALITY_TOL = 1e-8
LAMBDA_SINGULAR_TOL = 1e-6


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


def prop1_sum(mesh, f):
    """Sum of canonical-variation energies vs n*int|grad f|^2 - (2n-4)*int f^2.

    Returns (lhs, rhs); the identity holds for every smooth f on a minimal
    surface, so the gap is pure discretization error.
    """
    f = np.asarray(f, dtype=float)
    lhs = 0.0
    for xi in moebius_basis(mesh):
        lhs += energy_form_coordinate(mesh, f[:, None] * xi)
    n = mesh.n
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    rhs = float(n * (f @ (S @ f)) - (2 * n - 4) * (f @ (M @ f)))
    return lhs, rhs


def _combination(basis, a):
    return np.einsum("j,jvd->vd", np.asarray(a, dtype=float), basis)


def _pointwise_dot(X, Y):
    return np.einsum("vd,vd->v", X, Y)


def identity_55(mesh, eigenpair, a, i):
    """int f xi_i . (a_j xi_j) vs -2/(4-lambda) int f xi_i^T . (a_j xi_j)^T."""
    lam = eigenpair.lam
    if abs(lam - 4.0) < LAMBDA_SINGULAR_TOL:
        raise ContractError("eigenvalue at the singular denominator lambda = 4")
    basis = moebius_basis(mesh)
    f = eigenpair.field
    combo = _combination(basis, a)
    lhs = integrate(mesh, f * _pointwise_dot(basis[i], combo))
    xi_t = moebius_tangential(mesh)[i]
    combo_t = split_tangent_normal(mesh, combo).tangential
    rhs = -2.0 / (4.0 - lam) * integrate(mesh, f * _pointwise_dot(xi_t, combo_t))
    return lhs, rhs


def identity_normal(mesh, eigenpair, a, i):
    """Normal-part identity; returns (lhs, rhs_tangential, rhs_total).

    lhs = int f xi_i^N . (a_j xi_j)^N, compared against
    -(6-lambda)/(4-lambda) * int f xi_i^T . (a_j xi_j)^T and
    (6-lambda)/2 * int f xi_i . (a_j xi_j).
    """
    lam = eigenpair.lam
    if abs(lam - 4.0) < LAMBDA_SINGULAR_TOL:
        raise ContractError("eigenvalue at the singular denominator lambda = 4")
    basis = moebius_basis(mesh)
    f = eigenpair.field
    xi_t = moebius_tangential(mesh)[i]
    combo = _combination(basis, a)
    combo_split = split_tangent_normal(mesh, combo)
    lhs = integrate(mesh, f * _pointwise_dot(basis[i] - xi_t, combo_split.normal))
    rhs_t = -(6.0 - lam) / (4.0 - lam) * integrate(
        mesh, f * _pointwise_dot(xi_t, combo_split.tangential))
    rhs_total = (6.0 - lam) / 2.0 * integrate(
        mesh, f * _pointwise_dot(basis[i], combo))
    return lhs, rhs_t, rhs_total


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


def el_soufi_lower_bound_check(mesh):
    """Negative definiteness of the Moebius-span energy Gram matrix.

    Returns (matrix, negative_definite, claim_valid): the (n+1)x(n+1) matrix
    of energy-form values on pairs of Moebius fields, whether all its
    eigenvalues are negative, and whether the lower bound ind_E >= n+1 may be
    claimed (the surface must not sit in a geodesic S^2).
    """
    basis = moebius_basis(mesh)
    d = mesh.n + 1
    B = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            B[i, j] = B[j, i] = energy_form_coordinate(mesh, basis[i], basis[j])
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
    d = n + 1
    d2e = np.empty(d)
    normal_mass = np.empty(d)
    basis = moebius_basis(mesh)
    normals = basis - moebius_tangential(mesh)
    for i in range(d):
        Xi = f[:, None] * basis[i]
        d2e[i] = energy_form_coordinate(mesh, Xi)
        fn = f[:, None] * normals[i]
        normal_mass[i] = integrate(mesh, _pointwise_dot(fn, fn))
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
    combo_n = np.einsum("j,jvd->vd", a, normals)
    fxi_n = f[:, None] * normals[i0]
    decomposition = (d2e[i0]
                     - 2.0 * integrate(mesh, _pointwise_dot(combo_n, combo_n))
                     + 4.0 * integrate(mesh, _pointwise_dot(fxi_n, combo_n)))

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


def build_certificate(mesh, k=8, seed=0, synthetic_lambda=None, surface_name=None):
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
        surface=surface_name or mesh.name,
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
