"""Constructive certificate pipeline and proof-identity checks.

Pipeline: take the first Laplace eigenfunction f, form the canonical
variations f * xi_i, pick the index with the most negative energy ratio,
project orthogonal to the span of all Moebius fields, and report the sign of
the energy second variation on the projection. The eigenvalue threshold for
a guaranteed negative direction is (n-2)/(2n).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError, UnsupportedSurfaceError
from .mesh import contained_in_geodesic_s2, mesh_size
from .mobius import (
    moebius_basis,
    moebius_normal,
    moebius_normal_gram,
    project_orthogonal_to_moebius,
)
from .operators import (
    assemble_mass,
    assemble_stiffness,
    dissection_tree,
    first_nonzero_cluster,
    lumped_gram,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from .secondvar import energy_form_coordinate, moebius_energy_gram

ORTHOGONALITY_TOL = 1e-8
DEFAULT_CERTIFICATE_K = 8   # eigenpairs solved for the first nonzero cluster


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
    n+1 canonical energies of each function (canonical_variation_values),
    the rhs takes one product with S and one with M. The identity holds for
    every smooth f on a minimal surface, so the gap is pure discretization
    error.
    """
    f = np.asarray(f, dtype=float)

    def form(A):
        return np.einsum("v...,v...->...", f, A @ f)

    n = mesh.n
    lhs = canonical_variation_values(mesh, f.reshape(f.shape[0], -1))[0].sum(axis=1)
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
    verdict: str                     # negative | nonnegative
    degenerate_gram: bool
    cluster_members: list = field(default_factory=list)

    def to_dict(self):
        """JSON-ready dict in field order, each array as a list of floats."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(map(float, v)) if isinstance(v, np.ndarray) else v
                for name, v in values.items()}


def canonical_variation_values(mesh, F):
    """D^2E(f xi_i) and int |f xi_i^N|^2 of every column f of F (V, m), each (m, n+1).

    D^2E(f xi_i) = sum_vw f_v f_w (S - 2M)_vw xi_i(v) . xi_i(w). S and M
    share one CSR pattern, so the energies are f' S_i f - 2 f' M_i f, with
    S_i and M_i the matrices S and M on that pattern weighted entrywise
    by xi_i(v) . xi_i(w), one sparse product of each with F. The two parts
    are summed apart, as the coordinate form sums them: S - 2M formed
    entrywise rounds alike on every vertex of a regular grid, which shifts
    f' (S - 2M) f by about 100 times the rounding of the separate sums. The
    normal masses are sums over vertices of f(v)^2 times the per-vertex
    density w_v |xi_i^N(v)|^2, one product for all of F.
    """
    M = assemble_mass(mesh)
    row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    stiffness = assemble_stiffness(mesh).data
    d2e = np.empty((F.shape[1], mesh.n + 1))
    for i, xi in enumerate(moebius_basis(mesh)):
        w = np.einsum("ed,ed->e", np.take(xi, row, axis=0), np.take(xi, M.indices, axis=0))
        S_i, M_i = (sp.csr_matrix((values * w, M.indices, M.indptr), shape=M.shape)
                    for values in (stiffness, M.data))
        d2e[:, i] = (np.einsum("vm,vm->m", F, S_i @ F)
                     - 2.0 * np.einsum("vm,vm->m", F, M_i @ F))
    normal = moebius_normal(mesh)
    density = vertex_weights(mesh)[:, None] * np.einsum("ivd,ivd->vi", normal, normal)
    return d2e, (F * F).T @ density


def certificate_members(mesh, F, lam):
    """Selection + projection + evaluation for each eigenfunction, a column of F (V, m).

    Each member is a dict keyed by the CertificateReport fields it fills.
    """
    n = mesh.n
    basis = moebius_basis(mesh)
    normals = moebius_normal(mesh)
    coeff = (n * lam - 2 * n + 4) / (n - 2)
    members = []
    for f, d2e, normal_mass in zip(F.T, *canonical_variation_values(mesh, F)):
        mass_floor = 1e-12 * max(float(np.max(normal_mass)), 1.0)
        usable = normal_mass > mass_floor
        if np.any(usable):
            ratios = np.where(usable, d2e / np.maximum(normal_mass, mass_floor), np.inf)
            i0 = int(np.argmin(ratios))
        else:
            i0 = int(np.argmin(d2e))
        X0 = f[:, None] * basis[i0]
        X_perp, a, residuals, degenerate = project_orthogonal_to_moebius(mesh, X0)

        # proof decomposition: D^2E(X) = D^2E(f xi_i0) - 2 int |a_j xi_j^N|^2
        #                                + 4 int f xi_i0^N . (a_j xi_j^N)
        decomposition = (d2e[i0]
                         - 2.0 * (a @ moebius_normal_gram(mesh) @ a)
                         + 4.0 * (lumped_gram(mesh, f[None, :, None] * normals[[i0]],
                                              normals)[0] @ a))
        members.append({
            "i0": i0, "a": a, "d2e_canonical": d2e, "normal_mass": normal_mass,
            "d2e_value": energy_form_coordinate(mesh, X_perp),
            "decomposition_value": decomposition,
            "pigeonhole_sum": float(np.sum(d2e - coeff * normal_mass)),
            "orthogonality_residuals": residuals,
            "proposition_applicable": bool(lam <= 1.0 and d2e[i0] < -1.5 * normal_mass[i0]),
            "degenerate_gram": degenerate,
        })
    return members


def build_certificate(mesh, k=DEFAULT_CERTIFICATE_K, seed=0, synthetic_lambda=None):
    """Run the full certificate pipeline on a mesh.

    All first-eigenvalue cluster members are processed; the reported fields
    come from the lowest-index member. With synthetic_lambda the eigenvalue
    is overridden (plumbing exercise) and the report is tagged synthetic; a
    synthetic_lambda that is not finite raises ParameterError.
    """
    if synthetic_lambda is not None and not np.isfinite(synthetic_lambda):
        raise ParameterError(f"synthetic_lambda={synthetic_lambda:g} must be finite")
    if contained_in_geodesic_s2(mesh):
        raise UnsupportedSurfaceError(
            "certificate pipeline requires a surface not contained in a geodesic S^2")
    spectrum = solve_smallest_eigenpairs(assemble_stiffness(mesh), assemble_mass(mesh), k=k,
                                         tree=dissection_tree(mesh), seed=seed)
    first = first_nonzero_cluster(spectrum.values)
    if first is None:
        raise SolverError("k too small: no whole nonzero eigenvalue cluster resolved")
    lambda1 = float(np.mean(spectrum.values[first]))
    lam_used = float(synthetic_lambda) if synthetic_lambda is not None else lambda1
    thr = threshold(mesh.n)

    # C order: the einsum sums of certificate_members follow the memory layout
    members = certificate_members(
        mesh, np.ascontiguousarray(spectrum.fields[:, first]), lam_used)
    main = members[0]
    residual_ok = bool(np.max(main["orthogonality_residuals"]) <= ORTHOGONALITY_TOL)
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
        verdict=verdict,
        cluster_members=[
            {"i0": m["i0"], "d2e_value": float(m["d2e_value"]),
             "max_residual": float(np.max(m["orthogonality_residuals"]))}
            for m in members
        ],
        **main,
    )
