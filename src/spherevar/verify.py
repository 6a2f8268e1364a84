"""Aggregate verification battery: every integral identity on one mesh.

Each check compares two independently computed quantities and records the
worst error over its instances together with the tolerance it was held to.
The identities over functions are checked exactly over one fixed space F:
the ambient polynomials of degree <= 2 and the Laplace eigenfunctions below
EIGENVALUE_CAP, M-orthonormalized (function_space). Proposition 1 and the
agreement of the coordinate and covariant forms of D^2E are quadratic in
f, so each is the largest |eigenvalue| of a small pencil over F, the worst
relative gap over every function of F; the form agreement is checked on
the fields f xi_i, one Moebius field at a time, not on the cross terms
D^2E(f xi_i, g xi_j), i != j. The Moebius product identities are linear in
f: each is an (n+1) x (n+1) matrix of integrals against xi_i . xi_j,
checked entrywise on the columns of F, all in one product with per-vertex
densities. Nothing is drawn at random; the seed only starts the Lanczos
runs. The two pencils read the span of F alone; the product checks read
its columns, which, where F holds eigenfunctions beyond the polynomials,
follow the basis Lanczos returns in each eigenspace, so those two may
move with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .catalog import minimality_residual
from .certificates import canonical_variation_values, lumped_density_grams, prop1_sides
from .errors import ParameterError, SolverError
from .mesh import mesh_size
from .mobius import (
    moebius_basis,
    moebius_gram,
    moebius_normal_gram,
    moebius_tangential,
    pointwise_identity_report,
    sum_normal_sq,
    vertex_products,
)
from .operators import (
    assemble_mass,
    assemble_stiffness,
    count_eigenvalues_below,
    laplace_pencil,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from .secondvar import moebius_covariant_load, moebius_covariant_matrices, moebius_energy_gram

MINIMALITY_GATE = 0.05
ALGEBRAIC_TOL = 1e-12
AGGREGATE_ALGEBRAIC_TOL = 1e-9
EIGENVALUE_CAP = 6.1
# function_space drops directions whose M-norm^2 is below this share of the
# largest candidate's: dependent ones measure at most 1.3e-5 (the eigenfunctions
# of the coarsest sphere), independent ones at least 2e-2
SPACE_DROP_REL = 1e-3
DEFAULT_VERIFY_TOL = 0.02  # discretization tolerance of the oracle checks


@dataclass
class CheckResult:
    name: str
    error: float
    tolerance: float
    passed: bool
    provenance: str
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "error": self.error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "provenance": self.provenance,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    surface: str
    n: int
    mesh_size: float
    tolerance: float
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    def check(self, name, error, tolerance, provenance, detail=""):
        """Record one check, passed when error <= tolerance, and return it."""
        result = CheckResult(name=name, error=float(error), tolerance=float(tolerance),
                             passed=bool(error <= tolerance), provenance=provenance,
                             detail=detail)
        self.checks.append(result)
        return result

    def to_dict(self):
        return {
            "surface": self.surface,
            "n": self.n,
            "mesh_size": self.mesh_size,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def identity_matrices(mesh, f):
    """Integrals of f against products of Moebius fields, four (n+1) x (n+1) matrices.

    K[i, j] = int grad f . grad(xi_i . xi_j), L[i, j] = int f xi_i . xi_j,
    T[i, j] = int f xi_i^T . xi_j^T and D[i, j] = int <D(f xi_i), D xi_j>.
    K is f'S g with the held S and g_ij = xi_i . xi_j at the vertices; L, T
    and D are sums over vertices of f(v) times a per-vertex density,
    w_v xi_i . xi_j, w_v xi_i^T . xi_j^T and xi_i(v) . (C xi_j)(v) with
    C xi_j the held covariant load (moebius_covariant_load).

    One f (V,) gives an array (4, n+1, n+1) of K, L, T, D; a batch (V, m)
    gives (m, 4, n+1, n+1), from one product per density.
    """
    f = np.asarray(f, dtype=float)
    fields = f.reshape(mesh.num_vertices, -1)
    d = mesh.n + 1
    basis, tangential = moebius_basis(mesh), moebius_tangential(mesh)
    products = vertex_products(basis, basis)
    covariant = vertex_products(basis, moebius_covariant_load(mesh))
    weighted = fields * vertex_weights(mesh)[:, None]
    out = np.empty((fields.shape[1], 4, d, d))
    for slot, (F, A) in enumerate(((fields, assemble_stiffness(mesh) @ products),
                                   (weighted, products),
                                   (weighted, vertex_products(tangential, tangential)),
                                   (fields, covariant))):
        out[:, slot] = (F.T @ A).reshape(-1, d, d)
    return out[0] if f.ndim == 1 else out


def product_identity_residuals(mesh, f):
    """Entrywise residuals of the two Moebius product identities, relative to their scale.

    From Delta(x_i x_j) = -4 x_i x_j + 2 grad x_i . grad x_j on a minimal
    surface in S^n, for every function f:
      weak form  W_ij = K_ij - 4 L_ij + 4 delta_ij int f - 2 T_ij = 0,
      mixed      D_ij - T_ij = 0,
    with K, L, T, D of identity_matrices. One f (V,) or a batch (V, m) gives
    (W, mixed, matrices), each divided entrywise by max|f| sqrt(G_ii G_jj)
    with G the Moebius Gram matrix: W and mixed (m, n+1, n+1), the matrices
    (m, 4, n+1, n+1).
    """
    fields = np.asarray(f, dtype=float).reshape(mesh.num_vertices, -1)
    K, L, T, D = np.moveaxis(identity_matrices(mesh, fields), 1, 0)
    integral = vertex_weights(mesh) @ fields
    W = K - 4.0 * L + 4.0 * integral[:, None, None] * np.eye(mesh.n + 1) - 2.0 * T
    norms = np.sqrt(np.maximum(np.diag(moebius_gram(mesh)), 0.0))
    scale = np.max(np.abs(fields), axis=0)[:, None, None] * np.outer(norms, norms)
    return W / scale, (D - T) / scale, np.stack([K, L, T, D], axis=1) / scale[:, None]


def _m_orthonormal(M, P, reference):
    """The M-orthonormal directions of the columns of P (V, k): P U L^-1/2 over
    the eigenvalues L of P'MP above SPACE_DROP_REL times the largest M-norm^2
    of a column of reference. The directions below are dropped as dependent."""
    values, U = np.linalg.eigh(P.T @ (M @ P))
    kept = values > SPACE_DROP_REL * np.max(np.einsum("vk,vk->k", reference, M @ reference))
    return P @ (U[:, kept] / np.sqrt(values[kept]))


def function_space(mesh, eigenfunctions):
    """The fixed function space F of the battery, (V, m) M-orthonormal columns.

    First the polynomials: 1, the ambient coordinates x_i and their products
    x_i x_j (i <= j), M-orthonormalized against the largest of them, which
    drops their exact dependencies (x . x = 1, a coordinate that vanishes).
    Then the columns of eigenfunctions with the polynomial directions
    removed (twice, so that the two blocks are M-orthogonal to rounding),
    M-orthonormalized against the largest eigenfunction, which drops an
    eigenfunction that is a polynomial up to discretization error: on the
    sphere the discrete eigenfunctions below the cap differ from
    polynomials by O(h^2).
    """
    M = assemble_mass(mesh)
    x = mesh.vertices
    upper = np.triu_indices(mesh.n + 1)
    polynomials = np.hstack([np.ones((mesh.num_vertices, 1)), x,
                             x[:, upper[0]] * x[:, upper[1]]])
    Q = _m_orthonormal(M, polynomials, polynomials)
    rest = eigenfunctions - Q @ (Q.T @ (M @ eigenfunctions))
    rest -= Q @ (Q.T @ (M @ rest))
    return np.hstack([Q, _m_orthonormal(M, rest, eigenfunctions)])


def largest_pencil_eigenvalue(A, B):
    """The largest |eigenvalue| of the symmetric-definite pencil (A, B), the
    worst |c'Ac| / c'Bc over every direction c."""
    return float(np.max(np.abs(scipy.linalg.eigvalsh(A, B))))


def run_verification(mesh, tol=DEFAULT_VERIFY_TOL, seed=0):
    """Run every identity check; the minimality gate short-circuits failures.

    The eigenfunctions in the function space are all those below
    EIGENVALUE_CAP, as many as an inertia count at the cap finds; seed
    starts their Lanczos run and nothing else. A tol that is not positive
    and finite raises ParameterError.
    """
    if not 0.0 < tol < np.inf:
        raise ParameterError(f"tol={tol:g} must be positive and finite")
    report = VerificationReport(
        surface=mesh.name, n=mesh.n,
        mesh_size=mesh_size(mesh), tolerance=tol,
    )
    n = mesh.n

    if not report.check("minimality-gate", minimality_residual(mesh), MINIMALITY_GATE,
                        "oracle").passed:
        return report

    pw = pointwise_identity_report(mesh)
    report.check("moebius-norm-identity", pw["norm_sq"], ALGEBRAIC_TOL, "algebraic")
    report.check("tangential-norm-identity", pw["tangential_sq"], tol, "oracle")
    report.check("covariant-derivative", pw["covariant"], 0.05 * report.mesh_size, "oracle")

    if n >= 3:
        # tr P_N of the rank n - 2 normal bundle: exact on any surface with orthonormal frames
        s = sum_normal_sq(mesh)
        report.check("sum-normal-sq", float(np.max(np.abs(s - (n - 2)))) / (n - 2),
                     AGGREGATE_ALGEBRAIC_TOL, "algebraic")

    # D^2E(xi_v) = -2 int |xi_v^N|^2 for every direction v: with the held Gram
    # matrices B, N, G the worst of |v'(B + 2N)v| / v'(N + 0.01 G)v is the
    # largest |eigenvalue| of that pencil; N + 0.01 G is definite since G is
    N = moebius_normal_gram(mesh)
    report.check("d2e-moebius-fields",
                 largest_pencil_eigenvalue(moebius_energy_gram(mesh) + 2.0 * N,
                                           N + 0.01 * moebius_gram(mesh)), tol, "theorem")

    pencil = laplace_pencil(mesh)
    values, eigenfunctions, _ = solve_smallest_eigenpairs(
        pencil, k=count_eigenvalues_below(pencil, EIGENVALUE_CAP), seed=seed)
    if values[-1] >= EIGENVALUE_CAP:
        raise SolverError(f"{values.size} eigenvalues counted below {EIGENVALUE_CAP:g}, "
                          f"the largest solved is {values[-1]:g}")
    F = function_space(mesh, eigenfunctions)
    m = F.shape[1]

    # coordinate against covariant D^2E on the fields f xi_i, f in F, for each
    # i: the covariant side int |D X|^2 - 2|X^N|^2 - |X^T|^2 from the
    # covariant matrix K_i, each gap relative to the H^1 norm of the field,
    # the coordinate form's parts
    stiffness, mass, normal = canonical_variation_values(mesh, F)
    tangential = lumped_density_grams(mesh, F, moebius_tangential(mesh))
    worst = max(largest_pencil_eigenvalue(
        stiffness[i] - 2.0 * mass[i] - (F.T @ (K @ F) - 2.0 * normal[i] - tangential[i]),
        stiffness[i] + mass[i]) for i, K in enumerate(moebius_covariant_matrices(mesh)))
    report.check("form-equivalence", worst, tol, "theorem", f"functions={m}")

    # the canonical-variation sum identity over F, relative to n int|grad f|^2
    # + (2n - 4) int f^2 + int f^2, whose terms cannot cancel as the rhs's can
    S_F, M_F = (F.T @ (A @ F) for A in (assemble_stiffness(mesh), assemble_mass(mesh)))
    lhs, rhs = prop1_sides(n, stiffness, mass, S_F, M_F)
    report.check("prop1", largest_pencil_eigenvalue(lhs - rhs, n * S_F + (2 * n - 3) * M_F),
                 tol, "theorem", f"functions={m}")

    # the Moebius product identities entrywise on the columns of F; the
    # size of what was compared shows in the detail, so that a pass on
    # vanishing integrals shows
    weak, mixed, matrices = product_identity_residuals(mesh, F)
    largest = np.max(np.abs(matrices), axis=(0, 2, 3))
    detail = (f"functions={m} max|entry|/(max|f| sqrt(G_ii G_jj)): "
              + " ".join(f"{name}={value:.3e}" for name, value in zip("KLTD", largest)))
    for name, residual in (("product-weak-form", weak), ("mixed-gradient", mixed)):
        report.check(name, np.max(np.abs(residual)), tol, "theorem", detail)

    return report
