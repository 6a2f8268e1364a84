"""Aggregate verification battery: every integral identity on one mesh.

Each check compares two independently computed quantities and records the
worst error over its instances together with the tolerance it was held to.
The Moebius product identities hold for every function, so they take no
eigenvalue: each is an (n+1) x (n+1) matrix of integrals against
xi_i . xi_j, checked entrywise on the random polynomials and eigenfunctions
of prop1, all functions in one product with per-vertex densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .catalog import minimality_residual
from .certificates import prop1_sum
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
    integrate,
    laplace_pencil,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from .secondvar import (
    coordinate_form_parts,
    energy_form_covariant,
    moebius_covariant_load,
    moebius_energy_gram,
)
from .sampling import random_bandlimited_field, random_polynomial_scalar

MINIMALITY_GATE = 0.05
ALGEBRAIC_TOL = 1e-12
AGGREGATE_ALGEBRAIC_TOL = 1e-9
EIGENVALUE_CAP = 6.1
NUM_FORM_FIELDS = 10      # random fields of form-equivalence
NUM_RANDOM_F = 10         # random polynomials of prop1
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


def form_equivalence_error(mesh, rng, num_fields):
    """Worst relative gap between the coordinate and covariant energy forms.

    Taken over num_fields random band-limited fields drawn from rng, each gap
    relative to the field's H^1 norm squared, X'SX + X'MX, whose two parts
    are those of the coordinate form.
    """
    worst = 0.0
    for _ in range(num_fields):
        X = random_bandlimited_field(mesh, rng)
        stiffness, mass = coordinate_form_parts(mesh, X)
        cov = energy_form_covariant(mesh, X)
        worst = max(worst, abs(stiffness - 2.0 * mass - cov) / (stiffness + mass))
    return worst


def run_verification(mesh, tol=DEFAULT_VERIFY_TOL, seed=0):
    """Run every identity check; the minimality gate short-circuits failures.

    The eigenfunctions checked are all those below EIGENVALUE_CAP, as many
    as an inertia count at the cap finds. A tol that is not positive and
    finite raises ParameterError.
    """
    if not 0.0 < tol < np.inf:
        raise ParameterError(f"tol={tol:g} must be positive and finite")
    report = VerificationReport(
        surface=mesh.name, n=mesh.n,
        mesh_size=mesh_size(mesh), tolerance=tol,
    )
    n = mesh.n
    rng = np.random.default_rng(seed)

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
    worst = np.max(np.abs(scipy.linalg.eigvalsh(moebius_energy_gram(mesh) + 2.0 * N,
                                                N + 0.01 * moebius_gram(mesh))))
    report.check("d2e-moebius-fields", worst, tol, "theorem")
    report.check("form-equivalence", form_equivalence_error(mesh, rng, NUM_FORM_FIELDS), tol,
                 "theorem")

    # canonical-variation sum identity for random functions and eigenfunctions,
    # one prop1_sum over both, each gap relative to n int|grad f|^2 +
    # (2n - 4) int f^2 + the area, whose terms cannot cancel as the rhs's can
    randoms = np.stack([random_polynomial_scalar(mesh, rng) for _ in range(NUM_RANDOM_F)], axis=1)
    pencil = laplace_pencil(mesh)
    values, fields, _ = solve_smallest_eigenpairs(
        pencil, k=count_eigenvalues_below(pencil, EIGENVALUE_CAP), seed=seed)
    if values[-1] >= EIGENVALUE_CAP:
        raise SolverError(f"{values.size} eigenvalues counted below {EIGENVALUE_CAP:g}, "
                          f"the largest solved is {values[-1]:g}")
    functions = np.hstack([randoms, fields])
    lhs, rhs = prop1_sum(mesh, functions)
    stiffness, mass = (np.einsum("vm,vm->m", functions, A @ functions)
                       for A in (assemble_stiffness(mesh), assemble_mass(mesh)))
    gaps = np.abs(lhs - rhs) / (n * stiffness + (2 * n - 4) * mass + integrate(mesh, 1.0))
    report.check("prop1", np.max(gaps), tol, "theorem", f"functions={functions.shape[1]}")

    # the Moebius product identities entrywise on the same functions; the
    # size of what was compared shows in the detail, so that a pass on
    # vanishing integrals shows
    weak, mixed, matrices = product_identity_residuals(mesh, functions)
    largest = np.max(np.abs(matrices), axis=(0, 2, 3))
    detail = (f"functions={functions.shape[1]} max|entry|/(max|f| sqrt(G_ii G_jj)): "
              + " ".join(f"{name}={value:.3e}" for name, value in zip("KLTD", largest)))
    for name, residual in (("product-weak-form", weak), ("mixed-gradient", mixed)):
        report.check(name, np.max(np.abs(residual)), tol, "theorem", detail)

    return report
