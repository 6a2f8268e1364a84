"""Aggregate verification battery: every integral identity on one mesh.

Each check compares two independently computed quantities and records the
worst error over its instances together with the tolerance it was held to.
Identities with the (4 - lambda) denominator are checked in cross-multiplied
form so that eigenvalues near 4 stay well conditioned. The eigenpair
identities are bilinear in the random Moebius combination they are drawn
against, so they are contracted into (n+1) x (n+1) matrices per eigenpair,
all eigenpairs in one product with per-vertex densities, and each draw is a
dot product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import minimality_residual
from .certificates import prop1_sum
from .errors import ParameterError
from .mesh import mesh_size
from .mobius import (
    moebius_basis,
    moebius_gram,
    moebius_normal,
    moebius_normal_gram,
    moebius_tangential,
    pointwise_identity_report,
    sum_normal_sq,
)
from .operators import (
    KERNEL_TOL,
    assemble_mass,
    assemble_stiffness,
    dissection_tree,
    integrate,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from .secondvar import (
    coordinate_form_parts,
    energy_form_covariant,
    moebius_covariant_load,
    moebius_energy_gram,
)
from .sampling import random_bandlimited_field, random_polynomial_scalar, random_unit_direction

MINIMALITY_GATE = 0.05
ALGEBRAIC_TOL = 1e-12
AGGREGATE_ALGEBRAIC_TOL = 1e-9
EIGENVALUE_CAP = 6.1
NUM_DIRECTIONS = 20       # random Moebius directions beside the axes (d2e-moebius-fields)
NUM_FORM_FIELDS = 10      # random fields of form-equivalence
NUM_RANDOM_F = 10         # random polynomials of prop1-random
NUM_COEFFS = 20           # random combinations a_j xi_j per eigenpair (proof identities)
DEFAULT_VERIFY_TOL = 0.02  # discretization tolerance of the oracle checks
DEFAULT_VERIFY_K = 12     # eigenpairs; 12 spans the lambda = 4 cluster of the Clifford torus


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

    def to_dict(self):
        return {
            "surface": self.surface,
            "n": self.n,
            "mesh_size": self.mesh_size,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _check(name, error, tolerance, provenance, detail=""):
    return CheckResult(name=name, error=float(error), tolerance=float(tolerance),
                       passed=bool(error <= tolerance), provenance=provenance,
                       detail=detail)


def identity_matrices(mesh, f):
    """Integrals of f xi_i against xi_j, as four (n+1) x (n+1) matrices.

    L[i, j] = int f xi_i . xi_j, T[i, j] = int f xi_i^T . xi_j^T,
    N[i, j] = int f xi_i^N . xi_j^N and D[i, j] = int <D(f xi_i), D xi_j>.
    Each is linear in xi_j, so row i dotted with a gives the integral
    against the combination sum_j a_j xi_j. Each is also linear in f, a sum
    over vertices of f(v) times a per-vertex density: w_v xi_i . xi_j,
    w_v xi_i^T . xi_j^T, w_v xi_i^N . xi_j^N and xi_i(v) . (C xi_j)(v) with
    C xi_j the held covariant load (moebius_covariant_load).

    One f (V,) gives an array (4, n+1, n+1) of L, T, N, D; a batch (V, m)
    gives (m, 4, n+1, n+1), from one product per density.
    """
    f = np.asarray(f, dtype=float)
    fields = f.reshape(mesh.num_vertices, -1)
    d = mesh.n + 1
    basis = moebius_basis(mesh)
    tangential, normal = moebius_tangential(mesh), moebius_normal(mesh)
    weighted = fields * vertex_weights(mesh)[:, None]
    out = np.empty((fields.shape[1], 4, d, d))
    for slot, (F, X, Y) in enumerate(((weighted, basis, basis),
                                      (weighted, tangential, tangential),
                                      (weighted, normal, normal),
                                      (fields, basis, moebius_covariant_load(mesh)))):
        density = np.einsum("ivc,jvc->vij", X, Y).reshape(-1, d * d)
        out[:, slot] = (F.T @ density).reshape(-1, d, d)
    return out[0] if f.ndim == 1 else out


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


def _prop1_gaps(mesh, fields):
    """Relative gaps of prop1_sum for the functions, the columns of fields (V, m), (m,).

    Each gap is relative to |lhs| + |rhs| + the area.
    """
    lhs, rhs = prop1_sum(mesh, fields)
    return np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + integrate(mesh, 1.0))


def run_verification(mesh, tol=DEFAULT_VERIFY_TOL, seed=0, k=DEFAULT_VERIFY_K):
    """Run every identity check; the minimality gate short-circuits failures.

    A tol that is not positive and finite raises ParameterError.
    """
    if not 0.0 < tol < np.inf:
        raise ParameterError(f"tol={tol:g} must be positive and finite")
    report = VerificationReport(
        surface=mesh.name, n=mesh.n,
        mesh_size=mesh_size(mesh), tolerance=tol,
    )
    h = report.mesh_size
    n = mesh.n
    rng = np.random.default_rng(seed)

    report.checks.append(_check(
        "minimality-gate", minimality_residual(mesh), MINIMALITY_GATE, "oracle"))
    if not report.checks[-1].passed:
        return report

    area = integrate(mesh, 1.0)

    pw = pointwise_identity_report(mesh)
    report.checks.append(_check(
        "moebius-norm-identity", pw["norm_sq"], ALGEBRAIC_TOL, "algebraic"))
    report.checks.append(_check(
        "moebius-sum-identity", pw["sum_sq"], AGGREGATE_ALGEBRAIC_TOL, "algebraic"))
    report.checks.append(_check(
        "tangential-norm-identity", pw["tangential_sq"], tol, "oracle"))
    report.checks.append(_check(
        "covariant-derivative", pw["covariant"], 0.05 * h, "oracle"))

    G = moebius_gram(mesh)
    report.checks.append(_check(
        "gram-trace", abs(np.trace(G) - n * area) / (n * area),
        AGGREGATE_ALGEBRAIC_TOL, "algebraic"))

    if n >= 3:
        s = sum_normal_sq(mesh)
        report.checks.append(_check(
            "sum-normal-sq", float(np.max(np.abs(s - (n - 2)))) / (n - 2),
            tol, "theorem"))

    # D^2E(xi_v) = -2 int |xi_v^N|^2 for the axes and random directions; the
    # three integrals are quadratic forms in v, read from the held Gram matrices
    directions = np.vstack([np.eye(n + 1)]
                           + [random_unit_direction(rng, n + 1) for _ in range(NUM_DIRECTIONS)])
    d2e, nm, nrm = (np.einsum("ti,ij,tj->t", directions, X, directions)
                    for X in (moebius_energy_gram(mesh), moebius_normal_gram(mesh), G))
    worst = float(np.max(np.abs(d2e + 2.0 * nm) / np.maximum(nm, 0.01 * nrm)))
    report.checks.append(_check("d2e-moebius-fields", worst, tol, "theorem"))

    report.checks.append(_check(
        "form-equivalence", form_equivalence_error(mesh, rng, NUM_FORM_FIELDS), tol, "theorem"))

    # canonical-variation sum identity for random functions and eigenfunctions,
    # one prop1_sum over both
    randoms = np.empty((mesh.num_vertices, NUM_RANDOM_F))
    for j in range(NUM_RANDOM_F):
        randoms[:, j] = random_polynomial_scalar(mesh, rng)
    values, fields, _ = solve_smallest_eigenpairs(assemble_stiffness(mesh), assemble_mass(mesh),
                                                  k=k, tree=dissection_tree(mesh), seed=seed)
    low = values <= EIGENVALUE_CAP
    gaps = _prop1_gaps(mesh, np.hstack([randoms, fields[:, low]]))
    for name, part in (("prop1-random", gaps[:NUM_RANDOM_F]),
                       ("prop1-eigen", gaps[NUM_RANDOM_F:])):
        report.checks.append(_check(name, np.max(part, initial=0.0), tol, "theorem"))

    # proof identities on every nonconstant eigenpair with lambda <= 6, each
    # against NUM_COEFFS random combinations a_j xi_j (row t uses i = t mod n+1)
    worst55 = worst_n = worst_mixed = 0.0
    nonconstant = low & (values > KERNEL_TOL)
    matrices = identity_matrices(mesh, fields[:, nonconstant])
    rows = np.arange(NUM_COEFFS) % (n + 1)
    for lam, pair_matrices in zip(values[nonconstant], matrices):
        a = rng.standard_normal((NUM_COEFFS, n + 1))
        L, T, N, D = (np.einsum("tj,tj->t", X[rows], a) for X in pair_matrices)
        # ||xi_i||_{L2} ||a_j xi_j||_{L2}, from the lumped Gram matrix
        scale = (np.sqrt(np.maximum(np.diag(G)[rows], 0.0))
                 * np.sqrt(np.maximum(np.einsum("tj,jk,tk->t", a, G, a), 0.0)))
        worst55 = np.max(np.abs((4.0 - lam) * L + 2.0 * T) / scale, initial=worst55)
        worst_n = np.max(np.abs((4.0 - lam) * N + (6.0 - lam) * T) / scale, initial=worst_n)
        worst_n = np.max(np.abs(N - (6.0 - lam) / 2.0 * L) / scale, initial=worst_n)
        worst_mixed = np.max(np.abs(-2.0 * D + 2.0 * T) / scale, initial=worst_mixed)
    # the size of what was compared, so that a pass on vanishing integrals shows
    largest = np.max(np.abs(matrices), axis=(0, 2, 3), initial=0.0)
    largest /= np.sqrt(np.max(np.diag(G)) * np.trace(G))
    detail = (f"eigenpairs={len(matrices)} max|entry|/sqrt(max G_ii tr G): "
              + " ".join(f"{name}={value:.3e}" for name, value in zip("LTND", largest)))
    report.checks.append(_check("identity-55", worst55, tol, "theorem", detail))
    report.checks.append(_check("identity-normal", worst_n, tol, "theorem", detail))
    report.checks.append(_check("mixed-gradient", worst_mixed, tol, "theorem", detail))

    return report
