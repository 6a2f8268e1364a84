"""Aggregate verification battery: every integral identity on one mesh.

Each check compares two independently computed quantities and records the
worst error over its instances together with the tolerance it was held to.
Identities with the (4 - lambda) denominator are checked in cross-multiplied
form so that eigenvalues near 4 stay well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import minimality_residual
from .mesh import mesh_size, surface_tangent_frames
from .mobius import (
    field_norm,
    moebius_basis,
    moebius_field,
    moebius_gram,
    pointwise_identity_report,
    split_tangent_normal,
    sum_normal_sq,
)
from .operators import dissection_order, integrate, solve_smallest_eigenpairs, vertex_weights
from .secondvar import (
    covariant_gradient_inner,
    energy_form_coordinate,
    energy_form_covariant,
    form_operators,
)
from .sampling import random_bandlimited_field, random_polynomial_scalar, random_unit_direction

MINIMALITY_GATE = 0.05
ALGEBRAIC_TOL = 1e-12
AGGREGATE_ALGEBRAIC_TOL = 1e-9
EIGENVALUE_CAP = 6.1


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


def identity_55_residual(mesh, eigenpair, a, i, weights, basis, frames):
    """Cross-multiplied eigenfunction identity: (4-lambda) L = -2 T.

    Returns the three weighted integrals (full, tangential, normal inner
    products against f) plus a norm-product scale for relative errors.
    """
    f = eigenpair.field
    lam = eigenpair.lam
    xi = basis[i]
    combo = np.einsum("j,jvd->vd", np.asarray(a, dtype=float), basis)
    xs = split_tangent_normal(mesh, xi, frames=frames)
    cs = split_tangent_normal(mesh, combo, frames=frames)
    L = integrate(mesh, f * np.einsum("vd,vd->v", xi, combo))
    T = integrate(mesh, f * np.einsum("vd,vd->v", xs.tangential, cs.tangential))
    N = integrate(mesh, f * np.einsum("vd,vd->v", xs.normal, cs.normal))
    scale = field_norm(weights, xi) * field_norm(weights, combo)
    return L, T, N, scale


def run_verification(mesh, tol=0.02, seed=0, k=12, num_fields=10, num_random_f=10,
                     num_coeffs=20, num_directions=20, surface_name=None):
    """Run every identity check; the minimality gate short-circuits failures."""
    report = VerificationReport(
        surface=surface_name or mesh.name, n=mesh.n,
        mesh_size=mesh_size(mesh), tolerance=tol,
    )
    h = report.mesh_size
    n = mesh.n
    rng = np.random.default_rng(seed)

    res = minimality_residual(mesh)
    report.checks.append(_check(
        "minimality-gate", res.laplace, MINIMALITY_GATE, "oracle",
        detail=f"gradsq_max={res.gradsq_max:.3e}"))
    if not report.checks[-1].passed:
        return report

    ops = form_operators(mesh)
    M = ops.M
    weights = vertex_weights(mesh)
    basis = moebius_basis(mesh)
    frames = surface_tangent_frames(mesh)
    area = integrate(mesh, 1.0)

    pw = pointwise_identity_report(mesh, frames=frames)
    coords = [pw[i] for i in range(n + 1)]
    report.checks.append(_check(
        "moebius-norm-identity", max(c["norm_sq"] for c in coords),
        ALGEBRAIC_TOL, "algebraic"))
    report.checks.append(_check(
        "moebius-sum-identity", pw["sum_sq"], AGGREGATE_ALGEBRAIC_TOL, "algebraic"))
    report.checks.append(_check(
        "tangential-norm-identity", max(c["tangential_sq"] for c in coords),
        tol, "oracle"))
    report.checks.append(_check(
        "covariant-derivative", max(c["covariant"] for c in coords),
        0.05 * h, "oracle"))

    G = moebius_gram(mesh, weights=weights)
    report.checks.append(_check(
        "gram-trace", abs(np.trace(G) - n * area) / (n * area),
        AGGREGATE_ALGEBRAIC_TOL, "algebraic"))

    if n >= 3:
        s = sum_normal_sq(mesh, frames=frames)
        report.checks.append(_check(
            "sum-normal-sq", float(np.max(np.abs(s - (n - 2)))) / (n - 2),
            tol, "theorem"))

    # D^2E(xi_v) = -2 int |xi_v^N|^2 for the axes and random directions
    worst = 0.0
    directions = [np.eye(n + 1)[i] for i in range(n + 1)]
    directions += [random_unit_direction(rng, n + 1) for _ in range(num_directions)]
    for v in directions:
        xi = moebius_field(mesh, v)
        split = split_tangent_normal(mesh, xi, frames=frames)
        nm = integrate(mesh, np.einsum("vd,vd->v", split.normal, split.normal))
        d2e = energy_form_coordinate(mesh, xi, ops=ops)
        nrm = integrate(mesh, np.einsum("vd,vd->v", xi, xi))
        worst = max(worst, abs(d2e + 2.0 * nm) / max(nm, 0.01 * nrm))
    report.checks.append(_check("d2e-moebius-fields", worst, tol, "theorem"))

    # coordinate vs covariant energy form on random band-limited fields
    worst = 0.0
    for _ in range(num_fields):
        X = random_bandlimited_field(mesh, rng)
        coord = energy_form_coordinate(mesh, X, ops=ops)
        cov = energy_form_covariant(mesh, X, frames=frames)
        sobolev = float(np.einsum("vd,vd->", X, ops.S @ X)
                        + np.einsum("vd,vd->", X, ops.M @ X))
        worst = max(worst, abs(coord - cov) / sobolev)
    report.checks.append(_check("form-equivalence", worst, tol, "theorem"))

    # canonical-variation sum identity for random functions
    from .certificates import prop1_sum

    worst = 0.0
    for _ in range(num_random_f):
        f = random_polynomial_scalar(mesh, rng)
        lhs, rhs = prop1_sum(mesh, f, ops=ops, basis=basis)
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + area))
    report.checks.append(_check("prop1-random", worst, tol, "theorem"))

    pairs = solve_smallest_eigenpairs(ops.S, M, k=k, order=dissection_order(mesh), seed=seed)
    low = [p for p in pairs if p.lam <= EIGENVALUE_CAP]
    worst = 0.0
    for p in low:
        lhs, rhs = prop1_sum(mesh, p.field, ops=ops, basis=basis)
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + area))
    report.checks.append(_check("prop1-eigen", worst, tol, "theorem"))

    # proof identities on every nonconstant eigenpair with lambda <= 6
    worst55 = worst_n = worst_mixed = 0.0
    nonconstant = [p for p in low if p.lam > 1e-6]
    for p in nonconstant:
        lam = p.lam
        for t in range(num_coeffs):
            a = rng.standard_normal(n + 1)
            i = t % (n + 1)
            L, T, N, scale = identity_55_residual(mesh, p, a, i, weights, basis, frames)
            worst55 = max(worst55, abs((4.0 - lam) * L + 2.0 * T) / scale)
            worst_n = max(worst_n, abs((4.0 - lam) * N + (6.0 - lam) * T) / scale,
                          abs(N - (6.0 - lam) / 2.0 * L) / scale)
            combo = np.einsum("j,jvd->vd", a, basis)
            U = p.field[:, None] * basis[i]
            lhs = -2.0 * covariant_gradient_inner(mesh, U, combo)
            rhs = -2.0 * T
            worst_mixed = max(worst_mixed, abs(lhs - rhs) / scale)
    report.checks.append(_check("identity-55", worst55, tol, "theorem"))
    report.checks.append(_check("identity-normal", worst_n, tol, "theorem"))
    report.checks.append(_check("mixed-gradient", worst_mixed, tol, "theorem"))

    return report
