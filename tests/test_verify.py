"""Verification battery behavior on good, coarse, and non-minimal meshes."""

import numpy as np
import pytest

from spherevar.catalog import build_clifford_torus, build_product_torus
from spherevar.certificates import identity_55, identity_normal, mixed_gradient_identity
from spherevar.mesh import jitter_vertices
from spherevar.mobius import field_norm, moebius_basis
from spherevar.operators import (
    EigenPair,
    dissection_order,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from spherevar.sampling import random_polynomial_scalar
from spherevar.secondvar import form_operators
from spherevar.verify import identity_matrices, moebius_terms, run_verification

EXPECTED_CHECKS = {
    "minimality-gate",
    "moebius-norm-identity",
    "moebius-sum-identity",
    "tangential-norm-identity",
    "covariant-derivative",
    "gram-trace",
    "sum-normal-sq",
    "d2e-moebius-fields",
    "form-equivalence",
    "prop1-random",
    "prop1-eigen",
    "identity-55",
    "identity-normal",
    "mixed-gradient",
}


def test_all_checks_pass_on_clifford(clifford64):
    report = run_verification(clifford64, k=12, seed=0)
    assert report.passed, [c.name for c in report.failures]
    assert {c.name for c in report.checks} == EXPECTED_CHECKS


def test_all_checks_pass_on_sphere(sphere4):
    report = run_verification(sphere4, k=10, seed=0)
    assert report.passed, [c.name for c in report.failures]


def test_minimality_gate_short_circuits(sphere2):
    jittered = jitter_vertices(sphere2, 0.05, seed=1)
    report = run_verification(jittered)
    assert not report.passed
    assert len(report.checks) == 1
    assert report.checks[0].name == "minimality-gate"


def test_coarse_mesh_algebraic_checks_still_pass(clifford16):
    # discretization-limited checks may fail at res=16; algebraic ones cannot
    report = run_verification(clifford16, k=8, seed=0)
    algebraic = [c for c in report.checks if c.provenance == "algebraic"]
    assert algebraic and all(c.passed for c in algebraic)


def test_report_serializes_with_provenance(sphere4):
    report = run_verification(sphere4, k=8, seed=0)
    payload = report.to_dict()
    assert payload["pass"] is True
    for entry in payload["checks"]:
        assert {"name", "error", "tolerance", "pass", "provenance"} <= set(entry)
        assert entry["provenance"] in ("algebraic", "oracle", "theorem")


def test_report_deterministic(clifford16):
    a = run_verification(clifford16, k=8, seed=0)
    b = run_verification(clifford16, k=8, seed=0)
    for ca, cb in zip(a.checks, b.checks):
        assert ca.name == cb.name
        assert np.isclose(ca.error, cb.error, rtol=0, atol=1e-12)
        assert ca.passed == cb.passed


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(2, 32, n=5)],
                         ids=["clifford32", "s5-torus32"])
def test_contracted_identities_match_per_draw_reference(mesh):
    # run_verification dots rows of identity_matrices with each draw; the
    # certificates functions evaluate the same integrals one draw at a time.
    # On the eigenfunctions many of the integrals vanish by symmetry
    # (roundoff-sized values), so the gap is taken relative to
    # ||xi_i|| ||a_j xi_j||, the scale the checks divide by, and random
    # polynomials f, where none of them vanish, are checked as well.
    ops = form_operators(mesh)
    pairs = solve_smallest_eigenpairs(ops.S, ops.M, k=12, order=dissection_order(mesh), seed=0)
    nonconstant = [p for p in pairs if 1e-6 < p.lam <= 6.0]
    assert len(nonconstant) == 8
    rng = np.random.default_rng(11)
    nonconstant += [EigenPair(lam=2.0, field=random_polynomial_scalar(mesh, rng), residual=0.0)
                    for _ in range(2)]
    basis = moebius_basis(mesh)
    weights = vertex_weights(mesh)
    terms = moebius_terms(mesh)
    worst = 0.0
    for p in nonconstant:
        L, T, N, D = identity_matrices(mesh, p.field, terms)
        for t in range(5):
            a = rng.standard_normal(mesh.n + 1)
            i = t % (mesh.n + 1)
            scale = (field_norm(weights, basis[i])
                     * field_norm(weights, np.einsum("j,jvd->vd", a, basis)))
            ref_L, _ = identity_55(mesh, p, a, i)
            ref_N, _, _ = identity_normal(mesh, p, a, i)
            ref_mixed, ref_minus_2T = mixed_gradient_identity(mesh, p.field, a, i)
            gaps = (L[i] @ a - ref_L, -2.0 * (T[i] @ a) - ref_minus_2T,
                    N[i] @ a - ref_N, -2.0 * (D[i] @ a) - ref_mixed)
            worst = max(worst, max(abs(g) for g in gaps) / scale)
    assert worst <= 1e-12
