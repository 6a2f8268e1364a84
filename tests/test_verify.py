"""Verification battery behavior on good, coarse, and non-minimal meshes."""

import numpy as np
import pytest
from identity_reference import (
    field_norm,
    identity_55,
    identity_matrices_reference,
    identity_normal,
    mixed_gradient_identity,
)

from spherevar.catalog import build_clifford_torus, build_equatorial_sphere, build_product_torus
from spherevar.mesh import jitter_vertices
from spherevar.mobius import (
    moebius_basis,
    moebius_field,
    moebius_gram,
    split_tangent_normal,
)
from spherevar.operators import (
    assemble_mass,
    assemble_stiffness,
    dissection_tree,
    integrate,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from spherevar.sampling import random_polynomial_scalar, random_unit_direction
from spherevar.secondvar import energy_form_coordinate
from spherevar.verify import (
    EIGENVALUE_CAP,
    NUM_DIRECTIONS,
    NUM_FORM_FIELDS,
    NUM_RANDOM_F,
    form_equivalence_error,
    identity_matrices,
    run_verification,
)

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


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(32, n=5)],
                         ids=["clifford32", "s5-torus32"])
def test_contracted_identities_match_per_draw_reference(mesh):
    # run_verification dots rows of identity_matrices with each draw; the
    # certificates functions evaluate the same integrals one draw at a time.
    # On the eigenfunctions many of the integrals vanish by symmetry
    # (roundoff-sized values), so the gap is taken relative to
    # ||xi_i|| ||a_j xi_j||, the scale the checks divide by, and random
    # polynomials f, where none of them vanish, are checked as well.
    values, fields, _ = solve_smallest_eigenpairs(
        assemble_stiffness(mesh), assemble_mass(mesh), k=12, tree=dissection_tree(mesh), seed=0)
    low = (values > 1e-6) & (values <= 6.0)
    assert np.count_nonzero(low) == 8
    rng = np.random.default_rng(11)
    # (eigenvalue, function) pairs; the polynomials stand in at lambda = 2
    cases = list(zip(values[low], fields[:, low].T))
    cases += [(2.0, random_polynomial_scalar(mesh, rng)) for _ in range(2)]
    basis = moebius_basis(mesh)
    weights = vertex_weights(mesh)
    worst = 0.0
    for lam, f in cases:
        L, T, N, D = identity_matrices(mesh, f)
        for t in range(5):
            a = rng.standard_normal(mesh.n + 1)
            i = t % (mesh.n + 1)
            scale = (field_norm(weights, basis[i])
                     * field_norm(weights, np.einsum("j,jvd->vd", a, basis)))
            ref_L, _ = identity_55(mesh, f, lam, a, i)
            ref_N, _, _ = identity_normal(mesh, f, lam, a, i)
            ref_mixed, ref_minus_2T = mixed_gradient_identity(mesh, f, a, i)
            gaps = (L[i] @ a - ref_L, -2.0 * (T[i] @ a) - ref_minus_2T,
                    N[i] @ a - ref_N, -2.0 * (D[i] @ a) - ref_mixed)
            worst = max(worst, max(abs(g) for g in gaps) / scale)
    assert worst <= 1e-12


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(32, n=5),
                                  build_equatorial_sphere(3, 3)],
                         ids=["clifford32", "s5-torus32", "sphere3"])
def test_batched_identity_matrices_match_per_eigenpair_reference(mesh):
    # identity_matrices sums per-vertex densities against a batch of
    # functions; the reference contracts the per-face covariant derivatives
    # of f xi_i for one f. Each gap is taken relative to max|f| max_i G_ii,
    # which bounds every entry of L, T and N.
    values, eigenfields, _ = solve_smallest_eigenpairs(
        assemble_stiffness(mesh), assemble_mass(mesh), k=12, tree=dissection_tree(mesh), seed=0)
    rng = np.random.default_rng(13)
    fields = list(eigenfields[:, (values > 1e-6) & (values <= EIGENVALUE_CAP)].T)
    fields += [random_polynomial_scalar(mesh, rng) for _ in range(2)]
    batch = identity_matrices(mesh, np.stack(fields, axis=1))
    d = mesh.n + 1
    assert batch.shape == (len(fields), 4, d, d)
    gram_scale = np.max(np.diag(moebius_gram(mesh)))
    for f, matrices in zip(fields, batch):
        scale = np.max(np.abs(f)) * gram_scale
        reference = np.stack(identity_matrices_reference(mesh, f))
        assert np.max(np.abs(matrices - reference)) <= 1e-13 * scale
        # a batch gives each column's single-f matrices, up to the order of
        # the matrix product's sums
        assert np.max(np.abs(matrices - identity_matrices(mesh, f))) <= 1e-14 * scale


def _moebius_span_reference_errors(mesh, seed, k=12):
    """d2e-moebius-fields, prop1-random and prop1-eigen one field at a time,
    drawing from the rng in run_verification's order."""
    n = mesh.n
    rng = np.random.default_rng(seed)
    area = integrate(mesh, 1.0)
    directions = [np.eye(n + 1)[i] for i in range(n + 1)]
    directions += [random_unit_direction(rng, n + 1) for _ in range(NUM_DIRECTIONS)]
    d2e_worst = 0.0
    for v in directions:
        xi = moebius_field(mesh, v)
        normal = split_tangent_normal(mesh, xi).normal
        nm = integrate(mesh, np.einsum("vd,vd->v", normal, normal))
        d2e = energy_form_coordinate(mesh, xi)
        nrm = integrate(mesh, np.einsum("vd,vd->v", xi, xi))
        d2e_worst = max(d2e_worst, abs(d2e + 2.0 * nm) / max(nm, 0.01 * nrm))
    form_equivalence_error(mesh, rng, NUM_FORM_FIELDS)

    def prop1_worst(fields):
        worst = 0.0
        for f in fields:
            lhs = sum(energy_form_coordinate(mesh, f[:, None] * xi) for xi in moebius_basis(mesh))
            S, M = assemble_stiffness(mesh), assemble_mass(mesh)
            rhs = n * (f @ (S @ f)) - (2 * n - 4) * (f @ (M @ f))
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + area))
        return worst

    randoms = [random_polynomial_scalar(mesh, rng) for _ in range(NUM_RANDOM_F)]
    values, fields, _ = solve_smallest_eigenpairs(assemble_stiffness(mesh), assemble_mass(mesh),
                                                  k=k, tree=dissection_tree(mesh), seed=seed)
    return {"d2e-moebius-fields": d2e_worst,
            "prop1-random": prop1_worst(randoms),
            "prop1-eigen": prop1_worst(fields[:, values <= EIGENVALUE_CAP].T)}


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(16, n=5)],
                         ids=["clifford32", "s5-torus16"])
def test_moebius_span_checks_match_per_field_reference(mesh):
    # the battery reads these checks from held Gram matrices and batched
    # Proposition 1 products; the reference evaluates them one field at a time
    for seed in (0, 1):
        errors = {c.name: c.error for c in run_verification(mesh, seed=seed).checks}
        for name, ref in _moebius_span_reference_errors(mesh, seed).items():
            assert abs(errors[name] - ref) <= 1e-9 * ref, name
