"""Verification battery behavior on good, coarse, and non-minimal meshes."""

import numpy as np
import pytest
import scipy.linalg
from covered_torus import covered_clifford_torus
from identity_reference import (
    field_norm,
    identity_matrices_reference,
    mixed_gradient_identity,
    product_stiffness_reference,
    weak_form_identity,
)
from jittered import jitter_vertices

from spherevar import operators, verify
from spherevar.catalog import (
    build_clifford_torus,
    build_equatorial_sphere,
    build_product_torus,
    grid_faces,
    minimality_residual,
    sweep_ring,
    torus_ring,
)
from spherevar.errors import SolverError
from spherevar.mesh import Chart, SurfaceMesh
from spherevar.mobius import (
    moebius_basis,
    moebius_field,
    moebius_gram,
    split_tangent_normal,
)
from spherevar.operators import (
    assemble_mass,
    assemble_stiffness,
    count_eigenvalues_below,
    integrate,
    laplace_pencil,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from spherevar.sampling import random_polynomial_scalar
from spherevar.secondvar import energy_form_coordinate
from spherevar.verify import (
    AGGREGATE_ALGEBRAIC_TOL,
    EIGENVALUE_CAP,
    NUM_FORM_FIELDS,
    NUM_RANDOM_F,
    MINIMALITY_GATE,
    form_equivalence_error,
    identity_matrices,
    product_identity_residuals,
    run_verification,
)

EXPECTED_CHECKS = [
    "minimality-gate",
    "moebius-norm-identity",
    "tangential-norm-identity",
    "covariant-derivative",
    "sum-normal-sq",
    "d2e-moebius-fields",
    "form-equivalence",
    "prop1",
    "product-weak-form",
    "mixed-gradient",
]


def test_all_checks_pass_on_clifford(clifford64):
    report = run_verification(clifford64, seed=0)
    assert report.passed, [c.name for c in report.failures]
    assert [c.name for c in report.checks] == EXPECTED_CHECKS


def test_all_checks_pass_on_sphere(sphere4):
    report = run_verification(sphere4, seed=0)
    assert report.passed, [c.name for c in report.failures]


def test_minimality_gate_short_circuits(sphere2):
    jittered = jitter_vertices(sphere2, 0.05, seed=1)
    report = run_verification(jittered)
    assert not report.passed
    assert len(report.checks) == 1
    assert report.checks[0].name == "minimality-gate"


def test_coarse_mesh_algebraic_checks_still_pass(clifford16):
    # discretization-limited checks may fail at res=16; algebraic ones cannot
    report = run_verification(clifford16, seed=0)
    algebraic = [c for c in report.checks if c.provenance == "algebraic"]
    assert algebraic and all(c.passed for c in algebraic)


def test_report_serializes_with_provenance(sphere4):
    report = run_verification(sphere4, seed=0)
    payload = report.to_dict()
    assert payload["pass"] is True
    for entry in payload["checks"]:
        assert {"name", "error", "tolerance", "pass", "provenance"} <= set(entry)
        assert entry["provenance"] in ("algebraic", "oracle", "theorem")


def test_report_deterministic(clifford16):
    a = run_verification(clifford16, seed=0)
    b = run_verification(clifford16, seed=0)
    for ca, cb in zip(a.checks, b.checks):
        assert ca.name == cb.name
        assert np.isclose(ca.error, cb.error, rtol=0, atol=1e-12)
        assert ca.passed == cb.passed


def _torus(res, radius):
    """Torus (cos r cos a, cos r sin a, sin r cos b, sin r sin b) in S^3 with
    r = radius, minimal only at r = pi/4."""
    rotations, ring = torus_ring(res, res, 4)
    ring[:, 0] *= [np.cos(radius), 0.0, np.sin(radius), np.sin(radius)]
    vertices, _ = sweep_ring(rotations, ring)
    return SurfaceMesh(n=3, vertices=vertices, faces=grid_faces(res, res), genus=1)


def _random_polynomials(mesh, seed, count):
    rng = np.random.default_rng(seed)
    return np.stack([random_polynomial_scalar(mesh, rng) for _ in range(count)], axis=1)


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(32, n=5)],
                         ids=["clifford32", "s5-torus32"])
def test_contracted_identities_match_per_draw_reference(mesh):
    # run_verification reads the product identities from the rows of
    # identity_matrices; the reference functions evaluate each one for one
    # combination a_j xi_j at a time, with the per-face gradients. The
    # functions are random polynomials, where no integral vanishes by
    # symmetry, and eigenfunctions; each gap is taken relative to
    # ||xi_i|| ||a_j xi_j||.
    values, fields, _ = solve_smallest_eigenpairs(laplace_pencil(mesh), k=12, seed=0)
    low = (values > 1e-6) & (values <= 6.0)
    assert np.count_nonzero(low) == 8
    rng = np.random.default_rng(11)
    functions = list(fields[:, low].T) + list(_random_polynomials(mesh, 12, 4).T)
    basis = moebius_basis(mesh)
    weights = vertex_weights(mesh)
    d = mesh.n + 1
    worst = 0.0
    for f in functions:
        K, L, T, D = identity_matrices(mesh, f)
        W = K - 4.0 * L + 4.0 * integrate(mesh, f) * np.eye(d) - 2.0 * T
        for t in range(5):
            a = rng.standard_normal(d)
            i = t % d
            scale = (field_norm(weights, basis[i])
                     * field_norm(weights, np.einsum("j,jvd->vd", a, basis)))
            ref_K, ref_rest = weak_form_identity(mesh, f, a, i)
            ref_mixed, ref_minus_2T = mixed_gradient_identity(mesh, f, a, i)
            gaps = (K[i] @ a - ref_K, W[i] @ a - (ref_K - ref_rest),
                    -2.0 * (T[i] @ a) - ref_minus_2T, -2.0 * (D[i] @ a) - ref_mixed)
            worst = max(worst, max(abs(g) for g in gaps) / scale)
    assert worst <= 1e-12


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(32, n=5),
                                  build_equatorial_sphere(3, 3)],
                         ids=["clifford32", "s5-torus32", "sphere3"])
def test_batched_identity_matrices_match_per_eigenpair_reference(mesh):
    # identity_matrices takes one stiffness product and sums per-vertex
    # densities against a batch of functions; the references contract K
    # from the per-face gradients and L, T, D from the per-face covariant
    # derivatives of f xi_i, for one f. Each gap is taken relative to
    # max|f| max_i G_ii, which bounds every entry of L and T.
    values, eigenfields, _ = solve_smallest_eigenpairs(laplace_pencil(mesh), k=12, seed=0)
    fields = list(eigenfields[:, values <= EIGENVALUE_CAP].T)
    fields += list(_random_polynomials(mesh, 13, 3).T)
    batch = identity_matrices(mesh, np.stack(fields, axis=1))
    d = mesh.n + 1
    assert batch.shape == (len(fields), 4, d, d)
    gram_scale = np.max(np.diag(moebius_gram(mesh)))
    for f, matrices in zip(fields, batch):
        scale = np.max(np.abs(f)) * gram_scale
        L, T, D = identity_matrices_reference(mesh, f)
        reference = np.stack([product_stiffness_reference(mesh, f), L, T, D])
        assert np.max(np.abs(matrices - reference)) <= 1e-13 * scale
        # a batch gives each column's single-f matrices, up to the order of
        # the matrix product's sums
        assert np.max(np.abs(matrices - identity_matrices(mesh, f))) <= 1e-14 * scale


@pytest.mark.parametrize("n, seed", [(4, 0), (4, 2), (5, 0), (5, 2)])
def test_prop1_passes_on_spheres_in_higher_codimension(n, seed):
    # the rhs n int|grad f|^2 - (2n - 4) int f^2 cancels for some random
    # quadratics in S^4 and S^5 (at seed 0 in S^4 it is 1.24 against parts
    # of 231 and 230), so prop1 is relative to the sum of those parts
    report = run_verification(build_equatorial_sphere(n, 3), seed=seed)
    assert report.passed, [(c.name, c.error) for c in report.failures]


def test_prop1_fails_with_a_moebius_field_dropped(monkeypatch):
    from spherevar import certificates

    values = certificates.canonical_variation_values
    monkeypatch.setattr(certificates, "canonical_variation_values",
                        lambda mesh, F: tuple(part[1:] for part in values(mesh, F)))
    report = run_verification(build_clifford_torus(32))
    assert [c.name for c in report.failures] == ["prop1"]


def test_weak_form_detects_a_non_minimal_torus():
    # radii cos 0.6 and sin 0.6: the gate stops the battery, and the weak
    # form, called directly, is far above the tolerance
    mesh = _torus(64, 0.6)
    assert minimality_residual(mesh) > MINIMALITY_GATE
    weak, _, _ = product_identity_residuals(mesh, _random_polynomials(mesh, 0, 10))
    assert np.max(np.abs(weak)) > 0.02


@pytest.mark.parametrize("n", [3, 5])
def test_discretization_checks_pass_at_res_32_and_converge(n):
    # the lambda-free identities and the tangential norm compare at one
    # consistent point, so each error falls like h^2: by 3x or more from
    # res 32 to res 64, and all checks pass at res 32
    reports = [run_verification(build_product_torus(res, n=n), seed=0) for res in (32, 64)]
    assert all(r.passed for r in reports), [c.name for r in reports for c in r.failures]
    coarse, fine = ({c.name: c.error for c in r.checks} for r in reports)
    for name in ("product-weak-form", "mixed-gradient", "tangential-norm-identity"):
        assert coarse[name] >= 3.0 * fine[name], name


def test_tangential_norm_fails_on_a_rotated_frame():
    # the chart frames of the Clifford torus, rotated by 0.2 rad in the
    # sphere tangent space towards the surface normal (x0, x1, -x2, -x3),
    # give tangential parts that are not those of the surface
    mesh = build_clifford_torus(32)
    frames = np.array(mesh.chart.tangent_frames)
    normal = mesh.vertices * np.array([1.0, 1.0, -1.0, -1.0])
    frames[:, 0] = np.cos(0.2) * frames[:, 0] + np.sin(0.2) * normal
    rotated = SurfaceMesh(n=3, vertices=mesh.vertices, faces=mesh.faces,
                          genus=1, chart=Chart(tangent_frames=frames))
    checks = {c.name: c for c in run_verification(rotated, seed=0).checks}
    assert checks["tangential-norm-identity"].error > 0.02
    assert not checks["tangential-norm-identity"].passed
    assert checks["minimality-gate"].passed


def test_sum_normal_sq_fails_on_a_frame_that_is_not_unit():
    # one chart frame vector of the Clifford torus scaled by s = 1.01 adds
    # (s^2 - 1)^2 |xi_i . e_1|^2 to each |xi_i^N|^2, (s^2 - 1)^2 = 4.04e-4 in
    # the sum: inside the discretization tolerance, far outside the
    # algebraic one that the identity is held to
    mesh = build_clifford_torus(32)
    frames = np.array(mesh.chart.tangent_frames)
    frames[:, 0] *= 1.01
    scaled = SurfaceMesh(n=3, vertices=mesh.vertices, faces=mesh.faces,
                         genus=1, chart=Chart(tangent_frames=frames))
    checks = {c.name: c for c in run_verification(scaled, seed=0).checks}
    check = checks["sum-normal-sq"]
    assert check.provenance == "algebraic" and check.tolerance == AGGREGATE_ALGEBRAIC_TOL
    assert abs(check.error - (1.01 ** 2 - 1.0) ** 2) <= 1e-12
    assert check.error < 0.02 and not check.passed
    assert checks["minimality-gate"].passed


def test_battery_checks_every_eigenfunction_below_the_cap_on_the_cover(monkeypatch):
    # 35 eigenvalues of the 4-fold cover lie below the cap, more than the
    # lowest twelve; one Lanczos run returns them all, and the product
    # identities take them with the ten random polynomials
    mesh = covered_clifford_torus(32)
    below = count_eigenvalues_below(laplace_pencil(mesh), EIGENVALUE_CAP)
    assert below == 35
    runs, spectra = [], []

    def lanczos(*args, **kwargs):
        runs.append(args[1:3])
        return lanczos_run(*args, **kwargs)

    def solve(*args, **kwargs):
        spectra.append(solve_run(*args, **kwargs))
        return spectra[-1]

    lanczos_run, solve_run = operators._shift_invert_lanczos, verify.solve_smallest_eigenpairs
    monkeypatch.setattr(operators, "_shift_invert_lanczos", lanczos)
    monkeypatch.setattr(verify, "solve_smallest_eigenpairs", solve)
    report = run_verification(mesh, seed=0)
    assert report.passed, [c.name for c in report.failures]
    assert runs == [(-0.1, below)]
    assert spectra[0].values.size == below and np.all(spectra[0].values < EIGENVALUE_CAP)
    details = {c.detail.split()[0] for c in report.checks if c.detail}
    assert details == {f"functions={NUM_RANDOM_F + below}"} == {"functions=45"}


def test_a_solved_eigenvalue_not_below_the_cap_is_a_solver_error(clifford16, monkeypatch):
    # a count one too high makes the solve return the lowest eigenvalue
    # above the cap as well
    monkeypatch.setattr(verify, "count_eigenvalues_below",
                        lambda *args: count_eigenvalues_below(*args) + 1)
    with pytest.raises(SolverError, match="10 eigenvalues counted below 6.1, the largest "
                                          "solved is 8.528"):
        run_verification(clifford16, seed=0)


def _moebius_span_reference_errors(mesh, seed):
    """d2e-moebius-fields and prop1 one field pair and one function at a
    time, drawing from the rng in run_verification's order.

    B, N and G are built entry by entry, D^2E(xi_i, xi_j) and the
    integrals of xi_i^N . xi_j^N and xi_i . xi_j, with the normal parts
    split afresh; the worst of |v'(B + 2N)v| / v'(N + 0.01 G)v over every
    direction v is the largest |eigenvalue| of that pencil.
    """
    n = mesh.n
    rng = np.random.default_rng(seed)
    area = integrate(mesh, 1.0)
    fields = [moebius_field(mesh, v) for v in np.eye(n + 1)]
    normals = [split_tangent_normal(mesh, xi).normal for xi in fields]

    def integrals(stack):
        return np.array([[integrate(mesh, np.einsum("vd,vd->v", X, Y)) for Y in stack]
                         for X in stack])

    B = np.array([[energy_form_coordinate(mesh, X, Y) for Y in fields] for X in fields])
    N = integrals(normals)
    d2e_worst = np.max(np.abs(scipy.linalg.eigvalsh(B + 2.0 * N, N + 0.01 * integrals(fields))))
    form_equivalence_error(mesh, rng, NUM_FORM_FIELDS)

    randoms = [random_polynomial_scalar(mesh, rng) for _ in range(NUM_RANDOM_F)]
    pencil = laplace_pencil(mesh)
    _, eigenfields, _ = solve_smallest_eigenpairs(
        pencil, k=count_eigenvalues_below(pencil, EIGENVALUE_CAP), seed=seed)
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    prop1_worst = 0.0
    for f in randoms + list(eigenfields.T):
        lhs = sum(energy_form_coordinate(mesh, f[:, None] * xi) for xi in fields)
        stiffness, mass = f @ (S @ f), f @ (M @ f)
        rhs = n * stiffness - (2 * n - 4) * mass
        prop1_worst = max(prop1_worst,
                          abs(lhs - rhs) / (n * stiffness + (2 * n - 4) * mass + area))
    return {"d2e-moebius-fields": d2e_worst, "prop1": prop1_worst}


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(16, n=5)],
                         ids=["clifford32", "s5-torus16"])
def test_moebius_span_checks_match_per_field_reference(mesh):
    # the battery reads d2e-moebius-fields from one eigvalsh on the held
    # Gram matrices and prop1 from batched products; the reference builds
    # the Gram matrices one field pair at a time and evaluates prop1 one
    # function at a time
    for seed in (0, 1):
        errors = {c.name: c.error for c in run_verification(mesh, seed=seed).checks}
        for name, ref in _moebius_span_reference_errors(mesh, seed).items():
            assert abs(errors[name] - ref) <= 1e-9 * ref, name
