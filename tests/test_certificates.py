"""Certificate pipeline, proof identities, and the eigenvalue threshold."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from identity_reference import (
    eigenspace_witness_reference,
    field_norm,
    identity_55,
    mixed_gradient_identity,
)

from spherevar.catalog import build_product_torus
from spherevar import certificates
from spherevar.certificates import (
    CertificateReport,
    build_certificate,
    canonical_variation_values,
    eigenspace_witness,
    el_soufi_lower_bound_check,
    prop1_sum,
    threshold,
    threshold_chain_check,
)
from spherevar.errors import ContractError, ParameterError, UnsupportedSurfaceError
from spherevar.mobius import moebius_basis
from spherevar.operators import (
    assemble_mass,
    assemble_stiffness,
    eigen_clusters,
    first_nonzero_cluster,
    integrate,
    laplace_pencil,
    solve_smallest_eigenpairs,
)
from spherevar.sampling import random_polynomial_scalar
from spherevar.secondvar import coordinate_form_parts, energy_form_coordinate


def test_threshold_values():
    assert threshold(3) == 1.0 / 6.0
    assert threshold(4) == 0.25
    assert threshold(10) == 0.4


def test_threshold_parameter_errors():
    with pytest.raises(ParameterError):
        threshold(2)
    with pytest.raises(ParameterError):
        threshold(2.5)


def test_threshold_chain_exact():
    # brute-force reference: the equivalence at rational lambdas on a grid
    # spanning [0, 2 * threshold), the threshold itself included
    for n in (3, 4, 5, 7):
        thr = Fraction(n - 2, 2 * n)
        for k in range(1000):
            lam = Fraction(k, 1000) * 2 * thr
            assert ((n * lam - 2 * n + 4) / Fraction(n - 2) < Fraction(-3, 2)) == (lam < thr)
        assert threshold_chain_check(n)
    with pytest.raises(ParameterError):
        threshold_chain_check(2)


def test_prop1_constant_function(clifford64):
    f = np.ones(clifford64.num_vertices)
    lhs, rhs = prop1_sum(clifford64, f)
    # gradient term vanishes: rhs = -(2n-4) * area = -2 * 2pi^2
    assert rhs == pytest.approx(-2.0 * integrate(clifford64, 1.0), rel=1e-10)
    assert lhs == pytest.approx(rhs, rel=0.02)


def test_prop1_first_eigenfunction(clifford64, clifford64_spectrum):
    lhs, rhs = prop1_sum(clifford64, clifford64_spectrum.fields[:, 1])
    # mass-normalized f: rhs = n*lambda - (2n-4) = 3*2 - 2 = 4
    assert rhs == pytest.approx(4.0, rel=0.01)
    assert lhs == pytest.approx(rhs, rel=0.02)


def test_identity_55_zero_coefficients(clifford64, clifford64_spectrum):
    values, fields, _ = clifford64_spectrum
    lhs, rhs = identity_55(clifford64, fields[:, 1], values[1], np.zeros(4), 0)
    assert lhs == 0.0
    assert rhs == 0.0


def test_identity_55_first_cluster(clifford64, clifford64_spectrum, rng):
    values, fields, _ = clifford64_spectrum
    for _ in range(5):
        a = rng.standard_normal(4)
        lhs, rhs = identity_55(clifford64, fields[:, 1], values[1], a, 1)
        assert lhs == pytest.approx(rhs, abs=0.02 * (abs(lhs) + abs(rhs) + 0.1))


def test_identity_55_sphere_eigenfunction(sphere4, sphere4_spectrum, rng):
    values, fields, _ = sphere4_spectrum
    a = rng.standard_normal(4)
    lhs, rhs = identity_55(sphere4, fields[:, 1], values[1], a, 0)
    assert lhs == pytest.approx(rhs, abs=0.02 * (abs(lhs) + abs(rhs) + 0.1))


def test_identity_singular_guard(clifford64):
    f = np.zeros(clifford64.num_vertices)
    with pytest.raises(ContractError):
        identity_55(clifford64, f, 4.0, np.ones(4), 0)


def test_mixed_gradient_identity_any_function(clifford64, rng):
    # holds for arbitrary f, not just eigenfunctions; error measured against
    # the L2 norms of the two fields since both sides can nearly cancel
    from spherevar.operators import vertex_weights

    w = vertex_weights(clifford64)
    basis = moebius_basis(clifford64)
    for f, i in ((np.ones(clifford64.num_vertices), 0),
                 (clifford64.vertices[:, 0] * clifford64.vertices[:, 2], 2)):
        a = rng.standard_normal(4)
        lhs, rhs = mixed_gradient_identity(clifford64, f, a, i)
        combo = np.einsum("j,jvd->vd", a, basis)
        scale = field_norm(w, f[:, None] * basis[i]) * field_norm(w, combo)
        assert abs(lhs - rhs) <= 0.02 * scale


def test_el_soufi_check(clifford64, sphere4):
    evals, negdef, claim_valid = el_soufi_lower_bound_check(clifford64)
    assert evals.shape == (4,)
    assert negdef
    assert claim_valid
    _, _, sphere_claim = el_soufi_lower_bound_check(sphere4)
    assert not sphere_claim


def test_certificate_clifford(clifford64):
    report = build_certificate(clifford64, k=8, seed=0)
    assert report.hypothesis_met is False        # lambda1 = 2 > 1/6
    assert report.multiplicity == 4
    assert report.lambda1 == pytest.approx(2.0, rel=0.01)
    assert np.max(report.orthogonality_residuals) <= 1e-8
    assert report.d2e_value == pytest.approx(report.decomposition_value, rel=0.02)
    scale = float(np.sum(np.abs(report.d2e_canonical)) + np.sum(report.normal_mass))
    assert abs(report.pigeonhole_sum) <= 0.02 * scale
    assert report.verdict in ("negative", "nonnegative")
    # the ascending spectrum of G_i for every i; the witness is the least value
    spectra = np.array(report.cluster_members)
    assert spectra.shape == (report.n + 1, report.multiplicity)
    assert np.all(np.diff(spectra, axis=1) >= 0.0)
    assert report.d2e_value == pytest.approx(spectra.min(), rel=1e-10)
    # the four G_i are congruent under the symmetries of the torus, so their
    # least eigenvalues differ by rounding only, and the lowest i wins
    assert np.ptp(spectra[:, 0]) <= 1e-12
    assert report.i0 == 0


def test_certificate_rejects_geodesic_sphere(sphere4):
    with pytest.raises(UnsupportedSurfaceError):
        build_certificate(sphere4)


def test_certificate_report_serializes(clifford16):
    import json

    report = build_certificate(clifford16, k=6, seed=0)
    payload = json.dumps(report.to_dict())
    assert '"verdict"' in payload


def test_certificate_deterministic(clifford16):
    a = build_certificate(clifford16, k=6, seed=0)
    b = build_certificate(clifford16, k=6, seed=0)
    assert a.lambda1 == b.lambda1
    assert a.i0 == b.i0
    assert a.d2e_value == b.d2e_value
    assert a.verdict == b.verdict


def _prop1_loop_reference(mesh, f):
    """sum_i D^2E(f xi_i), one canonical variation at a time, and the rhs,
    with the scale of both: the sums of the absolute stiffness and mass
    terms, of which lhs and rhs are differences."""
    variations = [f[:, None] * xi for xi in moebius_basis(mesh)]
    lhs = sum(energy_form_coordinate(mesh, X) for X in variations)
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    n = mesh.n
    stiffness, mass = f @ (S @ f), f @ (M @ f)
    scale = sum(abs(part) for X in variations for part in coordinate_form_parts(mesh, X))
    scale += n * stiffness + (2 * n - 4) * mass
    return lhs, n * stiffness - (2 * n - 4) * mass, scale


@pytest.mark.parametrize("mesh_name", ["clifford64", "sphere4"])
def test_prop1_batch_matches_loop_reference(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    spectrum = request.getfixturevalue(mesh_name + "_spectrum")
    rng = np.random.default_rng(7)
    for fields in ([random_polynomial_scalar(mesh, rng) for _ in range(5)],
                   list(spectrum.fields.T)):
        lhs, rhs = prop1_sum(mesh, np.stack(fields, axis=1))
        assert lhs.shape == rhs.shape == (len(fields),)
        for j, f in enumerate(fields):
            ref_lhs, ref_rhs, scale = _prop1_loop_reference(mesh, f)
            one_lhs, one_rhs = prop1_sum(mesh, f)
            for value, ref in ((lhs[j], ref_lhs), (rhs[j], ref_rhs),
                               (one_lhs, ref_lhs), (one_rhs, ref_rhs)):
                assert abs(value - ref) <= 1e-13 * scale


@pytest.mark.parametrize("mesh_name", ["clifford64", "s5-torus32"])
def test_prop1_lhs_sums_the_canonical_energies(mesh_name, request):
    if mesh_name == "s5-torus32":
        mesh = build_product_torus(32, n=5)
    else:
        mesh = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(5)
    F = np.stack([random_polynomial_scalar(mesh, rng) for _ in range(3)], axis=1)
    lhs, _ = prop1_sum(mesh, F)
    d2e, normal_mass = canonical_variation_values(mesh, F)
    assert d2e.shape == normal_mass.shape == (mesh.n + 1, 3, 3)
    assert np.array_equal(lhs, np.diagonal(d2e, axis1=1, axis2=2).sum(axis=0))
    one_lhs, _ = prop1_sum(mesh, F[:, 0])
    assert one_lhs == canonical_variation_values(mesh, F[:, :1])[0].sum()


def test_prop1_lhs_near_exactly_summed_reference(clifford64):
    # the lhs against math.fsum of every product c A_vw f_v xi_i^d(v) f_w xi_i^d(w),
    # with A = S, c = 1 and A = M, c = -2
    mesh = clifford64
    f = random_polynomial_scalar(mesh, np.random.default_rng(3))
    lhs, _ = prop1_sum(mesh, f)
    products = []
    for c, A in ((1.0, assemble_stiffness(mesh).tocoo()), (-2.0, assemble_mass(mesh).tocoo())):
        for xi in moebius_basis(mesh):
            g = f[:, None] * xi
            products.extend((c * A.data[:, None] * g[A.row] * g[A.col]).ravel())
    exact = math.fsum(products)
    assert abs(lhs - exact) <= 5e-14 * abs(exact)


@pytest.mark.parametrize("mesh_name", ["clifford64", "s5-torus32"])
@pytest.mark.parametrize("lam", [None, 0.1], ids=["lambda1", "below-threshold"])
def test_witness_matches_field_by_field_reference(mesh_name, lam, request):
    # G_i from (n+1)-space densities against G_i of the projected fields
    if mesh_name == "s5-torus32":
        mesh = build_product_torus(32, n=5)
        values, fields, _ = solve_smallest_eigenpairs(laplace_pencil(mesh), k=8, seed=0)
    else:
        mesh = request.getfixturevalue(mesh_name)
        values, fields, _ = request.getfixturevalue(mesh_name + "_spectrum")
    first = eigen_clusters(values)[1]
    assert len(first) == 4
    F = fields[:, first]
    lam = float(np.mean(values[first])) if lam is None else lam
    witness = eigenspace_witness(mesh, F, lam)
    reference, G = eigenspace_witness_reference(mesh, F, lam)
    assert witness.keys() == reference.keys()
    for spectrum, G_i in zip(np.array(witness["cluster_members"]), G):
        assert np.max(np.abs(spectrum - np.linalg.eigvalsh(G_i))) <= 1e-10 * max(
            np.max(np.abs(G_i)), 1.0)
    mu = np.min(np.linalg.eigvalsh(G))
    assert abs(witness["d2e_value"] - mu) <= 1e-10 * abs(mu)
    for key in ("i0", "degenerate_gram"):
        assert witness[key] == reference[key], key
    if mesh.n == 5:
        # xi_4 = e_4 and xi_5 = e_5 on the equatorial torus: G_4 and G_5 tie,
        # each a multiple of the identity to rounding, and the lower i wins
        spectra = np.array(witness["cluster_members"])
        assert witness["i0"] == 4
        assert np.max(np.abs(spectra[4] - spectra[5])) <= 1e-12 * np.max(np.abs(spectra))
        return
    # on the Clifford torus the least eigenvalue of G_i0 is simple, so the
    # witness f is the reference's up to sign
    assert witness["proposition_applicable"] == reference["proposition_applicable"]
    scale = np.sum(np.abs(reference["d2e_canonical"])) + np.sum(reference["normal_mass"])
    for key in ("d2e_canonical", "normal_mass", "decomposition_value", "pigeonhole_sum"):
        assert np.max(np.abs(witness[key] - reference[key])) <= 1e-10 * scale, key
    assert min(np.max(np.abs(witness["a"] - sign * reference["a"])) for sign in (1, -1)) <= 1e-10
    assert np.max(np.abs(witness["orthogonality_residuals"]
                         - reference["orthogonality_residuals"])) <= 1e-10


@pytest.mark.parametrize("mesh_name", ["clifford64", "sphere4"])
def test_witness_projection_matches_reference_on_random_functions(mesh_name, request):
    # on eigenfunctions of the Clifford torus the Moebius projection is zero
    # to rounding; M-orthonormal random polynomials give it every term
    mesh = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(17)
    F = np.stack([random_polynomial_scalar(mesh, rng) for _ in range(3)], axis=1)
    F = np.linalg.solve(np.linalg.cholesky(F.T @ (assemble_mass(mesh) @ F)), F.T).T
    witness = eigenspace_witness(mesh, F, 0.1)
    reference, G = eigenspace_witness_reference(mesh, F, 0.1)
    scale = max(np.max(np.abs(G)), 1.0)
    # the projection moves G_i off the canonical energies
    assert np.max(np.abs(G - canonical_variation_values(mesh, F)[0])) > 0.01 * scale
    assert np.max(np.abs(np.array(witness["cluster_members"])
                         - np.array(reference["cluster_members"]))) <= 1e-10 * scale
    for key in ("i0", "degenerate_gram", "proposition_applicable"):
        assert witness[key] == reference[key], key
    sign = np.sign(witness["a"] @ reference["a"])
    assert np.max(np.abs(witness["a"] - sign * reference["a"])) <= 1e-10 * scale
    for key in ("d2e_value", "d2e_canonical", "normal_mass", "decomposition_value",
                "pigeonhole_sum", "orthogonality_residuals"):
        assert np.max(np.abs(witness[key] - reference[key])) <= 1e-10 * scale, key


# fields read only on the Clifford torus, where the witness f is unique up to sign
WITNESS_FIELDS = ("a", "d2e_canonical", "normal_mass", "decomposition_value", "pigeonhole_sum",
                  "orthogonality_residuals", "proposition_applicable", "degenerate_gram")


@pytest.mark.parametrize("mesh_name", ["clifford64", "s5-torus32"])
def test_certificate_does_not_depend_on_the_eigenbasis(mesh_name, request, monkeypatch):
    # five random orthonormal bases of the lambda_1 eigenspace give one report
    if mesh_name == "s5-torus32":
        mesh = build_product_torus(32, n=5)
    else:
        mesh = request.getfixturevalue(mesh_name)
    spectrum = solve_smallest_eigenpairs(laplace_pencil(mesh), k=8, seed=0)
    first = first_nonzero_cluster(spectrum.values)
    monkeypatch.setattr(certificates, "solve_smallest_eigenpairs",
                        lambda *args, **kwargs: spectrum)
    base = build_certificate(mesh, k=8, seed=0)
    rng = np.random.default_rng(23)
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((len(first), len(first))))
        fields = spectrum.fields.copy()
        fields[:, first] = fields[:, first] @ Q
        monkeypatch.setattr(certificates, "solve_smallest_eigenpairs",
                            lambda *args, fields=fields, **kwargs: spectrum._replace(
                                fields=fields))
        report = build_certificate(mesh, k=8, seed=0)
        for name in (f.name for f in dataclasses.fields(CertificateReport)):
            if mesh.n == 5 and name in WITNESS_FIELDS:
                continue
            value, expected = getattr(report, name), getattr(base, name)
            if isinstance(expected, (bool, str, int)):
                assert value == expected, name
                continue
            value, expected = np.asarray(value), np.asarray(expected)
            floor = 1.0 if name in ("a", "orthogonality_residuals") else 0.0
            tol = 1e-10 * max(np.max(np.abs(expected)), floor)
            if name == "a":
                value = value * np.sign(value @ expected or 1.0)
            assert np.max(np.abs(value - expected)) <= tol, name
