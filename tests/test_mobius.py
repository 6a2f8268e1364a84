"""Moebius fields: pointwise identities, splits, Gram matrix, projection.

Property tests use hypothesis over coefficient vectors on small cached meshes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from identity_reference import field_inner, field_norm
from sampling import random_polynomial_scalar

from spherevar.catalog import build_clifford_torus, build_equatorial_sphere, build_product_torus
from spherevar.errors import ContractError
from spherevar.mobius import (
    check_sphere_tangent,
    moebius_basis,
    moebius_field,
    moebius_gram,
    moebius_normal,
    pointwise_identity_report,
    project_orthogonal_to_moebius,
    split_tangent_normal,
    sum_normal_sq,
)
from spherevar.operators import integrate, lumped_gram, vertex_weights

SMALL_TORUS = build_clifford_torus(8)
SMALL_SPHERE = build_equatorial_sphere(3, 1)

coeffs = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
)


def test_moebius_field_values():
    # at the vertex (1/sqrt2, 0, 1/sqrt2, 0) with v = e1: |xi|^2 = 1 - x1^2 = 1/2
    x = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    idx = int(np.argmin(np.linalg.norm(SMALL_TORUS.vertices - x, axis=1)))
    assert np.allclose(SMALL_TORUS.vertices[idx], x)
    xi = moebius_field(SMALL_TORUS, np.eye(4)[0])
    assert np.dot(xi[idx], xi[idx]) == pytest.approx(0.5, abs=1e-12)


def test_moebius_field_is_sphere_tangent(clifford16):
    xi = moebius_field(clifford16, np.array([1.0, -2.0, 0.5, 3.0]))
    check_sphere_tangent(clifford16, xi)


def test_moebius_field_shape_contract(clifford16):
    with pytest.raises(ContractError):
        moebius_field(clifford16, np.ones(3))


@given(a=coeffs, b=coeffs, s=st.floats(-5, 5, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_moebius_field_linear_in_direction(a, b, s):
    a, b = np.array(a), np.array(b)
    lhs = moebius_field(SMALL_TORUS, s * a + b)
    rhs = s * moebius_field(SMALL_TORUS, a) + moebius_field(SMALL_TORUS, b)
    assert np.array_equal(lhs, rhs) or np.max(np.abs(lhs - rhs)) < 1e-12


@given(a=coeffs)
@settings(max_examples=20, deadline=None)
def test_split_parts_are_orthogonal(a):
    X = moebius_field(SMALL_TORUS, np.array(a))
    split = split_tangent_normal(SMALL_TORUS, X)
    dots = np.einsum("vd,vd->v", split.tangential, split.normal)
    assert np.max(np.abs(dots)) < 1e-10
    assert np.max(np.abs(split.tangential + split.normal - X)) < 1e-12


@given(a=coeffs)
@settings(max_examples=15, deadline=None)
def test_projection_idempotent(a):
    a = np.array(a)
    f = SMALL_TORUS.vertices[:, 0] * SMALL_TORUS.vertices[:, 2]
    X = f[:, None] * moebius_field(SMALL_TORUS, a + 1.0)
    X_perp, _, residuals, _ = project_orthogonal_to_moebius(SMALL_TORUS, X)
    assert np.max(residuals) < 1e-10
    _, a2, _, _ = project_orthogonal_to_moebius(SMALL_TORUS, X_perp)
    gram = moebius_gram(SMALL_TORUS)
    scale = field_norm(vertex_weights(SMALL_TORUS), X) + 1.0
    assert np.max(np.abs(a2)) * np.sqrt(np.trace(gram)) < 1e-10 * scale


def test_split_rejects_non_tangent_field(clifford16):
    with pytest.raises(ContractError):
        split_tangent_normal(clifford16, clifford16.vertices.copy())


def test_pointwise_identities(clifford64, sphere4):
    for mesh, tol_tan in ((clifford64, 0.02), (sphere4, 0.02)):
        report = pointwise_identity_report(mesh)
        assert report["norm_sq"] < 1e-12
        assert report["tangential_sq"] < tol_tan


def test_sum_normal_sq_is_n_minus_2(clifford64, torus_s4):
    for mesh in (clifford64, torus_s4):
        s = sum_normal_sq(mesh)
        assert np.max(np.abs(s - (mesh.n - 2))) < 0.02 * (mesh.n - 2)


def test_gram_matrix_clifford(clifford64):
    G = moebius_gram(clifford64)
    area = integrate(clifford64, 1.0)
    assert np.allclose(G, np.diag(np.full(4, 0.75 * area)), atol=0.01 * area)
    assert abs(np.trace(G) - 3 * area) < 1e-9 * area


def test_gram_matrix_equator_in_s3(sphere4):
    G = moebius_gram(sphere4)
    area = integrate(sphere4, 1.0)
    # x4 = 0 on the equator, so xi_4 = e4 has |xi_4|^2 = 1 everywhere
    assert G[3, 3] == pytest.approx(area, rel=1e-12)
    assert abs(np.trace(G) - 3 * area) < 1e-9 * area


def test_projection_coefficients_match_quadrature(clifford64, clifford64_spectrum):
    # coefficients of f*xi_1 solve the Gram system with rhs int f xi_1 . xi_j;
    # for the eigenfunction the rhs vanishes by symmetry, for a random
    # polynomial it does not
    basis = moebius_basis(clifford64)
    w = vertex_weights(clifford64)
    G = moebius_gram(clifford64)
    polynomial = random_polynomial_scalar(clifford64, np.random.default_rng(7))
    for f in (clifford64_spectrum.fields[:, 1], polynomial):
        X = f[:, None] * basis[0]
        _, a, _, _ = project_orthogonal_to_moebius(clifford64, X)
        rhs = np.array([field_inner(w, X, xi) for xi in basis])
        assert np.allclose(G @ a, rhs, rtol=0.0, atol=1e-10 * np.linalg.norm(rhs))


@pytest.mark.parametrize("mesh_name", ["clifford64", "s5-torus32", "sphere4"])
def test_lumped_gram_matches_pairwise_reference(mesh_name, request):
    # each entry is summed as field_inner sums its pair; without Y each entry
    # a <= b is mirrored, so the Gram matrix is exactly symmetric
    mesh = (build_product_torus(32, n=5) if mesh_name == "s5-torus32"
            else request.getfixturevalue(mesh_name))
    w = vertex_weights(mesh)
    basis, normal = moebius_basis(mesh), moebius_normal(mesh)
    f = random_polynomial_scalar(mesh, np.random.default_rng(3))
    for X in (basis, normal, f[None, :, None] * normal):
        G = lumped_gram(mesh, X)
        assert np.array_equal(G, G.T)
        d = len(X)
        reference = [[field_inner(w, X[min(a, b)], X[max(a, b)]) for b in range(d)]
                     for a in range(d)]
        assert np.array_equal(G, reference)
        assert np.array_equal(lumped_gram(mesh, X[:2], basis),
                              [[field_inner(w, x, y) for y in basis] for x in X[:2]])


def test_sphere_axis_moebius_fields_are_tangential(sphere4):
    # xi_i for i <= 3 restricted to the equatorial S^2 is surface-tangential,
    # so its normal mass vanishes; xi_4 = e4 is purely normal
    w = vertex_weights(sphere4)
    for i, expect_norm in ((0, 0.0), (3, 1.0)):
        xi = moebius_field(sphere4, np.eye(4)[i])
        split = split_tangent_normal(sphere4, xi)
        nm = field_inner(w, split.normal, split.normal)
        total = field_inner(w, xi, xi)
        assert nm == pytest.approx(expect_norm * total, abs=1e-10 * max(total, 1.0))
