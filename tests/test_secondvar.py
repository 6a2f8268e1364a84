"""Second-variation forms, index counts, and the index-gap formula."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from covered_torus import covered_clifford_torus
from hypothesis import given, settings
from hypothesis import strategies as st
from identity_reference import field_inner, frame_block_reference, surface_gradient

from spherevar import secondvar
from spherevar.catalog import (
    build_by_name,
    build_clifford_torus,
    build_equatorial_sphere,
    build_product_torus,
)
from spherevar.errors import (
    ContractError,
    ParameterError,
    SolverError,
    UnsupportedSurfaceError,
)
from spherevar.mesh import face_areas, face_corner_vectors, sphere_tangent_frames
from spherevar.mobius import (
    moebius_basis,
    moebius_field,
    moebius_normal_gram,
    split_tangent_normal,
)
from spherevar.operators import (
    Pencil,
    _eliminate,
    _factor_shifted,
    _fronts,
    _shift_invert_lanczos,
    assemble_mass,
    assemble_stiffness,
    count_eigenvalues_below,
    face_centroids_on_sphere,
    integrate,
    nested_dissection,
    vertex_weights,
)
from spherevar.sampling import random_bandlimited_field
from spherevar.secondvar import (
    DEFAULT_INDEX_DELTA,
    area_jacobi_form,
    area_jacobi_matrix,
    coordinate_form_parts,
    covariant_gradient_inner,
    ejiri_micallef_r,
    energy_form_coordinate,
    energy_form_covariant,
    energy_quadratic_matrix,
    moebius_covariant_load,
    moebius_energy_gram,
    negative_index_count,
)

SMALL_TORUS = build_clifford_torus(8)


def test_energy_form_on_moebius_fields(clifford64):
    # D^2E(xi_i) = -2 int |xi_i^N|^2 = -pi^2 by symmetry on the Clifford torus
    for xi in moebius_basis(clifford64):
        val = energy_form_coordinate(clifford64, xi)
        assert val == pytest.approx(-np.pi ** 2, rel=0.02)


def test_energy_form_zero_and_bilinear(clifford16):
    Z = np.zeros_like(clifford16.vertices)
    assert energy_form_coordinate(clifford16, Z) == 0.0
    X = moebius_field(clifford16, np.array([1.0, 0.5, -0.25, 2.0]))
    Y = moebius_field(clifford16, np.array([0.0, -1.0, 3.0, 0.5]))
    v1 = energy_form_coordinate(clifford16, 2.5 * X, Y)
    v2 = 2.5 * energy_form_coordinate(clifford16, X, Y)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_energy_form_rejects_non_tangent(clifford16):
    with pytest.raises(ContractError):
        energy_form_coordinate(clifford16, clifford16.vertices.copy())


@given(a=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
@settings(max_examples=15, deadline=None)
def test_forms_scale_quadratically(a):
    X = moebius_field(SMALL_TORUS, np.array(a) + 0.1)
    base = energy_form_coordinate(SMALL_TORUS, X)
    assert energy_form_coordinate(SMALL_TORUS, 3.0 * X) == pytest.approx(
        9.0 * base, rel=1e-10, abs=1e-10)


def test_coordinate_covariant_agreement(clifford64, rng):
    from spherevar.sampling import random_bandlimited_field

    S, M = assemble_stiffness(clifford64), assemble_mass(clifford64)
    for _ in range(5):
        X = random_bandlimited_field(clifford64, rng)
        coord = energy_form_coordinate(clifford64, X)
        cov = energy_form_covariant(clifford64, X)
        scale = float(np.einsum("vd,vd->", X, S @ X)
                      + np.einsum("vd,vd->", X, M @ X))
        assert abs(coord - cov) <= 0.02 * scale


def test_area_jacobi_constants(clifford64, sphere4):
    ones_t = np.ones(clifford64.num_vertices)
    assert area_jacobi_form(clifford64, ones_t) == pytest.approx(
        -4.0 * integrate(clifford64, 1.0), rel=0.01)
    ones_s = np.ones(sphere4.num_vertices)
    assert area_jacobi_form(sphere4, ones_s) == pytest.approx(
        -2.0 * integrate(sphere4, 1.0), rel=0.01)


def test_area_jacobi_on_first_eigenfunction(clifford64, clifford64_spectrum):
    f = clifford64_spectrum.fields[:, 1]   # mass-normalized, lambda ~ 2
    # J(f) = (lambda - 2 - |A|^2) int f^2 = lambda - 4
    assert area_jacobi_form(clifford64, f) == pytest.approx(-2.0, rel=0.02)


def test_area_jacobi_unsupported_surfaces(torus_s4):
    with pytest.raises(UnsupportedSurfaceError):
        area_jacobi_form(torus_s4, np.ones(torus_s4.num_vertices))
    with pytest.raises(UnsupportedSurfaceError):
        area_jacobi_matrix(torus_s4)


def test_index_counts_match_known_values(clifford64, sphere4):
    energy = negative_index_count(energy_quadratic_matrix(clifford64))
    assert energy.count == 4
    area = negative_index_count(area_jacobi_matrix(clifford64))
    assert area.count == 5
    # J-spectrum = lambda - 4: one eigenvalue near -4, four near -2
    assert area.negatives[0] == pytest.approx(-4.0, rel=0.02)
    assert np.allclose(area.negatives[1:], -2.0, rtol=0.02)
    sphere_area = negative_index_count(area_jacobi_matrix(sphere4))
    assert sphere_area.count == 1
    assert sphere_area.negatives[0] == pytest.approx(-2.0, rel=0.02)


@pytest.mark.parametrize("build", [energy_quadratic_matrix, area_jacobi_matrix])
def test_index_counts_match_dense_reference(clifford16, build):
    form = build(clifford16)
    delta = 0.1
    mus = scipy.linalg.eigh(form.Q.toarray(), form.M.toarray(), eigvals_only=True)
    dense_neg = mus[mus < -delta]
    result = negative_index_count(form, delta=delta)
    assert result.count == dense_neg.size
    assert np.max(np.abs(result.negatives - dense_neg)) <= 1e-10
    assert result.near_zero.size == int(np.sum(np.abs(mus) <= delta))


@pytest.mark.parametrize("build", [
    lambda: build_clifford_torus(16),
    lambda: build_product_torus(16, n=4),
], ids=["clifford16", "torus-in-s4-16"])
def test_front_count_matches_dense_spectrum(build):
    form = energy_quadratic_matrix(build())
    mus = scipy.linalg.eigh(form.Q.toarray(), form.M.toarray(), eigvals_only=True)
    # midpoints of spectral gaps, from the index range to well inside the spectrum
    gaps = np.flatnonzero(np.diff(mus) > 1e-3)
    shifts = [(mus[g] + mus[g + 1]) / 2 for g in gaps[[0, 3, 8, 20, 60, len(gaps) // 2]]]
    shifts += [-0.1, 0.1]
    for shift in shifts:
        assert np.min(np.abs(mus - shift)) > 1e-6
        assert count_eigenvalues_below(form, shift) == np.sum(mus < shift)


@pytest.mark.parametrize("surface, res, build", [
    ("clifford-torus", 64, energy_quadratic_matrix),
    ("clifford-torus", 64, area_jacobi_matrix),
    ("clifford-torus", 128, energy_quadratic_matrix),
    ("clifford-torus", 128, area_jacobi_matrix),
    ("equatorial-sphere", 5, area_jacobi_matrix),
], ids=["clifford64-energy", "clifford64-area", "clifford128-energy", "clifford128-area",
        "sphere5-area"])
def test_front_count_matches_superlu_pivots(surface, res, build):
    # the pencils and shifts of `spherevar index` and the benchmark's index
    # workload; at -delta, where the size rule reads them, the factor's
    # nonzeros are those SuperLU stores in L and again in U
    form = build(build_by_name(surface, res=res))
    for shift in (DEFAULT_INDEX_DELTA, -DEFAULT_INDEX_DELTA):
        lu, _ = _factor_shifted(form, shift)
        pivots = int(np.count_nonzero(lu.U.diagonal() < 0.0))
        stored = lu.L.nnz + lu.U.nnz
        del lu
        assert count_eigenvalues_below(form, shift) == pivots
        if shift < 0:
            found = _eliminate(form, _fronts(form), shift, count_nonzeros=True)
            assert (found.negative, 2 * found.nonzeros) == (pivots, stored)


@pytest.mark.parametrize("build, shift, structure", [
    (lambda: build_clifford_torus(8), DEFAULT_INDEX_DELTA, "root only"),
    (lambda: build_clifford_torus(16), DEFAULT_INDEX_DELTA, "indefinite root"),
    (lambda: build_clifford_torus(16), 3.0, "indefinite below the root"),
    (lambda: build_product_torus(8, n=5), DEFAULT_INDEX_DELTA, "indefinite root"),
    (lambda: build_product_torus(8, n=5), 3.0, "indefinite below the root"),
], ids=["clifford8", "clifford16", "clifford16-inside", "s5-torus8", "s5-torus8-inside"])
def test_kept_front_factor_solves_like_a_dense_solve(build, shift, structure, rng):
    # the pencil at res 8 is one front; at +delta the root is indefinite,
    # and inside the spectrum fronts below it are too (Bunch-Kaufman)
    form = energy_quadratic_matrix(build())
    fronts = _fronts(form)
    found = _eliminate(form, fronts, shift, keep=True)
    factor = found.factor
    indefinite = [ipiv is not None for _, _, _, _, ipiv in factor.fronts]
    assert indefinite[-1]
    assert (len(indefinite) == 1) == (structure == "root only")
    if structure == "indefinite below the root":
        assert any(indefinite[:-1])
    K = (form.Q - shift * form.M).toarray()
    assert found.negative == int(np.sum(np.linalg.eigvalsh(K) < 0.0))
    perm = form.dof_order
    for _ in range(3):
        b = rng.standard_normal(K.shape[0])
        x = np.empty_like(b)
        x[perm] = factor.solve(b[perm])
        exact = np.linalg.solve(K, b)
        assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)
    # one buffer, sized from the tree, that every kept block lies in and
    # that the elimination's own buffers never share
    assert factor.buffer.size == np.sum(fronts.kept_sizes) and factor.buffer.base is None
    for _, packed, update, _, ipiv in factor.fronts:
        for kept in (packed, update):
            assert kept.size == 0 or np.shares_memory(kept, factor.buffer)
        for kept in (packed, update, ipiv):
            assert kept is None or not any(np.shares_memory(kept, scratch)
                                           for scratch in (fronts.work, fronts.stack))


@pytest.mark.parametrize("build", [
    lambda: build_clifford_torus(64),
    lambda: build_product_torus(32, n=5),
], ids=["clifford64", "s5-torus32"])
def test_lanczos_on_the_kept_factor_matches_superlu(build):
    form = energy_quadratic_matrix(build())
    above = _eliminate(form, _fronts(form), DEFAULT_INDEX_DELTA, keep=True)
    kept = _shift_invert_lanczos(form, DEFAULT_INDEX_DELTA, above.negative, "SA", 0,
                                 factor=above.factor)
    superlu = _shift_invert_lanczos(form, DEFAULT_INDEX_DELTA, above.negative, "SA", 0)
    assert np.all(np.abs(kept - superlu) <= 1e-10 * np.abs(superlu))
    result = negative_index_count(form)
    assert np.sum(kept < -DEFAULT_INDEX_DELTA) == np.sum(superlu < -DEFAULT_INDEX_DELTA)
    assert result.count == np.sum(kept < -DEFAULT_INDEX_DELTA)


@pytest.mark.parametrize("build, factor, count", [
    (lambda: energy_quadratic_matrix(build_clifford_torus(32)), "the kept dense-front LDL^T", 4),
    (lambda: energy_quadratic_matrix(covered_clifford_torus(32)), "a SuperLU factor", 24),
    (lambda: area_jacobi_matrix(build_clifford_torus(32)), "a SuperLU factor", 5),
], ids=["clifford32-energy", "cover32-energy", "clifford32-area"])
def test_index_count_keeps_the_fronts_where_they_are_smaller(build, factor, count):
    # the kept factor against SuperLU's: 4.0 against 5.7 MiB on the torus,
    # 35.5 against 24.0 MiB on the cover; scalar pencils stay on SuperLU
    result = negative_index_count(build())
    assert (result.lanczos_factor, result.count) == (factor, count)


# tracemalloc peaks measured on clifford64, in pencil sizes (the bytes of
# the distinct arrays of Q and M, which share indices and indptr): 1.60 for
# the assembly and 1.63 for the count at +delta, bounded with a margin of
# about 10%
ASSEMBLY_PEAK_PENCILS = 1.75
COUNT_PEAK_PENCILS = 1.8


def _traced_peak(call):
    """Peak of the memory traced while ``call()`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_pencil_and_count_peak_memory(clifford64):
    form = energy_quadratic_matrix(clifford64)   # holds frames, S, M and the tree
    arrays = {id(a): a for m in (form.Q, form.M) for a in (m.data, m.indices, m.indptr)}
    assert len(arrays) == 4   # two data arrays on one pattern
    pencil = sum(a.nbytes for a in arrays.values())
    assembly = _traced_peak(lambda: energy_quadratic_matrix(clifford64))
    count = _traced_peak(lambda: count_eigenvalues_below(form, DEFAULT_INDEX_DELTA))
    assert assembly <= ASSEMBLY_PEAK_PENCILS * pencil, assembly / pencil
    assert count <= COUNT_PEAK_PENCILS * pencil, count / pencil


def _diagonal_form(mus):
    """A pencil (diag(mus), I), one DOF per vertex."""
    dim = len(mus)
    return Pencil(Q=sp.diags(np.asarray(mus, dtype=float)).tocsr(),
                  M=sp.identity(dim, format="csr"), kind="areaJacobi",
                  tree=nested_dissection(np.arange(dim, dtype=float)[:, None],
                                         np.empty((0, 2), dtype=int)))


@pytest.mark.parametrize("on_cutoff", [0.1, -0.1], ids=["plus-delta", "minus-delta"])
def test_index_count_eigenvalue_on_cutoff_raises(on_cutoff):
    # an eigenvalue exactly on +-delta makes that factor singular
    form = _diagonal_form([-3.0, -1.0, on_cutoff, 0.02, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(SolverError):
        negative_index_count(form, delta=0.1)


@pytest.mark.parametrize("delta", [-0.1, 0.0])
def test_index_count_nonpositive_delta_raises(delta):
    form = _diagonal_form([-3.0, -1.0, 0.05, 1.0, 2.0, 3.0])
    with pytest.raises(ParameterError, match="positive"):
        negative_index_count(form, delta=delta)


def test_index_count_small_diagonal_pencil():
    form = _diagonal_form([-3.0, -1.0, 0.05, -0.02, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    result = negative_index_count(form, delta=0.1)
    assert result.count == 2
    assert np.max(np.abs(result.negatives - [-3.0, -1.0])) <= 1e-12
    assert np.max(np.abs(result.near_zero - [-0.02, 0.05])) <= 1e-12


def test_index_count_lanczos_value_above_cutoff_raises(clifford16, monkeypatch):
    import scipy.sparse.linalg as spla

    eigsh = spla.eigsh

    def missed_one(*args, **kwargs):
        vals = np.sort(eigsh(*args, **kwargs))
        vals[-1] = 0.5   # a value above +delta in place of the largest below it
        return vals

    monkeypatch.setattr(spla, "eigsh", missed_one)
    with pytest.raises(SolverError, match="missed"):
        negative_index_count(energy_quadratic_matrix(clifford16), delta=0.1)


def test_index_count_inertia_disagreement_raises(clifford16, monkeypatch):
    from spherevar import secondvar

    eliminate = secondvar._eliminate

    def wrong_below_minus_delta(pencil, fronts, shift, **kwargs):
        found = eliminate(pencil, fronts, shift, **kwargs)
        return found._replace(negative=99) if shift < 0 else found

    monkeypatch.setattr(secondvar, "_eliminate", wrong_below_minus_delta)
    with pytest.raises(SolverError, match="inertia"):
        negative_index_count(area_jacobi_matrix(clifford16))


def test_energy_pencil_dimensions(clifford16):
    form = energy_quadratic_matrix(clifford16)
    dim = clifford16.n * clifford16.num_vertices
    assert form.Q.shape == (dim, dim)
    assert (abs(form.Q - form.Q.T)).max() < 1e-12
    assert (form.Q != form.Q.T).nnz == 0
    assert (form.M != form.M.T).nnz == 0
    assert np.all(form.Q.data != 0.0) and np.all(form.M.data != 0.0)


def test_area_le_energy_for_normal_fields(clifford64, clifford64_spectrum):
    # second variation of area <= second variation of energy on f * nu, with
    # nu = (x0, x1, -x2, -x3) the unit normal of the Clifford torus in S^3
    nu = clifford64.vertices * np.array([1.0, 1.0, -1.0, -1.0])
    for j in (1, 2):
        f = clifford64_spectrum.fields[:, j]
        aj = area_jacobi_form(clifford64, f)
        en = energy_form_coordinate(clifford64, f[:, None] * nu)
        assert aj <= en + 0.02 * (abs(aj) + abs(en))


def test_ejiri_micallef_cases():
    assert ejiri_micallef_r(0, 0).value == 0
    assert ejiri_micallef_r(1, 0).value == 2
    assert ejiri_micallef_r(3, 0).value == 12
    assert ejiri_micallef_r(3, 0).cases == ("b <= 2g-3",)
    # large b always lands in the zero case
    assert ejiri_micallef_r(2, 10).value == 0


def test_ejiri_micallef_parameter_errors():
    with pytest.raises(ParameterError):
        ejiri_micallef_r(-1, 0)
    with pytest.raises(ParameterError):
        ejiri_micallef_r(1, -2)


def _covariant_gradient_inner_by_components(mesh, X, Y):
    """int <D X, D Y> from surface_gradient per component, projected on the
    in-plane directions and then orthogonal to the face centroid."""
    u, w = face_corner_vectors(mesh)
    d1 = u / np.linalg.norm(u, axis=1, keepdims=True)
    w_perp = w - np.einsum("fd,fd->f", w, d1)[:, None] * d1
    d2 = w_perp / np.linalg.norm(w_perp, axis=1, keepdims=True)
    centroid = face_centroids_on_sphere(mesh)
    gX = np.stack([surface_gradient(mesh, X[:, c]) for c in range(X.shape[1])], axis=1)
    gY = np.stack([surface_gradient(mesh, Y[:, c]) for c in range(Y.shape[1])], axis=1)
    total = 0.0
    for direction in (d1, d2):
        hX = np.einsum("fcd,fd->fc", gX, direction)
        hY = np.einsum("fcd,fd->fc", gY, direction)
        hX -= np.einsum("fc,fc->f", hX, centroid)[:, None] * centroid
        hY -= np.einsum("fc,fc->f", hY, centroid)[:, None] * centroid
        total += float(face_areas(mesh) @ np.einsum("fc,fc->f", hX, hY))
    return total


@pytest.mark.parametrize("mesh", [build_clifford_torus(16), build_product_torus(16, n=5)],
                         ids=["clifford16", "s5-torus16"])
def test_covariant_gradient_inner_matches_componentwise_gradients(mesh):
    rng = np.random.default_rng(3)
    for _ in range(3):
        X = random_bandlimited_field(mesh, rng)
        Y = random_bandlimited_field(mesh, rng)
        for A, B in ((X, Y), (X, X)):
            ref = _covariant_gradient_inner_by_components(mesh, A, B)
            assert abs(covariant_gradient_inner(mesh, A, B) - ref) <= 1e-12 * abs(ref)
        assert covariant_gradient_inner(mesh, X) == covariant_gradient_inner(mesh, X, X)


@pytest.mark.parametrize("mesh_name", ["clifford64", "s5-torus32", "sphere4"])
def test_held_moebius_grams_match_pairwise_reference(mesh_name, request):
    # B_ij = D^2E(xi_i, xi_j) and N_ij = int xi_i^N . xi_j^N (lumped), one
    # pair and one split at a time
    mesh = (build_product_torus(32, n=5) if mesh_name == "s5-torus32"
            else request.getfixturevalue(mesh_name))
    basis = moebius_basis(mesh)
    normals = [split_tangent_normal(mesh, xi).normal for xi in basis]
    w = vertex_weights(mesh)
    d = mesh.n + 1
    B_ref = np.array([[energy_form_coordinate(mesh, basis[i], basis[j]) for j in range(d)]
                      for i in range(d)])
    N_ref = np.array([[field_inner(w, normals[i], normals[j]) for j in range(d)]
                      for i in range(d)])
    for held, ref in ((moebius_energy_gram(mesh), B_ref), (moebius_normal_gram(mesh), N_ref)):
        assert np.max(np.abs(held - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(moebius_energy_gram(mesh), moebius_energy_gram(mesh).T)
    # a stack of fields gives its Gram matrix, each entry a <= b summed as for
    # that pair alone and mirrored
    directions = np.random.default_rng(5).standard_normal((3, d))
    stack = np.stack([moebius_field(mesh, v) for v in directions])
    gram = [[energy_form_coordinate(mesh, stack[min(a, b)], stack[max(a, b)])
             for b in range(3)] for a in range(3)]
    assert np.array_equal(energy_form_coordinate(mesh, stack), gram)


def test_coordinate_form_parts_pairs_two_stacks(clifford16):
    rng = np.random.default_rng(11)
    X = np.stack([random_bandlimited_field(clifford16, rng) for _ in range(3)])
    Y = np.stack([random_bandlimited_field(clifford16, rng) for _ in range(2)])
    parts = coordinate_form_parts(clifford16, X, Y)
    for k, part in enumerate(parts):
        assert part.shape == (3, 2)
        assert np.array_equal(part, [[coordinate_form_parts(clifford16, x, y)[k] for y in Y]
                                     for x in X])
    assert np.array_equal(energy_form_coordinate(clifford16, X, Y), parts[0] - 2.0 * parts[1])


def test_moebius_energy_gram_applies_each_operator_once_to_the_basis(monkeypatch):
    mesh = build_product_torus(32, n=5)
    applied, checked = [], []
    apply_to_stack, check_tangent = secondvar._apply_to_stack, secondvar.check_sphere_tangent

    def record_apply(A, X):
        applied.append(X.shape[0])
        return apply_to_stack(A, X)

    def record_check(mesh, X):
        checked.append(X.shape)
        return check_tangent(mesh, X)

    monkeypatch.setattr(secondvar, "_apply_to_stack", record_apply)
    monkeypatch.setattr(secondvar, "check_sphere_tangent", record_check)
    moebius_energy_gram(mesh)
    assert applied == [6, 6]
    assert checked == [(mesh.num_vertices, 6)] * 6


@pytest.mark.parametrize("mesh", [build_clifford_torus(32), build_product_torus(32, n=5),
                                  build_equatorial_sphere(3, 3)],
                         ids=["clifford32", "s5-torus32", "sphere3"])
def test_covariant_load_pairs_like_covariant_gradient_inner(mesh):
    # sum_v X(v) . (C xi_j)(v) against the per-face derivatives of X and
    # xi_j; some of these integrals vanish by symmetry, so each gap is taken
    # relative to the Cauchy-Schwarz bound of the integral
    load = moebius_covariant_load(mesh)
    assert load.shape == (mesh.n + 1, mesh.num_vertices, mesh.n + 1)
    rng = np.random.default_rng(17)
    for _ in range(3):
        X = random_bandlimited_field(mesh, rng)
        for xi, C_xi in zip(moebius_basis(mesh), load):
            ref = covariant_gradient_inner(mesh, X, xi)
            bound = np.sqrt(covariant_gradient_inner(mesh, X) * covariant_gradient_inner(mesh, xi))
            assert abs(np.einsum("vd,vd->", X, C_xi) - ref) <= 1e-12 * bound


@pytest.mark.parametrize("mesh_name", ["clifford64", "sphere4", "torus_s4"])
def test_energy_pencil_matches_entrywise_reference(mesh_name, request):
    # Q from (S - 2M) read on the COO pattern of M, the pencil mass from M,
    # each scattered from COO triplets
    mesh = request.getfixturevalue(mesh_name)
    M = assemble_mass(mesh)
    entries = M.tocoo()
    S_minus_2M = assemble_stiffness(mesh) - 2.0 * M
    references = frame_block_reference(
        sphere_tangent_frames(mesh), entries,
        np.asarray(S_minus_2M[entries.row, entries.col]).ravel(), entries.data)
    form = energy_quadratic_matrix(mesh)
    for matrix, reference in zip((form.Q, form.M), references):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(matrix, part), getattr(reference, part)), part
