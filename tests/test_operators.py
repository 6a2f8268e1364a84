"""Discrete operators: stiffness, mass, quadrature, gradients, eigensolver."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from identity_reference import (
    cotangent_stiffness_reference,
    p1_gram_reference,
    shifted_in_order_reference,
)
from jittered import jitter_vertices
from test_mesh import face_gradient_edge_error

from spherevar import operators
from spherevar.catalog import build_clifford_torus, build_equatorial_sphere, build_product_torus
from spherevar.errors import ContractError, ParameterError, SolverError
from spherevar.mesh import (
    face_areas,
    face_derivatives,
    mesh_edges,
    read_off,
    write_off,
)
from spherevar.operators import (
    CLUSTER_REL_TOL,
    Pencil,
    Spectrum,
    _contribution_offsets,
    _factor_shifted,
    _shifted_in_elimination_order,
    assemble_mass,
    assemble_stiffness,
    count_eigenvalues_below,
    dissection_tree,
    eigen_clusters,
    first_nonzero_cluster,
    integrate,
    laplace_pencil,
    nested_dissection,
    solve_smallest_eigenpairs,
    vertex_weights,
    write_spectrum_csv,
)
from spherevar.secondvar import (
    area_jacobi_matrix,
    energy_quadratic_matrix,
    negative_index_count,
)


def test_stiffness_kernel_and_psd(clifford64, rng):
    S = assemble_stiffness(clifford64)
    ones = np.ones(clifford64.num_vertices)
    assert np.max(np.abs(S @ ones)) < 1e-10
    for _ in range(5):
        f = rng.standard_normal(clifford64.num_vertices)
        assert f @ (S @ f) >= -1e-10 * (f @ f)


def test_mass_modes_agree_on_total(clifford64):
    Mc = assemble_mass(clifford64)
    Ml = sp.diags(vertex_weights(clifford64))
    ones = np.ones(clifford64.num_vertices)
    assert ones @ (Mc @ ones) == pytest.approx(ones @ (Ml @ ones), rel=1e-12)
    assert ones @ (Mc @ ones) == pytest.approx(2 * np.pi ** 2, rel=0.005)


def test_integrate_variants(sphere4, clifford64):
    # constants integrate to the area, per-face densities likewise
    area = integrate(clifford64, 1.0)
    assert integrate(clifford64, 1.0) == pytest.approx(area, rel=1e-12)
    assert integrate(clifford64, np.ones(clifford64.num_vertices)) == pytest.approx(area)
    assert integrate(clifford64, np.ones(clifford64.num_faces)) == pytest.approx(area)
    assert integrate(sphere4, 1.0) == pytest.approx(4 * np.pi, rel=0.01)


def test_integrate_symmetry_oracles(clifford64):
    x1 = clifford64.vertices[:, 0]
    assert abs(integrate(clifford64, x1)) < 1e-10
    area = integrate(clifford64, 1.0)
    assert integrate(clifford64, x1 * x1) == pytest.approx(area / 4, rel=0.01)


def test_integrate_shape_error(clifford16):
    with pytest.raises(ContractError):
        integrate(clifford16, np.ones(7))


def test_vertex_weights_sum_to_area(sphere4):
    assert vertex_weights(sphere4).sum() == pytest.approx(integrate(sphere4, 1.0), rel=1e-12)


def test_gradient_exact_on_linear_functions(clifford16):
    # the face gradient from the P1 face derivatives reproduces a linear
    # ambient function along every face edge
    v = np.array([0.3, -1.2, 0.7, 0.4])
    assert face_gradient_edge_error(clifford16, clifford16.vertices @ v) < 1e-12


def test_rayleigh_quotient_of_coordinate(clifford64):
    f = np.sqrt(2.0) * clifford64.vertices[:, 0]
    S, M = assemble_stiffness(clifford64), assemble_mass(clifford64)
    q = (f @ (S @ f)) / (f @ (M @ f))
    assert q == pytest.approx(2.0, rel=0.01)


def test_eigensolver_clifford_spectrum(clifford64_spectrum):
    lams = clifford64_spectrum.values
    assert lams[0] == pytest.approx(0.0, abs=1e-8)
    for lam in lams[1:5]:
        assert lam == pytest.approx(2.0, rel=0.01)
    assert lams[5] == pytest.approx(4.0, rel=0.02)
    assert np.all(clifford64_spectrum.residuals <= 1e-8)


def test_eigensolver_sphere_spectrum(sphere4_spectrum):
    lams = sphere4_spectrum.values
    for lam in lams[1:4]:
        assert lam == pytest.approx(2.0, rel=0.01)
    # next spherical-harmonic level k(k+1) = 6
    for lam in lams[4:9]:
        assert lam == pytest.approx(6.0, rel=0.01)


def test_eigensolver_deterministic(clifford16):
    pencil = laplace_pencil(clifford16)
    a = solve_smallest_eigenpairs(pencil, k=5, seed=3)
    b = solve_smallest_eigenpairs(pencil, k=5, seed=3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.fields, b.fields)


def test_eigensolver_k_range(clifford16):
    with pytest.raises(ParameterError):
        solve_smallest_eigenpairs(laplace_pencil(clifford16), k=0)


@pytest.mark.parametrize("name", ["clifford64", "sphere4"])
def test_eigenfields_are_mass_orthonormal_with_positive_peaks(request, name):
    mesh = request.getfixturevalue(name)
    fields = request.getfixturevalue(name + "_spectrum").fields
    k = fields.shape[1]
    gram = fields.T @ (assemble_mass(mesh) @ fields)
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
    assert np.all(fields[np.argmax(np.abs(fields), axis=0), np.arange(k)] > 0.0)


def test_eigen_clusters(clifford64_spectrum):
    clusters = eigen_clusters(clifford64_spectrum.values)
    assert len(clusters[0]) == 1          # zero mode
    assert len(clusters[1]) == 4          # lambda = 2 level


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigensolver_returns_whole_clusters(sphere4, seed):
    # 0 | 2 (x3) | 6 (x5) | 12: eigsh at a loose tol (1e-10) returns 12 twice
    # in place of one copy of 6, with every residual under 1e-8
    spectrum = solve_smallest_eigenpairs(laplace_pencil(sphere4), k=10, seed=seed)
    assert [len(c) for c in eigen_clusters(spectrum.values)] == [1, 3, 5, 1]


def _record_eigsh_calls(monkeypatch, **fixed):
    """Run every eigsh with the keywords ``fixed``, recording the k of each call."""
    calls, original = [], spla.eigsh

    def eigsh(*args, **kwargs):
        calls.append(kwargs["k"])
        return original(*args, **fixed, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    return calls


def eigsh_at_one_iteration(monkeypatch):
    """Run every eigsh with maxiter=1, too few iterations for ARPACK to converge."""
    original = spla.eigsh
    monkeypatch.setattr(spla, "eigsh",
                        lambda *args, **kwargs: original(*args, **{**kwargs, "maxiter": 1}))


@pytest.mark.parametrize("solve, shift, partial", [
    (lambda mesh: negative_index_count(energy_quadratic_matrix(mesh)), "0.1",
     "no pair converged"),
    (lambda mesh: solve_smallest_eigenpairs(laplace_pencil(mesh), k=6), "-0.1",
     r"worst relative residual \d\.\d{3}e-\d+ of \d converged pairs"),
], ids=["index-count", "laplace-solve"])
def test_arpack_failure_is_a_solver_error_naming_the_shift(solve, shift, partial, monkeypatch):
    # at one iteration none of the four energy pairs converges, and some of
    # the six Laplace pairs do; the message gives their worst residual
    eigsh_at_one_iteration(monkeypatch)
    with pytest.raises(SolverError, match=f"eigensolver at shift {shift} failed: "
                                          rf"ARPACK error -1: No convergence .*\); {partial}$"):
        solve(build_clifford_torus(8))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigensolver_recovers_a_missed_eigenvalue(sphere4, monkeypatch, seed):
    # at tol 1e-10 eigsh returns 12 twice in place of one copy of 6, every
    # residual under 1e-8; the count below the gap before the last cluster
    # finds the 6 it missed, and one search with the ten pairs deflated
    # returns it
    calls = _record_eigsh_calls(monkeypatch, tol=1e-10)
    spectrum = solve_smallest_eigenpairs(laplace_pencil(sphere4), k=10, seed=seed)
    assert [len(c) for c in eigen_clusters(spectrum.values)] == [1, 3, 5, 1]
    assert calls == [10, 1]
    assert np.all(spectrum.residuals <= 1e-8)
    gram = spectrum.fields.T @ (assemble_mass(sphere4) @ spectrum.fields)
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-12


def test_eigensolver_recovers_an_unconverged_pair(clifford16, monkeypatch):
    # 0 | 2.05 (x4) | 4.10 (x2) | 4.32 (x2): at tol 1e-6 eigsh returns 0,
    # two copies of 2.05, a 4.10 and a 4.32, one of the 2.05s at residual
    # 7.6e-7; a search for one pair replaces it, the count below the gap
    # before 4.32 then finds three values more than were returned (two
    # 2.05s and a 4.10), and a search for three returns them
    calls = _record_eigsh_calls(monkeypatch, tol=1e-6)
    spectrum = solve_smallest_eigenpairs(laplace_pencil(clifford16), k=5)
    assert calls == [5, 1, 3]
    assert [len(c) for c in eigen_clusters(spectrum.values)] == [1, 4]
    assert np.all(spectrum.residuals <= 1e-8)


def test_eigensolver_raises_when_a_retry_finds_nothing(clifford16, monkeypatch):
    # 0 | 2 (x4) | 4 (x4): an inertia count that reports one eigenvalue
    # more below the gap than there is; the deflated search can only return
    # a 4, above the last cluster, which adds nothing to the k lowest, so
    # the solve stops after one retry
    calls = _record_eigsh_calls(monkeypatch)
    monkeypatch.setattr(operators, "count_eigenvalues_below",
                        lambda *args: count_eigenvalues_below(*args) + 1)
    with pytest.raises(SolverError, match="2 eigenvalues lie below 1.026.*, Lanczos returned 1"):
        solve_smallest_eigenpairs(laplace_pencil(clifford16), k=5)
    assert calls == [5, 1]


def _eigen_clusters_loop(values):
    """The chained clustering rule one value at a time, the reference for
    eigen_clusters: a value joins the run before it when it is within
    CLUSTER_REL_TOL * max(|value|, 1) of its predecessor."""
    clusters = []
    for k, lam in enumerate(values):
        scale = max(abs(lam), 1.0)
        if clusters and abs(lam - values[clusters[-1][-1]]) <= CLUSTER_REL_TOL * scale:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


@pytest.mark.parametrize("values, expected, first", [
    ([0.0, 1.0, 1.0009, 1.0018, 1.5], [[0], [1, 2, 3], [4]], [1, 2, 3]),   # a chain
    ([5.0, 5.004, 5.006], [[0, 1, 2]], None),   # the last run, which k may cut
    ([5.0, 5.006], [[0], [1]], [0]),
    ([0.0, 0.0009], [[0, 1]], None),   # gaps below 1 are held to CLUSTER_REL_TOL
    ([], [], None),
], ids=["chain", "joined", "split", "scale-floor", "empty"])
def test_eigen_clusters_on_crafted_values(values, expected, first):
    assert _eigen_clusters_loop(values) == expected
    assert [run.tolist() for run in eigen_clusters(values)] == expected
    found = first_nonzero_cluster(np.array(values))
    assert (None if found is None else found.tolist()) == first


def test_spectrum_csv_format(tmp_path):
    spectrum = Spectrum(values=np.array([0.0, 2.0123456789012345]), fields=np.zeros((1, 2)),
                        residuals=np.array([1e-15, 2e-12]))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spectrum, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,lambda,residual"
    assert lines[2].startswith("1,2.0123456789012")
    assert float(lines[2].split(",")[1]) == spectrum.values[1]


@pytest.mark.parametrize("build", [
    lambda: build_clifford_torus(16),
    lambda: build_equatorial_sphere(3, 4),
    lambda: build_product_torus(16, n=5),
], ids=["clifford-torus", "equatorial-sphere", "torus-in-s5"])
def test_dissection_order_is_a_repeatable_permutation(build):
    mesh = build()
    order = dissection_tree(mesh).order
    assert np.array_equal(np.sort(order), np.arange(mesh.num_vertices))
    assert np.array_equal(order, dissection_tree(build()).order)


def test_shift_invert_operator_solves_the_shifted_system(clifford16, rng):
    pencil = laplace_pencil(clifford16)
    S, M = pencil.Q, pencil.M
    b = rng.standard_normal(clifford16.num_vertices)
    # below the spectrum, and between the clusters 2 (x4) and 4 (x4)
    for shift, below in ((-0.1, 0), (3.0, 5)):
        lu, perm = _factor_shifted(pencil, shift)
        assert count_eigenvalues_below(pencil, shift) == below
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        assert np.linalg.norm((S - shift * M) @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_eigensolver_rejects_shift_inside_spectrum(clifford16):
    # S - M has the eigenvalue -1, below the Laplace shift -0.1
    S = assemble_stiffness(clifford16)
    M = assemble_mass(clifford16)
    with pytest.raises(SolverError, match="not below the spectrum"):
        solve_smallest_eigenpairs(Pencil(S - M, M, "laplace", dissection_tree(clifford16)), k=5)


def test_inertia_count_matches_dense_spectrum(clifford16):
    pencil = laplace_pencil(clifford16)
    lams = scipy.linalg.eigh(pencil.Q.toarray(), pencil.M.toarray(), eigvals_only=True)
    # shifts between the clusters 0 | 2 (x4) | 4 (x4) | 8 (x4)
    for shift, expected in ((-0.1, 0), (1.0, 1), (3.0, 5), (6.0, 9)):
        assert count_eigenvalues_below(pencil, shift) == expected
        assert int(np.sum(lams < shift)) == expected


@pytest.mark.parametrize("build", [
    lambda: build_clifford_torus(32),
    lambda: build_equatorial_sphere(3, 3),
    lambda: build_product_torus(24, n=5),
], ids=["clifford-torus", "equatorial-sphere", "torus-in-s5"])
def test_dissection_tree_matches_graph_reference(build):
    mesh = build()
    tree = dissection_tree(mesh)
    V = mesh.num_vertices
    assert tree is dissection_tree(mesh)
    # the pivots of the nodes are consecutive runs that cover every position
    assert tree.start[0] == 0 and tree.stop[-1] == V
    assert np.array_equal(tree.start[1:], tree.stop[:-1])
    assert np.all(tree.stop > tree.start)
    node = np.repeat(np.arange(tree.start.size), tree.stop - tree.start)
    position = np.empty(V, dtype=int)
    position[tree.order] = np.arange(V)
    neighbours = [set() for _ in range(V)]
    for a, b in mesh_edges(mesh):
        neighbours[position[a]].add(position[b])
        neighbours[position[b]].add(position[a])
    first = tree.start.copy()   # a subtree is its node and its children's subtrees
    for s in range(tree.start.size):
        assert tree.parent[s] == -1 or tree.parent[s] > s   # post-order
        if tree.parent[s] >= 0:
            first[tree.parent[s]] = min(first[tree.parent[s]], first[s])
    assert np.array_equal(tree.first, first)
    for s in range(tree.start.size):
        subtree = range(first[s], tree.stop[s])
        # no edge leaves a subtree except to later positions
        assert all(q >= first[s] for p in subtree for q in neighbours[p]), s
        expected = sorted({q for p in subtree for q in neighbours[p] if q >= tree.stop[s]})
        update = tree.update[tree.update_ptr[s]:tree.update_ptr[s + 1]]
        assert update.tolist() == expected, s
        # the update lies in the pivots and the update of the parent
        t = tree.parent[s]
        if update.size:
            assert t >= 0
            above = set(range(tree.start[t], tree.stop[t]))
            above |= set(tree.update[tree.update_ptr[t]:tree.update_ptr[t + 1]].tolist())
            assert set(update.tolist()) <= above, s
            assert set(node[update]) <= _ancestors(tree, s), s


def _ancestors(tree, s):
    found, t = set(), tree.parent[s]
    while t >= 0:
        found.add(t)
        t = tree.parent[t]
    return found


def _on_their_union(Q, M):
    """Q and M on the union of their patterns, each zero where it has no entry."""
    union = (abs(Q) + abs(M)).tocsr()   # no two entries cancel
    rows = np.repeat(np.arange(union.shape[0]), np.diff(union.indptr))
    return [sp.csr_matrix((np.asarray(A[rows, union.indices]).ravel(), union.indices,
                           union.indptr), shape=union.shape) for A in (Q, M)]


def test_front_count_with_two_by_two_pivots(clifford16, rng):
    # random weights on the mesh edges and a zero diagonal: no front is
    # definite, and Bunch-Kaufman needs 2x2 pivots at the first shift
    a, b = mesh_edges(clifford16).T
    V = clifford16.num_vertices
    W = sp.coo_matrix((rng.standard_normal(a.size), (a, b)), shape=(V, V))
    Q = (W + W.T).tocsr()
    pencil = Pencil(*_on_their_union(Q, sp.identity(V, format="csr")), "test",
                    dissection_tree(clifford16))
    mus = np.linalg.eigvalsh(Q.toarray())
    for shift in (0.0, -1.5, 0.7, 2.0, -3.0):
        assert np.min(np.abs(mus - shift)) > 1e-6
        assert count_eigenvalues_below(pencil, shift) == int(np.sum(mus < shift))


def test_front_count_rejects_an_entry_off_the_mesh_graph(clifford16):
    S = assemble_stiffness(clifford16)
    V = clifford16.num_vertices
    far = sp.coo_matrix(([1.0, 1.0], ([0, V // 2], [V // 2, 0])), shape=(V, V))
    pencil = Pencil(*_on_their_union(S + far, assemble_mass(clifford16)), "test",
                    dissection_tree(clifford16))
    with pytest.raises(ContractError, match="no mesh edge"):
        count_eigenvalues_below(pencil, -0.1)


def test_pencil_takes_one_pattern_and_a_whole_number_of_dof_blocks(clifford16):
    S, M = assemble_stiffness(clifford16), assemble_mass(clifford16)
    tree = dissection_tree(clifford16)
    V = clifford16.num_vertices
    assert Pencil(S, M, "laplace", tree).block == 1
    assert Pencil(*(sp.block_diag([A] * 3, format="csr") for A in (S, M)), "energy",
                  tree).block == 3
    # not canonical CSR on one pattern: another pattern, COO, one unsorted pattern
    far = sp.coo_matrix(([1.0, 1.0], ([0, V // 2], [V // 2, 0])), shape=(V, V))
    unsorted = [A.copy() for A in (S, M)]
    for A in unsorted:
        A.indices[:2] = A.indices[1::-1]
        A.has_sorted_indices = False
    patterns = [((S + far).tocsr(), M), (S, (M + far).tocsr()), (S.tocoo(), M), unsorted]
    # one pattern, but V + 1 rows, no rows, or not square
    padded = [sp.block_diag([A, sp.identity(1)], format="csr") for A in (S, M)]
    assert np.array_equal(padded[0].indices, padded[1].indices)
    empty = [sp.csr_matrix((0, 0))] * 2
    wide = [sp.hstack([A, A], format="csr") for A in (S, M)]
    for Q, MQ in patterns + [padded, empty, wide]:
        with pytest.raises(ContractError, match="laplace pencil"):
            Pencil(Q, MQ, "laplace", tree)


@pytest.mark.parametrize("mesh_name", ["clifford64", "sphere4"])
def test_contribution_stack_keeps_pending_complements_apart(mesh_name, request):
    # every node a front: each complement's slot lies in the stack and
    # overlaps no complement still waiting for its parent
    tree = dissection_tree(request.getfixturevalue(mesh_name))
    nodes = np.arange(tree.start.size)
    sizes = np.diff(tree.update_ptr) ** 2
    offsets, length = _contribution_offsets(nodes, tree.parent, sizes)
    pending, top = [], 0
    for s in nodes:
        while pending and pending[-1][0] == s:
            pending.pop()
        lo, hi = offsets[s], offsets[s] + sizes[s]
        assert all(hi <= a or b <= lo for _, a, b in pending), s
        if sizes[s]:
            pending.append((tree.parent[s], lo, hi))
            top = max(top, hi)
    assert length == top


def _named_mesh(name, request, tmp_path):
    """A shared mesh fixture, the S^5 torus at res 32, or the jittered sphere read
    back from an OFF file (no chart)."""
    if name == "s5-torus32":
        return build_product_torus(32, n=5)
    if name == "jittered-off-sphere":
        path = tmp_path / "jittered.off"
        write_off(jitter_vertices(request.getfixturevalue("sphere4"), 0.01, seed=3), path)
        return read_off(path)
    return request.getfixturevalue(name)


P1_MESHES = ["clifford64", "sphere4", "s5-torus32", "jittered-off-sphere"]


@pytest.mark.parametrize("name", P1_MESHES)
def test_p1_matrices_share_one_pattern(name, request, tmp_path):
    mesh = _named_mesh(name, request, tmp_path)
    matrices = [assemble_stiffness(mesh), assemble_mass(mesh)]
    if mesh.chart is not None and mesh.n == 3:
        matrices.append(area_jacobi_matrix(mesh).Q)
    M = matrices[1]
    for A in matrices:
        assert A.has_canonical_format
        assert np.array_equal(A.indptr, M.indptr) and np.array_equal(A.indices, M.indices)
    # the pattern is the vertex pairs that share a face, the diagonal and the edges
    assert M.nnz == mesh.num_vertices + 2 * len(mesh_edges(mesh))
    # the energy pencil holds its congruence, S - 2M and M on the one P1
    # pattern; the DOF-level Q and M formed from it have one pattern too
    energy = energy_quadratic_matrix(mesh)
    assert energy.vertex_M is M
    assert (np.shares_memory(energy.vertex_Q.indices, M.indices)
            and np.shares_memory(energy.vertex_Q.indptr, M.indptr))
    Q, MQ = energy.Q, energy.M
    assert np.array_equal(Q.indices, MQ.indices) and np.array_equal(Q.indptr, MQ.indptr)
    assert Q.has_canonical_format and MQ.has_canonical_format


@pytest.mark.parametrize("name", P1_MESHES)
def test_p1_matrices_match_the_references(name, request, tmp_path):
    mesh = _named_mesh(name, request, tmp_path)
    M, reference = assemble_mass(mesh), p1_gram_reference(mesh, face_areas(mesh))
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(M, part), getattr(reference, part)), part
    S = assemble_stiffness(mesh)
    D = face_derivatives(mesh)
    scale = 1e-14 * np.max(np.abs(S.data))
    assert abs(S - cotangent_stiffness_reference(mesh)).max() <= scale
    assert abs(S - D.T @ sp.diags(np.repeat(face_areas(mesh), 2)) @ D).max() <= scale


PENCILS = {"energy": energy_quadratic_matrix, "area": area_jacobi_matrix,
           "laplace": laplace_pencil}


@pytest.mark.parametrize("mesh_name, kind", [
    ("clifford64", "energy"), ("s5-torus32", "energy"), ("clifford64", "area"),
    ("sphere4", "area"), ("clifford64", "laplace"), ("jittered-off-sphere", "energy"),
], ids=["clifford64-energy", "s5-torus32-energy", "clifford64-area", "sphere4-area",
        "clifford64-laplace", "jittered-off-sphere-energy"])
def test_elimination_order_matches_coo_route(mesh_name, kind, request, tmp_path):
    # the CSC of SuperLU equals, entry for entry, the matrix built from the
    # permuted COO triplet of A - sigma M
    pencil = PENCILS[kind](_named_mesh(mesh_name, request, tmp_path))
    A, M, order = pencil.Q, pencil.M, pencil.tree.order
    # every pencil is on the one P1 pattern (the Laplace one keeps S's zeros)
    assert A.nnz == M.nnz
    block = A.shape[0] // order.size
    for sigma in (0.1, -0.1):
        reference = shifted_in_order_reference(A, M, sigma, order)
        matrix, perm = _shifted_in_elimination_order(pencil, sigma)
        assert matrix.format == reference.format == "csc"
        assert np.array_equal(perm, (order[:, None] * block + np.arange(block)).ravel())
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(matrix, part), getattr(reference, part)), part


def test_nested_dissection_of_a_graph_without_edges():
    tree = nested_dissection(np.arange(40.0)[:, None], np.empty((0, 2), dtype=int))
    assert np.array_equal(np.sort(tree.order), np.arange(40))
    assert np.all(tree.parent == -1) and tree.update.size == 0
    Q = sp.diags(np.linspace(-2.0, 2.0, 40) + 0.01).tocsr()
    pencil = Pencil(Q, sp.identity(40, format="csr"), "test", tree)
    assert count_eigenvalues_below(pencil, 0.0) == 20
