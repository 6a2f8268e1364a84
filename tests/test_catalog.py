"""Catalog builders: parameters, exact structure, minimality residuals."""

import numpy as np
import pytest
from covered_torus import covered_clifford_torus
from jittered import jitter_vertices

from spherevar.catalog import (
    CATALOG,
    _icosahedron,
    _subdivide,
    build_by_name,
    build_clifford_torus,
    build_equatorial_sphere,
    build_product_torus,
    grid_faces,
    minimality_residual,
)
from spherevar.errors import ParameterError, UnsupportedSurfaceError
from spherevar.mesh import contained_in_geodesic_s2
from spherevar.operators import (
    first_nonzero_cluster,
    integrate,
    laplace_pencil,
    solve_smallest_eigenpairs,
)
from spherevar.secondvar import area_jacobi_matrix, energy_quadratic_matrix, negative_index_count


def test_sphere_parameter_errors():
    with pytest.raises(ParameterError):
        build_equatorial_sphere(1, 2)
    with pytest.raises(ParameterError):
        build_equatorial_sphere(3, -1)


def test_torus_parameter_errors():
    with pytest.raises(ParameterError):
        build_clifford_torus(4)   # grid too coarse
    with pytest.raises(ParameterError):
        build_product_torus(16, n=2)


@pytest.mark.parametrize("name, allowed, other", [
    ("clifford-torus", [3], "product-torus"),
    ("product-torus", [4, 5], "clifford-torus"),
])
def test_catalog_name_fixes_its_dimension(name, allowed, other):
    # each entry's listed data hold for its own n only; any other n names the
    # entry that covers it
    for n in allowed:
        assert build_by_name(name, n=n, res=8).n == n
    for n in sorted({2, 3, 4, 5} - set(allowed)):
        with pytest.raises(ParameterError, match=other):
            build_by_name(name, n=n, res=8)


def test_unknown_catalog_name():
    with pytest.raises(UnsupportedSurfaceError):
        build_by_name("moebius-strip")


def test_sphere_vertex_counts():
    # icosphere: V = 10 * 4^res + 2, F = 20 * 4^res
    for res in (0, 1, 2):
        mesh = build_equatorial_sphere(3, res)
        assert mesh.num_vertices == 10 * 4 ** res + 2
        assert mesh.num_faces == 20 * 4 ** res


def test_clifford_structure(clifford16):
    x = clifford16.vertices
    assert np.allclose(x[:, 0] ** 2 + x[:, 1] ** 2, 0.5, atol=1e-12)
    assert np.allclose(x[:, 2] ** 2 + x[:, 3] ** 2, 0.5, atol=1e-12)
    assert clifford16.genus == 1
    assert clifford16.chart.normsq_A == 2.0


def test_product_torus_zero_padding(torus_s4):
    assert torus_s4.n == 4
    assert np.all(torus_s4.vertices[:, 4] == 0.0)
    assert torus_s4.chart.normsq_A is None


def test_product_torus_n3_matches_clifford(clifford16):
    other = build_product_torus(16, n=3)
    assert np.array_equal(other.vertices, clifford16.vertices)
    assert np.array_equal(other.faces, clifford16.faces)


def test_area_convergence_rate():
    # sphere area error shrinks ~4x per subdivision (second-order)
    areas = [integrate(build_equatorial_sphere(3, r), 1.0) for r in (2, 3, 4)]
    errs = [abs(a - 4 * np.pi) for a in areas]
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_minimality_residual_catalog(sphere4, clifford64):
    assert minimality_residual(sphere4) <= 0.05
    assert minimality_residual(clifford64) <= 0.05


def test_minimality_residual_flags_non_minimal(sphere2):
    jittered = jitter_vertices(sphere2, 0.05, seed=1)
    assert minimality_residual(jittered) > 0.5


def _subdivide_by_loop(verts, faces):
    """Reference for catalog._subdivide, one edge midpoint at a time."""
    verts = list(verts)
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.array(verts), np.array(out, dtype=np.int64)


def _grid_faces_by_loop(rows, cols):
    """Reference for catalog.grid_faces, one grid quad at a time."""
    def vid(i, j):
        return (i % rows) * cols + (j % cols)

    faces = []
    for i in range(rows):
        for j in range(cols):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append([v00, v10, v11])
            faces.append([v00, v11, v01])
    return np.array(faces, dtype=np.int64)


def test_subdivision_matches_loop_reference():
    verts, faces = _icosahedron()
    ref_verts, ref_faces = verts, faces
    for level in range(1, 6):
        verts, faces = _subdivide(verts, faces)
        ref_verts, ref_faces = _subdivide_by_loop(ref_verts, ref_faces)
        assert np.array_equal(faces, ref_faces), level
        # within one ulp
        assert np.all(np.abs(verts - ref_verts) <= np.spacing(np.abs(ref_verts))), level


@pytest.mark.parametrize("rows, cols", [(8, 8), (9, 9), (16, 16), (32, 8), (36, 9), (8, 13)],
                         ids=["8", "9", "16", "32x8", "36x9", "8x13"])
def test_torus_faces_match_loop_reference(rows, cols):
    assert np.array_equal(grid_faces(rows, cols), _grid_faces_by_loop(rows, cols))


def _torus_by_vertex_angles(res, n):
    """Reference for the torus vertices and chart: cos and sin of each vertex's angles.

    Returns the vertices and the tangent frames.
    """
    idx = np.arange(res)
    a = 2.0 * np.pi * idx / res
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    aa = a[ii.ravel()]
    bb = a[jj.ravel()]
    verts = np.zeros((res * res, n + 1))
    verts[:, 0] = np.cos(aa)
    verts[:, 1] = np.sin(aa)
    verts[:, 2] = np.cos(bb)
    verts[:, 3] = np.sin(bb)
    verts /= np.sqrt(2.0)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    frames = np.zeros((res * res, 2, n + 1))
    frames[:, 0, 0] = -np.sin(aa)
    frames[:, 0, 1] = np.cos(aa)
    frames[:, 1, 2] = -np.sin(bb)
    frames[:, 1, 3] = np.cos(bb)
    return verts, frames


@pytest.mark.parametrize("res", [8, 64])
@pytest.mark.parametrize("n", [3, 5])
def test_torus_vertices_and_chart_match_vertex_angle_reference(res, n):
    mesh = build_product_torus(res, n=n)
    verts, frames = _torus_by_vertex_angles(res, n)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.chart.tangent_frames, frames)


@pytest.mark.parametrize("r", [8, 9, 32])
def test_covered_torus_vertices_match_vertex_angle_reference(r):
    # a = 2 pi i / r runs on to 8 pi over the 4r rows of the cover, which is
    # not renormalized: each vertex is (cos a, sin a, cos b, sin b)/sqrt(2)
    mesh = covered_clifford_torus(r)
    i, j = np.divmod(np.arange(4 * r * r), r)
    a, b = 2.0 * np.pi * i / r, 2.0 * np.pi * j / r
    verts = np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)], axis=1) / np.sqrt(2.0)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.faces, _grid_faces_by_loop(4 * r, r))


def test_catalog_entries_buildable():
    # every datum `spherevar catalog` lists holds on the entry's own mesh
    for name, entry in CATALOG.items():
        mesh = build_by_name(name, res=32 if "torus" in name else 3)
        assert abs(integrate(mesh, 1.0) / entry.area - 1.0) <= 0.005, name
        spectrum = solve_smallest_eigenpairs(laplace_pencil(mesh), k=10)
        first = first_nonzero_cluster(spectrum.values)
        assert len(first) == entry.lambda1_multiplicity, name
        assert abs(np.mean(spectrum.values[first]) / entry.lambda1 - 1.0) <= 0.01, name
        assert mesh.chart.normsq_A == entry.normsq_A, name
        assert contained_in_geodesic_s2(mesh) == entry.in_geodesic_s2, name
        for expected, form in ((entry.expected_index_area, area_jacobi_matrix),
                               (entry.expected_index_energy, energy_quadratic_matrix)):
            if expected is not None:
                assert negative_index_count(form(mesh)).count == expected, name
