"""Mesh validation, geometry helpers, and OFF round-trip."""

import numpy as np
import pytest
import scipy.sparse as sp
from identity_reference import surface_gradient
from jittered import jitter_vertices

from spherevar.errors import MeshError, ParameterError
from spherevar.mesh import (
    contained_in_geodesic_s2,
    face_areas,
    face_corner_vectors,
    face_derivatives,
    face_gram,
    mesh_edges,
    mesh_size,
    read_off,
    sphere_tangent_frames,
    surface_tangent_frames,
    validate_mesh,
    write_off,
    SurfaceMesh,
)
from spherevar.catalog import build_equatorial_sphere, build_product_torus
from spherevar.mobius import (
    moebius_basis,
    moebius_gram,
    moebius_normal,
    moebius_normal_gram,
    moebius_tangential,
)
from spherevar.operators import (
    assemble_mass,
    assemble_stiffness,
    dissection_tree,
    face_centroids_on_sphere,
    integrate,
    vertex_weights,
)
from spherevar.secondvar import moebius_covariant_load, moebius_energy_gram

# every function whose value is held on the mesh (per_mesh)
HELD = [face_gram, face_areas, face_derivatives, mesh_edges, sphere_tangent_frames,
        surface_tangent_frames, vertex_weights, face_centroids_on_sphere,
        assemble_stiffness, assemble_mass, dissection_tree,
        moebius_basis, moebius_gram, moebius_tangential, moebius_normal,
        moebius_normal_gram, moebius_energy_gram, moebius_covariant_load]


def test_validate_catalog_meshes(sphere4, clifford64, torus_s4):
    for mesh in (sphere4, clifford64, torus_s4):
        assert validate_mesh(mesh)


def test_face_areas_positive(clifford64):
    assert np.all(face_areas(clifford64) > 0)


def test_total_area_oracles(sphere4, clifford64):
    # area oracles: 4*pi for the unit 2-sphere, 2*pi^2 for the square torus
    assert integrate(sphere4, 1.0) == pytest.approx(4 * np.pi, rel=0.01)
    assert integrate(clifford64, 1.0) == pytest.approx(2 * np.pi ** 2, rel=0.005)


def test_mesh_size_decreases_under_refinement(clifford16, clifford64):
    assert mesh_size(clifford64) < mesh_size(clifford16)


def test_validate_rejects_off_sphere_vertices():
    verts = np.array([[1.0, 0, 0, 0], [0, 1.1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(MeshError):
        validate_mesh(SurfaceMesh(n=3, vertices=verts, faces=faces))


def test_validate_rejects_open_mesh():
    verts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    faces = np.array([[0, 1, 2]])
    with pytest.raises(MeshError, match="boundary"):
        validate_mesh(SurfaceMesh(n=2, vertices=verts, faces=faces))


def _directed_edge_fault(faces):
    """Reference for validate_mesh's edge check, one directed edge at a time."""
    directed = set()
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            if (a, b) in directed:
                return "used twice"
            directed.add((a, b))
    if any((b, a) not in directed for a, b in directed):
        return "boundary edge"
    return None


def _four_faces_on_one_edge(f):
    a, b = f[0, :2]
    return np.vstack([f, [[a, b, 100], [b, a, 200]]])


# each message names the same edge as the sort-and-search check did before
# mesh_edges, which runs it only once a mesh fails
@pytest.mark.parametrize("edit, fault, message", [
    (lambda f: np.vstack([f[:5], f[5, ::-1], f[6:]]), "used twice",
     "directed edge (2, 3) used twice (non-orientable or non-manifold)"),
    (lambda f: np.vstack([f, f[7]]), "used twice",
     "directed edge (3, 20) used twice (non-orientable or non-manifold)"),
    (lambda f: np.delete(f, 3, axis=0), "boundary edge",
     "boundary edge (18, 1): mesh is not closed"),
    (_four_faces_on_one_edge, "used twice",
     "directed edge (0, 16) used twice (non-orientable or non-manifold)"),
], ids=["flipped-face", "duplicated-face", "missing-face", "four-faces-on-an-edge"])
def test_validate_rejects_bad_directed_edges(clifford16, edit, fault, message):
    faces = edit(np.asarray(clifford16.faces))
    assert _directed_edge_fault(faces.tolist()) == fault
    mesh = SurfaceMesh(n=3, vertices=clifford16.vertices, faces=faces)
    with pytest.raises(MeshError) as raised:
        validate_mesh(mesh)
    assert str(raised.value) == message
    with pytest.raises(MeshError) as raised:
        mesh_edges(mesh)
    assert str(raised.value) == message


def test_validate_names_a_vertex_no_face_uses(clifford16):
    # an unused vertex leaves a zero row in the mass matrix; an edge fault,
    # checked first, keeps its own message
    verts = np.vstack([clifford16.vertices, [[1.0, 0.0, 0.0, 0.0]]])
    with pytest.raises(MeshError, match=r"^vertex 256 is used by no face$"):
        validate_mesh(SurfaceMesh(n=3, vertices=verts, faces=clifford16.faces))
    with pytest.raises(MeshError, match="^boundary edge"):
        validate_mesh(SurfaceMesh(n=3, vertices=verts, faces=clifford16.faces[1:]))


def test_mesh_edges_names_an_edge_from_a_vertex_to_itself():
    # the directed edges of one face (0, 0, 1) pass the used-twice and
    # boundary checks, but do not pair up
    mesh = SurfaceMesh(n=2, vertices=np.eye(3), faces=[[0, 0, 1]])
    with pytest.raises(MeshError, match=r"^edge \(0, 0\) joins a vertex to itself$"):
        mesh_edges(mesh)


def _edges_by_loop(faces):
    """Reference for mesh_edges: the edges {a, b} of the faces, one face at a time."""
    edges = set()
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(a, b), max(a, b)))
    return np.array(sorted(edges), dtype=np.int64)


@pytest.mark.parametrize("build", [
    lambda: build_product_torus(16, n=3),
    lambda: build_equatorial_sphere(3, 3),
    lambda: build_product_torus(32, n=5),
], ids=["clifford16", "sphere3", "s5-torus32"])
def test_mesh_edges_match_loop_reference(build):
    mesh = build()
    edges = mesh_edges(mesh)
    assert edges.dtype == np.int32
    assert np.array_equal(edges, _edges_by_loop(mesh.faces.tolist()))
    # a closed triangulated surface has E = 3F / 2 edges
    assert 2 * len(edges) == 3 * mesh.num_faces


def test_geodesic_s2_flag(sphere4, clifford64, torus_s4):
    assert contained_in_geodesic_s2(sphere4)
    assert not contained_in_geodesic_s2(clifford64)
    assert not contained_in_geodesic_s2(torus_s4)


def test_sphere_tangent_frames_orthonormal(clifford64):
    frames = sphere_tangent_frames(clifford64)
    V, n, d = frames.shape
    assert (n, d) == (clifford64.n, clifford64.n + 1)
    gram = np.einsum("vkd,vld->vkl", frames, frames)
    assert np.allclose(gram, np.eye(n)[None], atol=1e-12)
    radial = np.einsum("vkd,vd->vk", frames, clifford64.vertices)
    assert np.max(np.abs(radial)) < 1e-12


def test_surface_frames_orthogonal_to_position(sphere4, clifford64):
    for mesh in (sphere4, clifford64):
        frames = surface_tangent_frames(mesh)
        radial = np.einsum("vkd,vd->vk", frames, mesh.vertices)
        assert np.max(np.abs(radial)) < 1e-12


def test_surface_frames_without_chart_close_to_analytic(clifford16):
    stripped = SurfaceMesh(n=3, vertices=clifford16.vertices.copy(),
                           faces=clifford16.faces.copy())
    analytic = surface_tangent_frames(clifford16)
    empirical = surface_tangent_frames(stripped)
    # compare the projectors, not the (gauge-dependent) frames themselves
    p1 = np.einsum("vki,vkj->vij", analytic, analytic)
    p2 = np.einsum("vki,vkj->vij", empirical, empirical)
    assert np.max(np.abs(p1 - p2)) < 0.05


def face_directions(mesh):
    """The in-plane directions (d_1, d_2) of every face, (F, 2, n+1), read
    from face_derivatives as the derivatives of the position."""
    return (face_derivatives(mesh) @ mesh.vertices).reshape(mesh.num_faces, 2, -1)


def face_gradient_edge_error(mesh, f):
    """Worst gap between g . (x_b - x_a) and f_b - f_a over the three edges
    of every face, g = sum_k (D f)_k d_k the face gradient of f."""
    derivatives = (face_derivatives(mesh) @ f).reshape(mesh.num_faces, 2)
    g = np.einsum("fk,fki->fi", derivatives, face_directions(mesh))
    x, tri = mesh.vertices, mesh.faces
    return max(float(np.max(np.abs(np.einsum("fd,fd->f", g, x[tri[:, b]] - x[tri[:, a]])
                                   - (f[tri[:, b]] - f[tri[:, a]]))))
               for a, b in ((0, 1), (1, 2), (2, 0)))


OPERATOR_MESHES = ["clifford64", "s5-torus32", "sphere4", "jittered"]


def operator_mesh(name, request):
    if name == "s5-torus32":
        return build_product_torus(32, n=5)
    if name == "jittered":   # no chart
        return jitter_vertices(request.getfixturevalue("sphere4"), 0.01, seed=3)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", OPERATOR_MESHES)
def test_face_directions_are_orthonormal_in_the_face_plane(name, request):
    mesh = operator_mesh(name, request)
    directions = face_directions(mesh)
    gram = np.einsum("fki,fli->fkl", directions, directions)
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-14
    # an orthonormal basis of span(u, w) per face, (F, n+1, 2)
    plane = np.linalg.qr(np.stack(face_corner_vectors(mesh), axis=2))[0]
    inside = np.einsum("fik,fjk,flj->fli", plane, plane, directions)
    assert np.max(np.abs(directions - inside)) <= 1e-14


@pytest.mark.parametrize("name", OPERATOR_MESHES)
def test_face_gradient_reproduces_edge_differences(name, request):
    mesh = operator_mesh(name, request)
    f = np.random.default_rng(5).standard_normal(mesh.num_vertices)
    assert face_gradient_edge_error(mesh, f) <= 1e-12


@pytest.mark.parametrize("name", OPERATOR_MESHES)
def test_face_derivatives_match_gram_inverse_gradient(name, request):
    mesh = operator_mesh(name, request)
    f = np.random.default_rng(6).standard_normal(mesh.num_vertices)
    derivatives = (face_derivatives(mesh) @ f).reshape(mesh.num_faces, 2)
    reference = np.einsum("fi,fki->fk", surface_gradient(mesh, f), face_directions(mesh))
    assert np.max(np.abs(derivatives - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_face_derivatives_reject_a_zero_area_face():
    verts = np.eye(4)[[0, 1, 2, 0]]   # vertex 3 sits on vertex 0
    faces = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(MeshError):
        face_derivatives(SurfaceMesh(n=3, vertices=verts, faces=faces))


@pytest.mark.parametrize("read", [validate_mesh, assemble_stiffness, assemble_mass],
                         ids=lambda read: read.__name__)
def test_zero_area_face_is_rejected_by_the_face_gram(read):
    # the one face check is face_gram's, and every per-face quantity reads it
    verts = np.eye(4)[[0, 1, 2, 0]]   # vertex 3 sits on vertex 0
    faces = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(MeshError, match=r"^degenerate \(zero-area\) triangle$"):
        read(SurfaceMesh(n=3, vertices=verts, faces=faces))


def test_off_round_trip_bit_exact(tmp_path, clifford16):
    path = tmp_path / "mesh.off"
    write_off(clifford16, path)
    back = read_off(path)
    assert back.n == clifford16.n
    assert np.array_equal(back.vertices, clifford16.vertices)
    assert np.array_equal(back.faces, clifford16.faces)
    # writing the round-tripped mesh reproduces the file byte for byte
    path2 = tmp_path / "mesh2.off"
    write_off(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_off_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 0 0 0\n")
    with pytest.raises(ParameterError):
        read_off(bad)


def test_jitter_moves_vertices_but_keeps_sphere(sphere2):
    jittered = jitter_vertices(sphere2, 0.05, seed=1)
    assert np.max(np.abs(np.linalg.norm(jittered.vertices, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(jittered.vertices - sphere2.vertices)) > 0.01


def test_mesh_arrays_and_held_geometry_are_read_only(clifford16):
    with pytest.raises(ValueError):
        clifford16.vertices[0, 0] = 0.0
    with pytest.raises(ValueError):
        clifford16.faces[0, 0] = 1
    with pytest.raises(ValueError):
        face_areas(clifford16)[0] = 1.0
    with pytest.raises(AttributeError):
        clifford16.vertices = clifford16.vertices.copy()
    with pytest.raises(AttributeError):
        clifford16.chart.normsq_A = None
    with pytest.raises(ValueError):
        clifford16.chart.tangent_frames[0, 0, 0] = 0.0
    assert face_areas(clifford16) is face_areas(clifford16)
    assert vertex_weights(clifford16) is vertex_weights(clifford16)
    # a held value is computed once per mesh and never shared with another mesh
    jittered = jitter_vertices(clifford16, 0.01, seed=2)
    for held in HELD:
        value = held(clifford16)
        assert held(clifford16) is value, held.__name__
        assert held(jittered) is not value, held.__name__
        for part in value if isinstance(value, tuple) else (value,):
            arrays = (part.data, part.indices, part.indptr) if sp.issparse(part) else (part,)
            assert not any(a.flags.writeable for a in arrays), held.__name__


def test_mesh_copies_its_input_arrays():
    verts = np.eye(4)[[0, 1, 2, 3]]
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = SurfaceMesh(n=3, vertices=verts, faces=faces)
    verts[0, 0] = 5.0   # the caller's array stays writable and the mesh keeps its own
    assert mesh.vertices[0, 0] == 1.0
