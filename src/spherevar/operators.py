"""P1 finite-element operators on a SurfaceMesh.

Cotangent stiffness, consistent mass, barycentric quadrature weights,
per-face gradients of linear interpolants, quadrature, lumped L2 products
of vector fields, the low end of the Laplace-Beltrami eigenproblem
S f = lambda M f, and the symmetric sparse factorizations behind every
shift-invert eigensolve and inertia count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ContractError, MeshError, SolverError
from .mesh import edge_lengths, face_areas, face_corner_vectors, face_gram, mesh_edges, per_mesh

DEFAULT_EIG_TOL = 1e-8
CLUSTER_REL_TOL = 1e-3
DISSECTION_LEAF_SIZE = 16   # parts this small keep their vertex-index order


@per_mesh
def assemble_stiffness(mesh):
    """Cotangent-weight stiffness matrix (PSD, constants in the kernel), held.

    Built intrinsically from edge lengths, so it works in any ambient
    dimension.
    """
    l0, l1, l2 = edge_lengths(mesh)
    areas = face_areas(mesh)
    if np.any(areas <= 0.0):
        raise MeshError("zero-area triangle in stiffness assembly")
    # cot(angle at corner k) = (sum of adjacent squared lengths - opposite^2) / (4 area)
    sq0, sq1, sq2 = l0 * l0, l1 * l1, l2 * l2
    cot0 = (sq1 + sq2 - sq0) / (4.0 * areas)
    cot1 = (sq2 + sq0 - sq1) / (4.0 * areas)
    cot2 = (sq0 + sq1 - sq2) / (4.0 * areas)
    f = mesh.faces
    V = mesh.num_vertices
    # half-cotangent weight on the edge opposite each corner
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0], f[:, 2], f[:, 0], f[:, 1]])
    cols = np.concatenate([f[:, 2], f[:, 1], f[:, 2], f[:, 0], f[:, 1], f[:, 0]])
    w = np.concatenate([cot0, cot0, cot1, cot1, cot2, cot2]) * 0.5
    off = sp.coo_matrix((-w, (rows, cols)), shape=(V, V)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sp.diags(diag)).tocsr()


@per_mesh
def assemble_mass(mesh):
    """Consistent mass matrix (the P1 Gram matrix), held.

    The lumped (barycentric) mass is its row sums, diags(vertex_weights).
    """
    areas = face_areas(mesh)
    if np.any(areas <= 0.0):
        raise MeshError("zero-area triangle in mass assembly")
    return _p1_gram(mesh, areas)


def _p1_gram(mesh, areas):
    """Gram matrix of the P1 hat functions, each face counted with its
    entry of ``areas``: area / 6 on the diagonal, area / 12 off it."""
    f = mesh.faces
    V = mesh.num_vertices
    rows = np.concatenate([f[:, 0], f[:, 1], f[:, 2],
                           f[:, 0], f[:, 1], f[:, 0], f[:, 2], f[:, 1], f[:, 2]])
    cols = np.concatenate([f[:, 0], f[:, 1], f[:, 2],
                           f[:, 1], f[:, 0], f[:, 2], f[:, 0], f[:, 2], f[:, 1]])
    vals = np.concatenate([areas / 6.0] * 3 + [areas / 12.0] * 6)
    return sp.coo_matrix((vals, (rows, cols)), shape=(V, V)).tocsr()


@per_mesh
def vertex_weights(mesh):
    """Barycentric quadrature weights, a third of each incident face area
    (row sums of the mass matrix), read-only."""
    w = np.zeros(mesh.num_vertices)
    third = face_areas(mesh) / 3.0
    for corner in range(3):
        np.add.at(w, mesh.faces[:, corner], third)
    return w


def integrate(mesh, values):
    """Integral over the mesh of a per-vertex field or per-face density.

    Per-vertex input is integrated as its linear interpolant; per-face input
    as a piecewise constant. integrate(1) equals the total area.
    """
    values = np.asarray(values, dtype=float)
    if np.ndim(values) == 0:
        return float(values) * float(face_areas(mesh).sum())
    if values.shape[0] == mesh.num_vertices:
        return float(vertex_weights(mesh) @ values)
    if values.shape[0] == mesh.num_faces:
        return float(face_areas(mesh) @ values)
    raise ContractError(
        f"field length {values.shape[0]} matches neither vertex ({mesh.num_vertices}) "
        f"nor face ({mesh.num_faces}) count")


def lumped_gram(mesh, X, Y=None):
    """L2 inner products int X_a . Y_b of two field stacks, as an (m, p) matrix.

    X is (m, V, n+1) and Y (p, V, n+1); each entry is the lumped
    (barycentric) quadrature sum_v w_v X_a(v) . Y_b(v), summed as for that
    pair alone. Without Y the matrix is the Gram matrix of X, each entry
    a <= b summed once and mirrored, so it is exactly symmetric.
    """
    G = np.einsum("v,avd,bvd->ab", vertex_weights(mesh), X, X if Y is None else Y)
    if Y is None:
        lower = np.tril_indices(len(G), -1)
        G[lower] = G.T[lower]
    return G


def gradient_gram(mesh):
    """The held face Gram data, checked for the division the gradients make."""
    gram = face_gram(mesh)
    if np.any(gram.det <= 0.0):
        raise MeshError("degenerate face in gradient computation")
    return gram


def surface_gradient(mesh, f):
    """Per-face constant gradient of the linear interpolant, shape (F, n+1)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.num_vertices,):
        raise ContractError("scalar field length must equal vertex count")
    u, w = face_corner_vectors(mesh)
    guu, gww, guw, det = gradient_gram(mesh)
    tri = mesh.faces
    du = f[tri[:, 1]] - f[tri[:, 0]]
    dw = f[tri[:, 2]] - f[tri[:, 0]]
    c1 = (gww * du - guw * dw) / det
    c2 = (guu * dw - guw * du) / det
    return c1[:, None] * u + c2[:, None] * w


@per_mesh
def coordinate_gradient_sq(mesh):
    """|grad x_i|^2 per face of each coordinate function x_i, (n+1, F), read-only."""
    return np.stack([np.einsum("fd,fd->f", g, g)
                     for g in (surface_gradient(mesh, x) for x in mesh.vertices.T)])


@per_mesh
def face_centroids_on_sphere(mesh):
    """Face centroids pushed radially onto the unit sphere, (F, n+1), read-only."""
    c = mesh.vertices[mesh.faces].mean(axis=1)
    return c / np.linalg.norm(c, axis=1, keepdims=True)


@dataclass
class EigenPair:
    """Generalized eigenpair of (S, M), with the field mass-normalized."""

    lam: float
    field: np.ndarray
    residual: float


def eigen_clusters(pairs, rel_tol=CLUSTER_REL_TOL):
    """Group eigenpairs whose eigenvalues agree within rel_tol (chained)."""
    clusters = []
    for k, p in enumerate(pairs):
        scale = max(abs(p.lam), 1.0)
        if clusters and abs(p.lam - pairs[clusters[-1][-1]].lam) <= rel_tol * scale:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


@per_mesh
def dissection_order(mesh):
    """Nested-dissection order of the vertices, taken from their coordinates, held.

    Each part is bisected at the median of its widest ambient coordinate.
    The lower-half vertices with an edge into the upper half form the
    separator, numbered after both halves (A. George, SIAM J. Numer. Anal.
    10, 1973). All parts of one level are split together, and a level keeps
    only the vertices and edges still inside a part, so the cost is
    O(E log V). The edges are the held mesh_edges, so a mesh that is not
    closed and oriented raises MeshError. Deterministic: ties keep their
    previous relative order.
    """
    x = mesh.vertices
    V = mesh.num_vertices
    a, b = mesh_edges(mesh).T
    # the vertices still inside a part, grouped by part in ascending order
    idx = np.arange(V)
    part = np.zeros(V, dtype=np.intp)
    inside = np.ones(V, dtype=bool)
    lower = np.zeros(V, dtype=bool)
    # base-4 digits of each vertex's path in the dissection tree (0 lower
    # half, 1 upper half, 2 separator); sorting by it numbers the tree in
    # post-order, and within a leaf part by vertex index
    key = np.zeros(V, dtype=np.int64)
    while idx.size:
        starts = np.flatnonzero(np.r_[True, part[1:] != part[:-1]])
        sizes = np.diff(np.r_[starts, idx.size])
        p = np.repeat(np.arange(starts.size), sizes)
        xs = np.take(x, idx, axis=0)
        hi = np.maximum.reduceat(xs, starts)
        lo = np.minimum.reduceat(xs, starts)
        axis = np.argmax(hi - lo, axis=1)[:, None]
        lo = np.take_along_axis(lo, axis, axis=1)[:, 0]
        width = np.take_along_axis(hi, axis, axis=1)[:, 0] - lo
        width[width == 0.0] = 1.0
        # sort by part, then by the widest coordinate scaled into [0, 1/2]
        t = np.take_along_axis(xs, np.take(axis, p, axis=0), axis=1)[:, 0]
        t = p + (t - np.take(lo, p)) / np.take(2.0 * width, p)
        idx = np.take(idx, np.argsort(t, kind="stable"))
        upper = np.arange(idx.size) - np.take(starts, p) >= np.take(sizes // 2, p)
        lower[idx] = ~upper
        lower_a = np.take(lower, a)
        cut = lower_a != np.take(lower, b)
        sep = np.compress(cut, np.where(lower_a, a, b))
        key *= 4
        key[idx] += upper
        key[sep] |= 2   # separator vertices are lower, so this digit was 0
        inside[sep] = False
        # parts of at most DISSECTION_LEAF_SIZE vertices are finished
        part = 2 * p + upper
        stay = np.take(inside, idx)
        sizes = np.bincount(part[stay], minlength=2 * starts.size)
        stay &= np.take(sizes, part) > DISSECTION_LEAF_SIZE
        inside[idx[~stay]] = False
        idx, part = idx[stay], part[stay]
        keep = ~cut & np.take(inside, a) & np.take(inside, b)
        a, b = np.compress(keep, a), np.compress(keep, b)
    return np.argsort(key, kind="stable")


def _factor_shifted(A, M, sigma, order):
    """SuperLU factor of A - sigma M in dissection order, pivots on the diagonal.

    The vertex order is expanded to the per-vertex DOF blocks (DOF
    v * block + j belongs to vertex v). The matrix is permuted once and
    factored with SuperLU in symmetric mode without column reordering, so
    U's diagonal holds the pivots of a symmetric LDL^T. With M positive
    definite, the number of negative pivots is the number of eigenvalues of
    A w = mu M w below sigma (Sylvester's law of inertia). Returns (factor,
    DOF permutation, negative-pivot count). A singular A - sigma M, i.e. an
    eigenvalue on sigma, raises SolverError.
    """
    order = np.asarray(order)
    block, rest = divmod(A.shape[0], order.size)
    if rest or block == 0:
        raise ContractError(
            f"pencil dimension {A.shape[0]} is not a multiple of {order.size} vertices")
    perm = (order[:, None] * block + np.arange(block)).ravel()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    K = (A - sigma * M).tocoo()
    K = sp.csc_matrix((K.data, (inv[K.row], inv[K.col])), shape=K.shape)
    try:
        lu = spla.splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"factorization of A - ({sigma:g}) M failed: {exc}") from exc
    del K   # lu.U below is a full copy of the factor; free the matrix first
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"factorization of A - ({sigma:g}) M left the diagonal: "
                          "a pivot vanished")
    return lu, perm, int(np.count_nonzero(lu.U.diagonal() < 0.0))


def shift_invert_operator(A, M, sigma, order):
    """(A - sigma M)^-1 as a LinearOperator, with its negative-pivot count.

    The operator is the OPinv of eigsh(sigma=sigma), factored once (see
    _factor_shifted). The count is the number of eigenvalues of (A, M)
    below sigma; it is 0 exactly when sigma lies below the spectrum.
    """
    lu, perm, below = _factor_shifted(A, M, sigma, order)

    def solve(b):
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        return x

    return spla.LinearOperator(A.shape, matvec=solve, dtype=float), below


def count_eigenvalues_below(A, M, shift, order):
    """Eigenvalues of A w = mu M w below shift, by Sylvester's law of inertia.

    With M positive definite this is the number of negative pivots of
    A - shift M, factored as in shift_invert_operator.
    """
    return _factor_shifted(A, M, shift, order)[2]


def solve_smallest_eigenpairs(S, M, k, order, tol=DEFAULT_EIG_TOL, seed=0):
    """k smallest eigenpairs of S f = lambda M f, mass-orthonormal, ascending.

    Shift-invert Lanczos below the spectrum, factored in the vertex
    ``order`` (see dissection_order); deterministic via a seeded starting
    vector. Raises SolverError if the factor has a negative pivot (the
    shift is not below the spectrum), and (carrying the best residual) on
    failure of the residual contract.
    """
    V = S.shape[0]
    if not (1 <= k <= V - 1):
        raise ContractError(f"k={k} out of range for dimension {V}")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(V)
    sigma = -0.1  # S is PSD, so S - sigma M is SPD for sigma < 0
    OPinv, below = shift_invert_operator(S, M, sigma, order)
    if below:
        raise SolverError(f"shift {sigma:g} is not below the spectrum: "
                          f"{below} eigenvalues below it")
    try:
        vals, vecs = spla.eigsh(S, k=k, M=M, sigma=sigma, which="LM", v0=v0,
                                maxiter=5000, OPinv=OPinv)
    except (spla.ArpackNoConvergence, RuntimeError) as exc:
        raise SolverError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    # deterministic signs and exact M-orthonormalization in index order
    pairs = []
    basis = []
    for j in range(k):
        v = vecs[:, j]
        for b in basis:
            v = v - (b @ (M @ v)) * b
        nrm = np.sqrt(v @ (M @ v))
        if nrm <= 0:
            raise SolverError("degenerate eigenvector block")
        v = v / nrm
        pivot = int(np.argmax(np.abs(v)))
        if v[pivot] < 0:
            v = -v
        basis.append(v)
        res = np.linalg.norm(S @ v - vals[j] * (M @ v)) / np.linalg.norm(M @ v)
        pairs.append(EigenPair(lam=float(max(vals[j], 0.0) if abs(vals[j]) < tol else vals[j]),
                               field=v, residual=float(res)))
    worst = max(p.residual for p in pairs)
    if worst > tol:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds tol {tol:.1e}",
                          best_residual=worst)
    return pairs


def write_spectrum_csv(pairs, path):
    """CSV with header index,lambda,residual at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("index,lambda,residual\n")
        for idx, p in enumerate(pairs):
            fh.write(f"{idx},{p.lam:.17g},{p.residual:.17g}\n")
