"""P1 finite-element operators on a SurfaceMesh.

Cotangent stiffness, consistent mass, barycentric quadrature weights,
face centroids on the sphere, quadrature, lumped L2 products of vector
fields, the low end of the Laplace-Beltrami eigenproblem
S f = lambda M f, the nested dissection of the mesh graph, the one pencil
type (Pencil) that every count and solve takes, the dense-front
multifrontal LDL^T behind every inertia count, whose factor can be kept
for shift-invert Lanczos (FrontFactor), and the SuperLU factorizations
behind every other shift-invert eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import ContractError, ParameterError, SolverError
from .mesh import face_areas, face_corners, face_gram, mesh_edges, per_mesh

EIG_TOL = 1e-8
EIG_RETRIES = 3             # deflated Lanczos searches for pairs a solve missed
CLUSTER_REL_TOL = 1e-3
KERNEL_TOL = 1e-6           # eigenvalues at most this belong to the constants
DISSECTION_LEAF_SIZE = 16   # parts this small keep their vertex-index order
FRONT_MERGE_DOFS = 192      # subtrees this small are counted as one dense front
EXTEND_ADD_COLUMNS = 64     # widest column block of one update added at a time
KEPT_ENTRY_BYTES = 8        # an entry of a kept dense-front factor: one float
SUPERLU_ENTRY_BYTES = 12    # an entry of SuperLU's L or U: a float and its row index


# the (row corner, column corner) of each element entry in scatter order, on
# which the order of summing one vertex pair's entries, so their bits, depend
_P1_PAIRS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])


def _p1_matrix(mesh, element):
    """The sum of symmetric per-face elements (F, 3, 3) as a P1 matrix, in
    canonical CSR. Exact zeros are kept, so every P1 matrix of a mesh has
    one pattern: the vertex pairs that share a face."""
    i, j = _P1_PAIRS.T
    f, V = mesh.faces, mesh.num_vertices
    return sp.coo_matrix((element[:, i, j].T.ravel(), (f[:, i].T.ravel(), f[:, j].T.ravel())),
                         shape=(V, V)).tocsr()


def _p1_mass(mesh, weights):
    """The P1 mass matrix of per-face weights (F,): each element holds
    weight / 6 on its diagonal and weight / 12 off it."""
    w = weights[:, None, None]
    return _p1_matrix(mesh, np.where(np.eye(3, dtype=bool), w / 6.0, w / 12.0))


@per_mesh
def assemble_stiffness(mesh):
    """Cotangent stiffness matrix (PSD, constants in the kernel), held.

    Its element is e_i . e_j / (2 sqrt(det)) for the edges w - u, -w, u
    opposite the corners (u = B - A, w = C - A), read from face_gram.
    """
    guu, gww, guw, det = face_gram(mesh)
    scale = 0.5 / np.sqrt(det)
    # each off-diagonal value is formed once, so the element is exactly symmetric
    ab, ac, bc = (guw - gww) * scale, (guw - guu) * scale, -guw * scale
    element = np.stack([np.stack([(guu - 2.0 * guw + gww) * scale, ab, ac], axis=1),
                        np.stack([ab, gww * scale, bc], axis=1),
                        np.stack([ac, bc, guu * scale], axis=1)], axis=1)
    return _p1_matrix(mesh, element)


@per_mesh
def assemble_mass(mesh):
    """Consistent mass matrix (the P1 Gram matrix), held.

    The lumped (barycentric) mass is its row sums, diags(vertex_weights).
    """
    return _p1_mass(mesh, face_areas(mesh))


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


@per_mesh
def face_centroids_on_sphere(mesh):
    """Face centroids pushed radially onto the unit sphere, (F, n+1), read-only."""
    a, b, c = face_corners(mesh)
    c = (a + b + c) / 3.0
    return c / np.linalg.norm(c, axis=1, keepdims=True)


class Spectrum(NamedTuple):
    """The low end of S f = lambda M f: eigenvalues ascending, each column of
    ``fields`` its mass-normalized eigenfunction."""

    values: np.ndarray      # (k,)
    fields: np.ndarray      # (V, k)
    residuals: np.ndarray   # (k,) relative residuals |S f - lambda M f| / |M f|


def eigen_clusters(values):
    """Index arrays of the runs of ascending values that agree within
    CLUSTER_REL_TOL (chained): a value joins the run before it when it is
    within CLUSTER_REL_TOL * max(|value|, 1) of its predecessor."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        return []
    joined = np.abs(np.diff(values)) <= CLUSTER_REL_TOL * np.maximum(np.abs(values[1:]), 1.0)
    return np.split(np.arange(values.size), np.flatnonzero(~joined) + 1)


def first_nonzero_cluster(values):
    """The indices of lambda_1: the first eigen_clusters run above
    KERNEL_TOL, or None when the values do not reach it. The last run is
    never lambda_1's: k may cut it, and solve_smallest_eigenpairs certifies
    every run but that one whole."""
    runs = eigen_clusters(values)[:-1]
    return next((run for run in runs if values[run[0]] > KERNEL_TOL), None)


@per_mesh
def dissection_tree(mesh):
    """The nested-dissection tree of the mesh graph (see nested_dissection),
    held. Its edges are the held mesh_edges, so a mesh that is not closed
    and oriented raises MeshError."""
    return nested_dissection(mesh.vertices, mesh_edges(mesh))


class DissectionTree(NamedTuple):
    """A nested-dissection order and its elimination tree.

    Positions are indices into ``order``. The nodes, separators and leaf
    parts, are in post-order: node s pivots on the positions
    start[s]:stop[s], its subtree holds the positions first[s]:stop[s], and
    update[update_ptr[s]:update_ptr[s + 1]] are the positions after its
    subtree that an edge joins to the subtree, ascending.
    """

    order: np.ndarray        # (V,) vertices in elimination order
    start: np.ndarray        # (nodes,) first pivot position of each node
    first: np.ndarray        # (nodes,) first position of its subtree
    stop: np.ndarray         # (nodes,) one past its last position
    parent: np.ndarray       # (nodes,) nearest enclosing node, -1 at a root
    update_ptr: np.ndarray   # (nodes + 1,)
    update: np.ndarray       # positions, grouped by node


def nested_dissection(points, edges):
    """Nested-dissection tree of a graph whose vertices carry coordinates.

    Each part is bisected at the median of its widest coordinate. The
    lower-half vertices with an edge into the upper half form the
    separator, numbered after both halves (A. George, SIAM J. Numer. Anal.
    10, 1973). All parts of one level are split together, and a level keeps
    only the vertices and edges still inside a part, so the cost is
    O(E log V). Deterministic: ties keep their previous relative order.

    The tree's nodes are the separators and the leaf parts, each numbered
    after the subtree below it. No edge joins two subtrees that are not
    nested, so the update of a node lies in the pivots of its ancestors.
    """
    x = np.asarray(points, dtype=float)
    V = x.shape[0]
    edges = np.asarray(edges)
    a, b = edges.T
    # the vertices still inside a part, grouped by part in ascending order
    idx = np.arange(V)
    part = np.zeros(V, dtype=np.intp)
    inside = np.ones(V, dtype=bool)
    lower = np.zeros(V, dtype=bool)
    # base-4 digits of each vertex's path in the dissection tree (0 lower
    # half, 1 upper half, 2 separator); sorting by it numbers the tree in
    # post-order, and within a leaf part by vertex index
    key = np.zeros(V, dtype=np.int64)
    level = np.zeros(V, dtype=np.int64)   # the level that finished the vertex
    depth = 0
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
        level[idx[~stay]] = depth
        idx, part = idx[stay], part[stay]
        keep = ~cut & np.take(inside, a) & np.take(inside, b)
        a, b = np.compress(keep, a), np.compress(keep, b)
        depth += 1
    order = np.argsort(key, kind="stable")
    nodes = _dissection_tree_nodes(order, np.take(key, order), np.take(level, order), depth)
    return DissectionTree(*nodes, *_node_updates(nodes, edges))


def _dissection_tree_nodes(order, key, level, depth):
    """The nodes of the dissection whose sorted path keys are ``key``.

    A node is a separator or a leaf part: the positions that share a key.
    Its subtree is the part it splits (a leaf: itself), whose keys share the
    part's path as a prefix, so it is the run of positions from ``first``
    to the node's end. The parent of a node is the separator of the nearest
    enclosing part that has one.
    """
    V = order.size
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    stop = np.r_[start[1:], V]
    node_key = key[start]
    level = level[start]
    path = node_key >> 2 * (depth - 1 - level)   # level + 1 base-4 digits
    separator = (path & 3) == 2
    part = np.where(separator, path >> 2, path)
    part_depth = np.where(separator, level, level + 1)
    first = np.searchsorted(key, part << 2 * (depth - part_depth))
    parent = np.full(node_key.size, -1)
    todo = np.arange(node_key.size)
    up = 1
    while todo.size:
        todo = todo[part_depth[todo] >= up]
        enclosing = part_depth[todo] - up   # depth of the enclosing part tried
        candidate = ((part[todo] >> 2 * up) * 4 + 2) << 2 * (depth - 1 - enclosing)
        at = np.minimum(np.searchsorted(node_key, candidate), node_key.size - 1)
        found = node_key[at] == candidate
        parent[todo[found]] = at[found]
        todo = todo[~found]
        up += 1
    return order, start, first, stop, parent


def _node_updates(nodes, edges):
    """(update_ptr, update) of DissectionTree for the dissection ``nodes``.

    The update of a node is every later position on an edge that starts in
    its subtree, found by walking each edge up from the node of its earlier
    end until the node whose pivots hold the later end.
    """
    order, start, _, stop, parent = nodes
    V = order.size
    position = np.empty(V, dtype=np.intp)
    position[order] = np.arange(V)
    i, j = np.take(position, edges[:, 0]), np.take(position, edges[:, 1])
    i, j = np.minimum(i, j), np.maximum(i, j)
    s = np.repeat(np.arange(start.size), stop - start)[i]
    pairs = []
    while s.size:
        later = j >= np.take(stop, s)
        s, j = s[later], j[later]
        pairs.append(s * V + j)
        s = np.take(parent, s)
    pairs = np.sort(np.concatenate([np.empty(0, dtype=np.intp), *pairs]))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]   # np.unique hashes, slower here
    return np.searchsorted(pairs // V, np.arange(start.size + 1)), pairs % V


@dataclass(frozen=True, eq=False)
class Pencil:
    """The pencil Q w = mu M w, M positive definite, over ``block`` DOFs per
    mesh vertex, DOF v * block + j of vertex v. Q and M are canonical CSR
    matrices on one pattern, so Q - sigma M is one axpy on their data, and
    the pencil is eliminated in its dissection ``tree``'s order (dof_order);
    construction checks both, and the dimension, raising ContractError."""

    Q: sp.csr_matrix
    M: sp.csr_matrix
    kind: str                  # "laplace" | "energy" | "areaJacobi"
    tree: DissectionTree       # elimination order and tree (dissection_tree)

    def __post_init__(self):
        Q, M, V = self.Q, self.M, self.tree.order.size
        if not (Q.format == M.format == "csr" and Q.has_canonical_format and M.has_canonical_format
                and np.array_equal(Q.indptr, M.indptr) and np.array_equal(Q.indices, M.indices)
                and Q.shape == M.shape == (Q.shape[0],) * 2
                and 0 < Q.shape[0] and Q.shape[0] % V == 0):
            raise ContractError(f"{self.kind} pencil: Q {Q.shape} and M {M.shape} must be square "
                                "canonical CSR matrices on one pattern, of a positive multiple "
                                f"of {V} rows")

    @property
    def block(self):
        return self.Q.shape[0] // self.tree.order.size

    @property
    def dof_order(self):
        """The DOF at each elimination position: DOF v * block + j sits at
        position p * block + j when vertex v is at position p of tree.order."""
        return (self.tree.order[:, None] * self.block + np.arange(self.block)).ravel()


def laplace_pencil(mesh):
    """The Laplace pencil (S, M) of the held stiffness and mass, one DOF per vertex."""
    return Pencil(assemble_stiffness(mesh), assemble_mass(mesh), "laplace", dissection_tree(mesh))


def _shifted_in_elimination_order(pencil, sigma):
    """K = Q - sigma M permuted to elimination order (Pencil.dof_order), a
    CSC matrix with 32-bit indices, ascending within each column, and no
    exact zeros stored. K's data is one axpy on the pencil's one pattern.
    The rows are gathered into elimination order and the columns
    renumbered, with no COO triplet; Q and M are symmetric, so the sorted
    rows of K are its columns. Returns K and the DOF at each position.
    """
    Q, M, perm = pencil.Q, pencil.M, pencil.dof_order
    K = sp.csr_matrix((Q.data - sigma * M.data, Q.indices, Q.indptr), shape=Q.shape)
    K = K[perm]   # rows in elimination order: new arrays, so K can be edited
    K.eliminate_zeros()
    position = np.empty(perm.size, dtype=K.indices.dtype)
    position[perm] = np.arange(perm.size)
    K = sp.csr_matrix((K.data, position[K.indices], K.indptr), shape=K.shape)
    K.sort_indices()
    return sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape), perm


def _factor_shifted(pencil, sigma):
    """SuperLU factor of Q - sigma M in dissection order, pivots on the diagonal.

    _shifted_in_elimination_order writes the matrix once, grouped by column
    in elimination order, and SuperLU factors it in symmetric mode without
    column reordering. That CSC matrix (11.6 MiB for the energy pencil of
    the Clifford torus at res 128, against a 19.2 MiB pencil) is the only
    transient beside the factor, and is freed on return; the factor
    (123 MiB there) lives as long as the Lanczos run that solves
    with it. The factor is only solved with: every inertia count is
    _eliminate's. It serves the scalar pencils, solve_smallest_eigenpairs
    and the energy pencils whose kept FrontFactor would take more bytes
    (secondvar.negative_index_count). Returns (factor, DOF permutation). A
    singular Q - sigma M, i.e. an eigenvalue on sigma, raises SolverError.
    """
    K, perm = _shifted_in_elimination_order(pencil, sigma)
    try:
        lu = spla.splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"factorization of Q - ({sigma:g}) M failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"factorization of Q - ({sigma:g}) M left the diagonal: "
                          "a pivot vanished")
    return lu, perm


def _shift_invert_lanczos(pencil, sigma, k, which, seed, vectors=False, deflate=None,
                          factor=None):
    """k eigenvalues of the pencil by shift-invert Lanczos at sigma, ascending.

    The OPinv of eigsh solves with ``factor``, a FrontFactor of
    Q - sigma M, or when it is None with the SuperLU factor of
    _factor_shifted, which is freed on return. The starting vector, and
    any vector ARPACK restarts from when the Krylov space breaks down (as
    on an exactly degenerate eigenvalue), are drawn from ``seed``. With ``vectors`` the
    M-orthonormal Ritz vectors are returned as well, as (values, vectors).
    ``deflate``, an M-orthonormal block W (V, m) of eigenvectors, is
    projected off every solve (x - W W'M x), so the operator maps their span
    to 0 and Lanczos finds the eigenpairs M-orthogonal to it. An ARPACK
    failure raises SolverError, with the worst relative residual of the
    pairs that converged. Private, so that a tracer of the public
    functions names the Lanczos run after the function that asked for it.
    """
    lu, perm = _factor_shifted(pencil, sigma) if factor is None else (factor, pencil.dof_order)
    MW = None if deflate is None else pencil.M @ deflate

    def solve(b):
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        if MW is not None:
            x -= deflate @ (MW.T @ x)
        return x

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(lu.shape[0])
    try:
        result = spla.eigsh(pencil.Q, k=k, M=pencil.M, sigma=sigma, which=which, v0=v0,
                            maxiter=5000, return_eigenvectors=vectors, rng=rng,
                            OPinv=spla.LinearOperator(lu.shape, matvec=solve, dtype=float))
    except (spla.ArpackNoConvergence, RuntimeError) as exc:
        # an ArpackNoConvergence carries the pairs that did converge
        partial, worst = getattr(exc, "eigenvalues", np.empty(0)), "no pair converged"
        if partial.size:
            residual = np.max(_m_orthonormal(pencil.Q, pencil.M, partial, exc.eigenvectors)[1])
            worst = f"worst relative residual {residual:.3e} of {partial.size} converged pairs"
        raise SolverError(f"eigensolver at shift {sigma:g} failed: {exc}; {worst}") from exc
    if not vectors:
        return np.sort(result)
    vals, vecs = result
    ascending = np.argsort(vals)
    return vals[ascending], vecs[:, ascending]


def count_eigenvalues_below(pencil, shift):
    """Eigenvalues of the pencil below shift, by Sylvester's law of inertia:
    with M positive definite, the negative eigenvalues of Q - shift M,
    counted by the multifrontal LDL^T of _eliminate, which keeps no factor."""
    return _eliminate(pencil, _fronts(pencil), shift).negative


class FrontFactor(NamedTuple):
    """The dense-front LDL^T of K = Q - shift M that _eliminate keeps.

    One buffer of Fronts.kept_sizes floats holds, front after front,
    the pivot block packed to its lower triangle (by columns, as BLAS
    packs it) and then the update block, Fortran-ordered: for a Cholesky
    pivot block L11, L21 = F21 L11^-T (updates x pivots); for a
    Bunch-Kaufman one, the LD of LAPACK's dsytrf, whose ipiv the front
    holds, and X = F11^-1 F12 (pivots x updates). Like a SuperLU factor it
    solves in elimination order (Pencil.dof_order).
    """

    buffer: np.ndarray
    # per front, in post-order: (pivot positions, packed block, update block,
    # update positions, ipiv or None)
    fronts: list

    @property
    def shape(self):
        return (self.fronts[-1][0].stop,) * 2

    def solve(self, rhs):
        """K^-1 rhs, by forward substitution over the fronts in post-order
        and back substitution in reverse."""
        x = np.array(rhs, dtype=float)
        for pivots, packed, update, at, ipiv in self.fronts:
            pivot = x[pivots]
            if ipiv is None:
                pivot[:] = blas.dtpsv(pivot.size, packed, pivot, lower=1, overwrite_x=1)
                if at.size:
                    x[at] -= update @ pivot
                continue
            if at.size:
                x[at] -= pivot @ update
            LD = np.empty((pivot.size,) * 2, order="F")   # dsytrs reads its lower triangle
            LD.T[_packed_lower(pivot.size)] = packed
            pivot[:] = lapack.dsytrs(LD, ipiv, pivot, lower=1)[0]
        for pivots, packed, update, at, ipiv in reversed(self.fronts):
            pivot = x[pivots]
            if ipiv is None:
                if at.size:
                    pivot -= x[at] @ update
                pivot[:] = blas.dtpsv(pivot.size, packed, pivot, lower=1, trans=1, overwrite_x=1)
            elif at.size:
                pivot -= update @ x[at]
        return x


class Elimination(NamedTuple):
    """What _eliminate found of K = Q - shift M."""

    negative: int    # negative eigenvalues of K
    nonzeros: int    # nonzero entries of the factor's pivot-block lower triangles and update blocks
    factor: FrontFactor | None   # the factor, when kept


def _packed_lower(p):
    """The mask on the transpose of a p x p matrix that reads its lower
    triangle column by column, BLAS's packed order."""
    return np.tri(p, dtype=bool).T


class Fronts(NamedTuple):
    """The fronts of a pencil's elimination and the buffers that every
    elimination of it (_eliminate) works in.

    A front is a dissection-tree node with more than FRONT_MERGE_DOFS DOFs
    in its subtree, pivoting on its own vertices, or a largest subtree of
    at most that many, pivoting on all of them. Every front is a view of
    one Fortran-ordered buffer of the largest front's size, and every
    Schur complement that waits for its parent a view of one contribution
    stack (_contribution_offsets), so eliminations at several shifts
    allocate them once.
    """

    nodes: np.ndarray     # the tree nodes that are fronts, post-order
    starts: np.ndarray    # first pivot position (in vertices) of every tree node
    pivots: np.ndarray    # pivot DOFs of each front
    updates: np.ndarray   # update DOFs of each front
    offsets: np.ndarray   # where each front's Schur complement lies in the stack
    work: np.ndarray
    stack: np.ndarray

    @property
    def kept_sizes(self):
        """Floats of each front's kept factor: its pivot block packed, p (p + 1) / 2,
        and its update block, p u."""
        return self.pivots * (self.pivots + 1) // 2 + self.pivots * self.updates


def _fronts(pencil):
    """The Fronts of a pencil, their buffers allocated."""
    tree, block = pencil.tree, pencil.block
    small = (tree.stop - tree.first) * block <= FRONT_MERGE_DOFS
    nodes = np.flatnonzero(~small | (tree.parent < 0) | ~np.take(small, tree.parent))
    starts = np.where(small, tree.first, tree.start)
    pivots = (tree.stop - starts)[nodes] * block
    updates = np.diff(tree.update_ptr)[nodes] * block
    offsets, length = _contribution_offsets(nodes, tree.parent, updates ** 2)
    return Fronts(nodes, starts, pivots, updates, offsets,
                  np.empty(int(np.max(pivots + updates)) ** 2), np.empty(length))


def _eliminate(pencil, fronts, shift, count_nonzeros=False, keep=False):
    """The multifrontal LDL^T of K = Q - shift M (I. S. Duff and J. K. Reid,
    ACM TOMS 9, 1983) on the pencil's Fronts, an Elimination: its negative
    eigenvalues, with ``count_nonzeros`` or ``keep`` its factor's nonzeros,
    and with ``keep`` the FrontFactor.

    The fronts are in DOF blocks. A front gathers its rows of K and the
    updates of its children into a dense matrix [[F11, F12], [F21, F22]]
    over its pivots and its update positions. F11 is factored by
    Cholesky, or when that fails by Bunch-Kaufman, and the negative
    eigenvalues of its D blocks are counted; the Schur complement
    F22 - F21 F11^-1 F12 goes to the parent front. By inertia additivity
    the counts sum to that of K. A singular F11, as from an eigenvalue on
    the shift, raises SolverError. Each front reads the rows of its pivots
    from Q and M, on their one pattern, keeping the nonzero entries of K on
    or after the diagonal in elimination order (Pencil.dof_order), so no
    copy of K is formed; an entry of K between two vertices that no mesh
    edge joins raises ContractError. Beside the buffers of ``fronts``,
    zeroed in place, the peak memory is the LAPACK factor of one pivot
    block, and with ``keep`` the factor's own buffer, which the factor of
    each front is copied into.
    """
    Q, M, tree, block, perm = pencil.Q, pencil.M, pencil.tree, pencil.block, pencil.dof_order
    position = np.empty(perm.size, dtype=np.intp)
    position[perm] = np.arange(perm.size)
    row_nnz = np.diff(Q.indptr)
    sizes = fronts.kept_sizes
    kept_offsets = np.cumsum(sizes) - sizes
    buffer = np.empty(int(np.sum(sizes)) if keep else 0)
    kept = []
    local = np.zeros(perm.size, dtype=np.intp)
    lanes = np.arange(block)
    negative = nonzeros = 0
    pending = []   # (parent, update DOFs, Schur complement in the stack), newest last
    for s, offset, kept_offset, size in zip(fronts.nodes.tolist(), fronts.offsets.tolist(),
                                            kept_offsets.tolist(), sizes.tolist()):
        a, b = fronts.starts[s] * block, tree.stop[s] * block
        later = tree.update[tree.update_ptr[s]:tree.update_ptr[s + 1]]
        dofs = np.concatenate([np.arange(a, b), (later[:, None] * block + lanes).ravel()])
        local[dofs] = np.arange(dofs.size)
        # the entries of K in the pivot rows, on or after the diagonal
        rows = perm[a:b]
        lengths = row_nnz[rows]
        ends = np.cumsum(lengths)
        entry = np.arange(ends[-1]) + np.repeat(Q.indptr[rows] - ends + lengths, lengths)
        col = position[Q.indices[entry]]
        pivot = np.repeat(np.arange(b - a), lengths)
        values = Q.data[entry] - shift * M.data[entry]
        keep_entry = (col >= a + pivot) & (values != 0.0)
        col, pivot, values = col[keep_entry], pivot[keep_entry], values[keep_entry]
        at = local[col]
        if not np.array_equal(np.take(dofs, at, mode="clip"), col):
            raise ContractError("the pencil has an entry between vertices that no "
                                "mesh edge joins")
        F = fronts.work[:dofs.size ** 2].reshape((dofs.size,) * 2, order="F")
        F.fill(0.0)
        F[at, pivot] = values
        while pending and pending[-1][0] == s:
            _, child, update = pending.pop()
            _extend_add(F, local[child], update)
        rest = dofs.size - (b - a)
        update = fronts.stack[offset:offset + rest ** 2].reshape((rest, rest), order="F")
        count, pivot_block, update_block, ipiv = _eliminate_pivots(F, b - a, shift, update)
        negative += count
        if count_nonzeros or keep:
            lower = pivot_block.T[_packed_lower(b - a)]   # a copy, packed
            nonzeros += np.count_nonzero(lower) + np.count_nonzero(update_block)
        if keep:
            front = buffer[kept_offset:kept_offset + size]
            front[:lower.size] = lower
            front[lower.size:] = update_block.ravel(order="F")
            kept.append((slice(a, b), front[:lower.size],
                         front[lower.size:].reshape(update_block.shape, order="F"),
                         dofs[b - a:], ipiv))
        del pivot_block, update_block   # freed before the next front's are formed
        if rest:
            pending.append((tree.parent[s], dofs[b - a:], update))
    return Elimination(negative, nonzeros, FrontFactor(buffer, kept) if keep else None)


def _contribution_offsets(fronts, parent, sizes):
    """Where the Schur complement of each front, of sizes[i] entries, lies in
    one contribution stack, and the length of that stack.

    The fronts are in post-order, so the complements a front adds up are
    the newest on the stack: it pops them before it pushes its own, which
    takes their place.
    """
    offsets = np.empty(fronts.size, dtype=np.intp)
    pending = []   # (parent, offset), newest last
    top = length = 0
    for i, s in enumerate(fronts.tolist()):
        while pending and pending[-1][0] == s:
            top = pending.pop()[1]
        offsets[i] = top
        if sizes[i]:
            pending.append((parent[s], top))
            top += int(sizes[i])
            length = max(length, top)
    return offsets, length


def _extend_add(F, at, update):
    """Add the lower triangle of a child's update into F at the ascending
    local positions ``at``.

    Where the positions fall into few runs of consecutive ones, the add goes
    one block of at most EXTEND_ADD_COLUMNS columns of a run at a time, over
    the rows from that block down (the rows of its diagonal block above the
    diagonal are added as well). Otherwise one scattered add takes the
    whole update: a block costs about as much as scattering 1000 entries.
    """
    cuts = np.flatnonzero(np.diff(at) != 1) + 1
    if (cuts.size + 1) * 1000 > at.size ** 2:
        F[np.ix_(at, at)] += update
        return
    bounds = np.union1d(cuts, np.arange(0, at.size, EXTEND_ADD_COLUMNS)).tolist()
    for k0, k1 in zip(bounds, bounds[1:] + [at.size]):
        F[at[k0:], at[k0]:at[k0] + k1 - k0] += update[k0:, k0:k1]


def _eliminate_pivots(F, pivots, shift, out):
    """Eliminate the pivots of F, from its lower triangle.

    Returns (negative eigenvalues of F11 = F[:pivots, :pivots], pivot
    block, update block, ipiv): the Cholesky factor L11 of F11, L21 and
    None, or when F11 is indefinite the Bunch-Kaufman LD and X =
    F11^-1 F12 with LD's ipiv. The lower triangle of the Schur complement
    of F11 in F is written into ``out``, a Fortran-ordered array (its upper
    triangle is not set).
    """
    F11, F21, F22 = F[:pivots, :pivots], F[pivots:, :pivots], F[pivots:, pivots:]
    L, info = lapack.dpotrf(F11, lower=1, clean=0)
    if info == 0:
        if not F21.size:
            return 0, L, F21, None
        L21 = blas.dtrsm(1.0, L, F21, side=1, lower=1, trans_a=1)
        out[...] = F22
        blas.dsyrk(-1.0, L21, beta=1.0, c=out, lower=1, overwrite_c=1)
        return 0, L, L21, None
    del L   # Bunch-Kaufman factors F11 afresh (in place at a root, where F11 is F)
    if F21.size:
        LD, ipiv, X, info = lapack.dsysv(F11, F21.T, lower=1)
    else:
        LD, ipiv, info = lapack.dsytrf(F11, lower=1, overwrite_a=1)
        X = F21.T
    # D has 1x1 blocks where ipiv > 0 and 2x2 blocks on the pairs ipiv < 0
    d = LD.diagonal()
    two = np.flatnonzero(ipiv < 0)[::2]
    det = d[two] * d[two + 1] - LD[two + 1, two] ** 2
    if info != 0 or np.any(det == 0.0):
        raise SolverError(f"inertia count of Q - ({shift:g}) M: a pivot block is "
                          "singular")
    if F21.size:
        np.subtract(F22, F21 @ X, out=out)
    negative = (np.count_nonzero(d[ipiv > 0] < 0.0) + np.count_nonzero(det < 0.0)
                + 2 * np.count_nonzero((det > 0.0) & (d[two] < 0.0)))
    return int(negative), LD, X, ipiv


def solve_smallest_eigenpairs(pencil, k, seed=0):
    """The k smallest eigenpairs of a pencil (S, M), S positive semidefinite
    as in laplace_pencil, a Spectrum.

    Shift-invert Lanczos below the spectrum, factored in the pencil's
    dissection order; deterministic via the seed. The Ritz vectors are
    M-orthonormalized as one block in ascending order, by the Cholesky
    factor of their M-Gram matrix, and each is signed so that its
    largest-magnitude entry is positive; eigenvalues within EIG_TOL of 0
    are clamped to at least 0. A k outside 1 <= k <= V - 1 raises
    ParameterError.

    A pair is accepted when its relative residual is within EIG_TOL. One
    count_eigenvalues_below certifies the k lowest accepted values: every
    eigen_clusters run but the last, which k may cut, is whole, so if the
    last run starts at index j, exactly j eigenvalues lie below the gap
    before it (below the shift when j = 0). Lanczos finds the copies of a
    multiple eigenvalue only by rounding luck, so when fewer than k pairs
    are accepted, or the count exceeds j, it searches again for the pairs
    missing, with the accepted vectors deflated, and the merged pairs are
    certified again, at most EIG_RETRIES times. Raises SolverError if a
    value is not above the shift or the block is degenerate, and with the
    last failure (a count that differs, or the residual contract, carrying
    the worst residual) when a search adds no accepted pair to the k
    lowest or the retries run out.
    """
    S, M = pencil.Q, pencil.M
    V = S.shape[0]
    if not (1 <= k <= V - 1):
        raise ParameterError(f"k={k} out of range: need 1 <= k <= {V - 1}")
    sigma = -0.1  # S is PSD, so S - sigma M is SPD for sigma < 0
    vals, W = np.empty(0), np.empty((V, 0))
    want = k
    for attempt in range(EIG_RETRIES + 1):
        found, vecs = _shift_invert_lanczos(pencil, sigma, want, "LM", seed, vectors=True,
                                            deflate=W if attempt else None)
        if found[0] <= sigma:
            raise SolverError(f"shift {sigma:g} is not below the spectrum: "
                              f"Lanczos returned {found[0]:g}")
        merged = np.concatenate([vals, found])
        ascending = np.argsort(merged, kind="stable")
        block, residuals = _m_orthonormal(S, M, merged[ascending],
                                          np.hstack([W, vecs])[:, ascending])
        kept = np.flatnonzero(residuals <= EIG_TOL)[:k]
        if attempt and not np.any(ascending[kept] >= vals.size):
            break   # the search added no accepted pair to the k lowest
        vals, W, accepted = merged[ascending][kept], block[:, kept], residuals[kept]
        if vals.size < k:
            worst = float(np.max(residuals))
            failure = SolverError(f"eigenpair residual {worst:.3e} exceeds tol {EIG_TOL:.1e}")
            want = k - vals.size
            continue
        values = np.where(np.abs(vals) < EIG_TOL, np.maximum(vals, 0.0), vals)
        j = int(eigen_clusters(values)[-1][0])
        cut = 0.5 * (values[j - 1] + values[j]) if j else sigma
        below = count_eigenvalues_below(pencil, cut)
        if below == j:
            pivot = np.argmax(np.abs(W), axis=0)
            W *= np.where(W[pivot, np.arange(k)] < 0.0, -1.0, 1.0)
            return Spectrum(values, W, accepted)
        failure = SolverError(f"{below} eigenvalues lie below {cut:g}, Lanczos returned {j}")
        if below < j:
            break
        want = below - j
    raise failure


def _m_orthonormal(S, M, vals, vecs):
    """The columns of vecs M-orthonormalized in order, W with vecs = W L' and
    W'MW = I, and the relative residuals |S w - lambda M w| / |M w| of the
    pairs (vals, W). A singular M-Gram matrix raises SolverError."""
    L, info = lapack.dpotrf(vecs.T @ (M @ vecs), lower=1, clean=0)
    if info != 0:
        raise SolverError("degenerate eigenvector block")
    W = blas.dtrsm(1.0, L, vecs, side=1, lower=1, trans_a=1)
    MW = M @ W
    return W, np.linalg.norm(S @ W - MW * vals, axis=0) / np.linalg.norm(MW, axis=0)


def write_spectrum_csv(spectrum, path):
    """CSV with header index,lambda,residual at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("index,lambda,residual\n")
        for idx, (lam, res) in enumerate(zip(spectrum.values.tolist(),
                                             spectrum.residuals.tolist())):
            fh.write(f"{idx},{lam:.17g},{res:.17g}\n")
