"""P1 finite-element assembly for the damped coupled wave system.

Operators (all restricted to free nodes, i.e. nodes not clamped on the
GAMMA0 part of the boundary):

* M  mass                 (phi_i, phi_j)
* K  stiffness            (grad phi_i, grad phi_j)      -- the V inner product
* B  boundary damping     int_{Gamma1} delta phi_i phi_j
* G  multiplier matrix    int phi_i (m . grad phi_j)    -- not symmetric
* T  boundary mass        int_{Gamma1} phi_i phi_j

The volume forms M, K and G have polynomial integrands on P1 elements, so
their element matrices are formed in closed form, in any dimension, from the
vertices, the volumes and the P1 gradients alone; no volume quadrature
points enter assembly.  B and T take the facet rule of the mesh, at the
points where the boundary split samples m . nu.

Nonlinear integrands (coupling |u|^rho |v|^rho v, L^p norms, GAMMA1 traces)
are evaluated pointwise (they are continuous; no regularization of |.|^rho is
needed) by the fixed rules of quadrature.simplex_rule (6 points a triangle at
the coupling's degree 4), through a QuadratureTable per cell set: the
elements at a given degree, and the GAMMA1 facets.  The coupling's table is
cached on the operators for the time loop; tables used only during setup are
built per call.

Two size rules hold small systems dense, where a few microseconds of
arithmetic would otherwise sit inside a sparse or gather call's fixed
overhead, and leave larger ones sparse.  Each is read from a matrix's size
alone and set below the crossover measured on intervals and squares:
* DENSE_ENTRIES for what the time loop applies: DiscreteOperators.KM() gives
  dense copies of K and M, made once and cached, when n_free^2 is at most
  the rule, and a QuadratureTable whose points times free nodes are at most
  the rule keeps the dense interpolation matrix of its points, so its reduce
  is one product in, the pointwise kernel, and one product out; larger
  operators stay sparse and larger tables gather and scatter blockwise;
* DENSE_FACTOR_ENTRIES for factor_spd, the one factorization of K and of
  the time loop's step matrix (both symmetric positive definite): a dense
  Cholesky factor when n_free^2 is at most the rule, and a sparse LU above.
  Its crossover is lower: a dense two-column solve measured three to four
  times one dense product of the same size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (BoundaryPartition, Mesh, cofactors, edge_vectors, leibniz_det,
                       radial_field)
from .quadrature import simplex_quadrature, simplex_weights

#: Quadrature points per block of cells in QuadratureTable.reduce on a table
#: over DENSE_ENTRIES: 4096 triangles at 6 points.  coupling_vectors with
#: the energy, after a full setup, medians of 11 interleaved rounds (one
#: BLAS thread, 2-vCPU Xeon VM): 768 / 2048 / 4096 / 6144 triangles a block
#: took 599 / 534 / 547 / 565 us on the 64^2 square and 2608 / 2213 / 2373 /
#: 2442 us on 128^2 (a repeat: 2546 / 2225 / 2240 / 2422); 2048 to 4096 tie.
BLOCK_POINTS = 24576

#: Largest n_free^2 of K and M applied dense (DiscreteOperators.KM), and
#: largest points * n_free of a QuadratureTable that keeps its dense
#: interpolation matrix.  Medians of 15 interleaved rounds, one BLAS thread,
#: 2-vCPU Xeon VM with OpenBLAS, dense against sparse: K X and M P on
#: intervals 4.0 vs 9.1 us at 80 free nodes, 8.3 vs 10.1 at 150, 12.0 vs
#: 12.0 at 200, on squares 11.7 vs 19.2 at 144; coupling_vectors on
#: intervals 13.1 vs 23.7 us at 7500 entries (50 elements), 25.4 vs 26.2 at
#: 43200, 39.6 vs 31.2 at 67500; on squares, with 6 points a triangle and
#: the gather path's blockwise projection, 19.3 vs 32.0 at 15552 (6^2), 24.7
#: vs 29.2 at 28812 (7^2), 31.1 vs 30.8 at 49152 (8^2), 49.3 vs 32.6 at
#: 78732 (9^2); intervals again on that gather path: 14.9 vs 24.2 at 7500,
#: 27.8 vs 27.6 at 43200, 38.1 vs 28.7 at 67500.
DENSE_ENTRIES = 200 * 200

#: Largest n_free^2 whose factor_spd factor is a dense Cholesky.  A
#: two-column solve with the step matrix (as above): intervals 3.7 vs 4.1 us
#: at 60 free nodes, 5.4 vs 5.0 at 70, 8.1 vs 5.1 at 100; squares 7.4 vs
#: 12.4 us at 64, 8.9 vs 10.0 at 100, 17.8 vs 19.0 at 121, 36.6 vs 26.3 at
#: 196.
DENSE_FACTOR_ENTRIES = 64 * 64


@dataclass(frozen=True)
class CouplingSpec:
    """Exponent rho of the coupling terms, the spec's one field.

    quad_degree, the exactness degree of the coupling's quadrature, is
    derived from rho: max(4, ceil(2 rho + 2)) integrates the quartic rho = 1
    integrand of P1 data exactly on elements where the interpolants do not
    change sign.  Frozen, so an Evaluation made under a spec stays valid for
    every equal spec.
    """

    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")

    @property
    def quad_degree(self) -> int:
        return max(4, math.ceil(2 * self.rho + 2))

    def lipschitz(self, a):
        """A Euclidean Lipschitz constant, (2 rho + 1) a^(2 rho), of the
        pointwise coupling (u, v) -> (|u|^rho |v|^rho v, |u|^rho u |v|^rho) on
        |u|, |v| <= a, for rho >= 1: its Jacobian is symmetric, with diagonal
        entries of at most rho a^(2 rho) and off-diagonal ones of at most
        (rho + 1) a^(2 rho), so its spectral norm is at most their sum.  inf
        for rho < 1, where the Jacobian entry rho |u|^(rho-1) |v|^(rho+1) is
        unbounded near u = 0, and where a^(2 rho) overflows; nan for a = nan."""
        if self.rho < 1.0:
            return math.inf
        return (2.0 * self.rho + 1.0) * np.float64(a) ** (2.0 * self.rho)


@dataclass
class DiscreteOperators:
    """Assembled matrices over free nodes plus the free-node index map, on
    the mesh of the boundary partition they were assembled from."""

    partition: BoundaryPartition
    free: np.ndarray
    M: sp.csr_matrix
    K: sp.csr_matrix
    B: sp.csr_matrix
    G: sp.csr_matrix
    T: sp.csr_matrix
    delta_min: float
    #: not an __init__ argument, so dataclasses.replace starts a copy with an
    #: empty cache instead of sharing factors of the old matrices
    _caches: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def mesh(self) -> Mesh:
        return self.partition.mesh

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_vertices

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Free-node vector -> full-node vector, zero on clamped nodes."""
        full = np.zeros(self.n_nodes)
        full[self.free] = vec
        return full

    def cache(self, key, builder):
        if key not in self._caches:
            self._caches[key] = builder()
        return self._caches[key]

    def KM(self):
        """(K, M) as the time loop applies them: read-only dense copies,
        made once and cached, when n_free^2 <= DENSE_ENTRIES; else the
        sparse matrices."""
        if self.n_free * self.n_free > DENSE_ENTRIES:
            return self.K, self.M
        return self.cache(("dense_KM",), lambda: (_read_only(self.K.toarray()),
                                                   _read_only(self.M.toarray())))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _element_geometry(coords: np.ndarray):
    """P1 gradients (nc, d+1, d) and volumes (nc,) of d-simplices with
    vertices coords (nc, d+1, d): grad phi_1..phi_d are the rows of
    E^{-T} = cofactor(E)/det(E), and grad phi_0 = -(their sum)."""
    edges = edge_vectors(coords)
    det = leibniz_det(edges)
    grads = cofactors(edges) / det[:, None, None]
    grad0 = -np.sum(grads, axis=1, keepdims=True)
    return np.concatenate([grad0, grads], axis=1), det / math.factorial(edges.shape[1])


def _element_matrices(coords: np.ndarray, x0):
    """Exact P1 element matrices (M_e, K_e, G_e), each (nc, d+1, d+1), of
    d-simplices with vertices coords (nc, d+1, d), for m(x) = x - x0:

      M_e[i, j] = int phi_i phi_j = |e| (1 + delta_ij) / ((d+1)(d+2))
      K_e[i, j] = |e| grad phi_i . grad phi_j
      G_e[i, j] = int phi_i m . grad phi_j
                = grad phi_j . |e| (sum_k m(x_k) + m(x_i)) / ((d+1)(d+2)),

    since m is affine, m = sum_k m(x_k) phi_k, and each gradient constant."""
    grads, vol = _element_geometry(coords)
    nloc = coords.shape[1]
    scale = vol / (nloc * (nloc + 1))
    m_local = scale[:, None, None] * (1.0 + np.eye(nloc))
    k_local = np.einsum("e,eid,ejd->eij", vol, grads, grads)
    m_vertex = radial_field(coords, x0)
    moments = scale[:, None, None] * (m_vertex.sum(axis=1, keepdims=True) + m_vertex)
    return m_local, k_local, moments @ grads.transpose(0, 2, 1)


def element_quadrature_tables(mesh: Mesh, degree: int):
    """(points, wdet, shapes): global quadrature points (ne, nq, dim),
    weights times Jacobian (ne, nq), P1 shape values (nq, nloc).  Setup and
    the time loop read volume_table, which takes the weights alone; this
    full table serves the tests' quadrature oracles and perfbench's count of
    coupling points."""
    coords = mesh.vertices[mesh.elements]
    return simplex_quadrature(coords, mesh.element_volumes(), degree)


def _scatter(n: int, conn: np.ndarray, local: np.ndarray) -> sp.csr_matrix:
    nloc = conn.shape[1]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def boundary_mass_matrix(mesh: Mesh, facet_indices: np.ndarray,
                         weights: np.ndarray | None = None) -> sp.csr_matrix:
    """Full-node matrix int_F w phi_i phi_j over the listed facets.

    `weights` is None (w = 1) or the values of w at the facet quadrature
    points, shape (len(facet_indices), nq).  Facet quadrature matches the
    boundary classification rule.
    """
    _, wts, shp = mesh.facet_quadrature()
    wts = wts[facet_indices] if weights is None else wts[facet_indices] * weights
    local = np.einsum("fq,qi,qj->fij", wts, shp, shp)
    return _scatter(mesh.n_vertices, mesh.facets[facet_indices], local)


def _delta_values(partition: BoundaryPartition, delta: float | None) -> np.ndarray:
    """delta at the facet quadrature points of the damped facets."""
    mdotnu = partition.mdotnu[partition.gamma1_facets]
    if delta is None:  # the decay choice delta = m . nu
        return mdotnu
    return np.full(mdotnu.shape, float(delta))


def assemble_operators(partition: BoundaryPartition,
                       delta: float | None = None) -> DiscreteOperators:
    """Assemble M, K, B, G, T on the mesh of the boundary split, with its
    GAMMA0 degrees of freedom eliminated.

    Parameters
    ----------
    partition : BoundaryPartition
        The split of classify_boundary; its mesh is the one assembled, so
        the operators and the split cannot belong to different meshes.
    delta : None | float
        Damping coefficient on the damped boundary part.  None selects
        m . nu (required for the decay estimates), as sampled by the boundary
        split; a float is a constant.  Assembly is rejected (ValueError)
        unless delta is positive and finite at every boundary quadrature
        point.
    """
    mesh = partition.mesh
    n = mesh.n_vertices
    m_local, k_local, g_local = _element_matrices(mesh.vertices[mesh.elements],
                                                  partition.x0)
    M_full = _scatter(n, mesh.elements, m_local)
    K_full = _scatter(n, mesh.elements, k_local)
    G_full = _scatter(n, mesh.elements, g_local)

    g1 = partition.gamma1_facets
    dvals = _delta_values(partition, delta)
    delta_min = float(np.min(dvals)) if dvals.size else float("inf")
    if not (np.isfinite(dvals).all() and delta_min > 0.0):
        raise ValueError(
            "damping coefficient must be positive and finite on the damped boundary; "
            f"sampled values span [{delta_min}, {np.max(dvals)}]"
        )
    T_full = boundary_mass_matrix(mesh, g1)
    B_full = boundary_mass_matrix(mesh, g1, weights=dvals)

    dirichlet = partition.dirichlet_vertices()
    free = np.setdiff1d(np.arange(n), dirichlet)

    def restrict(A):
        return A[free][:, free]

    return DiscreteOperators(
        partition=partition,
        free=free,
        M=restrict(M_full),
        K=restrict(K_full),
        B=restrict(B_full),
        G=restrict(G_full),
        T=restrict(T_full),
        delta_min=delta_min,
    )


class DenseCholesky:
    """Cholesky factor R^T R of a symmetric positive definite matrix held
    dense (LAPACK potrf), with the solve of a SuperLU factor (potrs)."""

    def __init__(self, A: sp.spmatrix):
        factor, info = scipy.linalg.lapack.dpotrf(A.toarray(), overwrite_a=True)
        if info != 0:
            raise RuntimeError(f"matrix is singular or not positive definite "
                               f"(leading minor {info} of {A.shape[0]})")
        self._factor = factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for rhs of shape (n,) or (n, k)."""
        return scipy.linalg.lapack.dpotrs(self._factor, rhs)[0]


def factor_spd(A: sp.spmatrix):
    """Factor of the symmetric positive definite matrix A, with a solve().

    A DenseCholesky when n^2 <= DENSE_FACTOR_ENTRIES.  Above, a sparse LU in
    SuperLU's symmetric mode: a minimum-degree order on the pattern of
    A + A^T, applied to rows and columns alike, with diagonal pivots (Liu,
    ACM TOMS 11, 1985; Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999).
    The default COLAMD column order with partial pivoting ignores the
    symmetry: on the 128^2 square it makes nnz(L+U) of K 1.56M instead of
    0.95M.  Raises RuntimeError for a singular A.
    """
    n = A.shape[0]
    if n * n <= DENSE_FACTOR_ENTRIES:
        return DenseCholesky(A)
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


@dataclass(frozen=True)
class QuadratureTable:
    """Quadrature on one cell set over free nodes: conn (ncells, nloc) sends
    clamped vertices to slot n_free, which reads as zero and is dropped;
    shapes (nq, nloc) are P1 values, w (ncells, nq) weights times measure.
    dense is None, or (Phi^T, (Phi w)^T) for the interpolation matrix Phi
    (ncells * nq, n_free) of the points, row c * nq + q for point q of cell
    c, and Phi w its rows times their weights; _table keeps it when Phi fits
    DENSE_ENTRIES.  Without it, reduce() visits the cells in consecutive
    blocks of block_cells."""

    conn: np.ndarray
    shapes: np.ndarray
    w: np.ndarray
    n_free: int
    block_cells: int
    dense: tuple[np.ndarray, np.ndarray] | None = None

    def _padded(self, x: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.n_free + 1)
        padded[:-1] = x
        return padded

    def _scatter(self, local: np.ndarray) -> np.ndarray:
        """Free-node vector sum_c local[c, k] over the cells' vertices k,
        for local (ncells, nloc); bincount adds in the same order as a
        sequential scatter-add."""
        return np.bincount(self.conn.ravel(), local.ravel(), self.n_free + 1)[:-1]

    def reduce(self, fields, kernel):
        """Integrals and Galerkin vectors of pointwise functions of the
        free-node fields, evaluated at all points at once (dense) or one
        block of cells at a time.

        kernel(*values) gets each field's values at the points, which it may
        overwrite, and returns (integrands, projected): two tuples of
        distinct arrays of the shape of the values, which reduce may
        overwrite.  Returns the list of the sums of each integrand times w,
        and one (len(projected), n_free) array whose rows are the Galerkin
        vectors sum_cq f[c, q] w[c, q] phi_i(x_cq) of the projected arrays f,
        over all cells.

        With `dense`, there is one block: the values of all points are one
        product with Phi^T, each total is a dot product with w and each
        vector a product with (Phi w)^T, written into its row.  Without it,
        the values come in blocks of block_cells cells, (nb, nq) each,
        gathered through conn (_blockwise).
        """
        if self.dense is not None:
            phi_t, phi_w_t = self.dense
            integrands, projected = kernel(*(np.asarray(fields) @ phi_t))
            w = self.w.ravel()
            vectors = np.empty((len(projected), self.n_free))
            for f, row in zip(projected, vectors):
                np.matmul(phi_w_t, f, out=row)
            return [f @ w for f in integrands], vectors
        integrands, local = self._blockwise(kernel, [self._padded(x) for x in fields])
        vectors = np.empty((len(local), self.n_free))
        for rows, vector in zip(local, vectors):
            vector[:] = self._scatter(rows)
        return [np.sum(f) for f in integrands], vectors

    def _blockwise(self, kernel, padded):
        """The kernel's arrays over all cells, one block at a time: each
        integrand times w into one (ncells, nq) buffer, and each projected
        array times w, then times shapes, into one (ncells, nloc) buffer of
        the cells' vertex contributions, while the block is in cache.  Each
        buffer is reduced in one call after the last block (np.sum, or one
        bincount in _scatter), so every sum adds in the order of a single
        pass over the cells: the rows of a product do not depend on the
        block they sit in, as long as blocks are multiples of 8 cells (see
        _table), while a sum of per-block sums would add in another order."""
        shapes_t = self.shapes.T
        buffers = None
        for start in range(0, len(self.conn), self.block_cells):
            cells = slice(start, start + self.block_cells)
            conn = self.conn[cells]
            w = self.w[cells]
            integrands, projected = kernel(*[x[conn] @ shapes_t for x in padded])
            if buffers is None:
                buffers = ([np.empty(self.w.shape) for _ in integrands],
                           [np.empty(self.conn.shape) for _ in projected])
            for buf, block in zip(buffers[0], integrands):
                np.multiply(block, w, out=buf[cells])
            for buf, block in zip(buffers[1], projected):
                np.matmul(np.multiply(block, w, out=block), self.shapes, out=buf[cells])
        return buffers


def _table(operators: DiscreteOperators, cells: np.ndarray, shapes: np.ndarray,
           w: np.ndarray) -> QuadratureTable:
    slot = np.full(operators.n_nodes, operators.n_free)
    slot[operators.free] = np.arange(operators.n_free)
    # a multiple of 8 cells: OpenBLAS rounds the rows past the last multiple
    # of its kernel width differently (seen on blocks of 1, 3 and 7 cells)
    block_cells = max(BLOCK_POINTS // len(shapes) // 8 * 8, 8)
    conn = slot[cells]
    n_points = w.size
    dense = None
    if n_points * operators.n_free <= DENSE_ENTRIES:
        # each point has a distinct free node per vertex: only the dropped
        # slot n_free repeats, so assigning the shape values adds nothing
        phi = np.zeros((n_points, operators.n_free + 1))
        points = np.arange(n_points).reshape(w.shape)
        phi[points[:, :, None], conn[:, None, :]] = shapes
        phi_t = np.ascontiguousarray(phi[:, :-1].T)
        dense = (phi_t, phi_t * w.ravel())
    return QuadratureTable(conn, shapes, w, operators.n_free, block_cells, dense)


def volume_table(operators: DiscreteOperators, degree: int) -> QuadratureTable:
    """Table of the mesh elements at quadrature `degree`, built per call."""
    wdet, shapes = simplex_weights(operators.mesh.dim, operators.mesh.element_volumes(),
                                   degree)
    return _table(operators, operators.mesh.elements, shapes, wdet)


def _coupling_table(operators: DiscreteOperators, spec: CouplingSpec) -> QuadratureTable:
    """volume_table at the coupling degree, cached for the time loop."""
    degree = spec.quad_degree
    return operators.cache(("volume", degree), lambda: volume_table(operators, degree))


def gamma1_table(operators: DiscreteOperators) -> QuadratureTable:
    """Table of the damped facets at the boundary quadrature degree, built
    per call."""
    g1 = operators.partition.gamma1_facets
    _, wts, shapes = operators.mesh.facet_quadrature()
    return _table(operators, operators.mesh.facets[g1], shapes, wts[g1])


def _coupling_kernel(rho: float, energy: bool):
    """Pointwise kernel of the coupling pass for QuadratureTable.reduce:
    projected (|u|^rho |v|^rho v, |u|^rho u |v|^rho) and, with `energy`,
    the integrand (|u|^rho u)(|v|^rho v).  Each product is rounded as in
    those formulas, left to right, but formed in place where it can be (the
    kernel owns its inputs), so the energy adds two products to the pass."""
    def kernel(uq, vq):
        au = np.abs(uq)
        av = np.abs(vq)
        if rho != 1.0:  # pow(x, 1) = x exactly
            au **= rho
            av **= rho
        fv = au * uq
        au *= av
        au *= vq
        if energy:
            vq *= av
            vq *= fv
        fv *= av
        return ((vq,) if energy else ()), (au, fv)

    return kernel


def coupling_vectors(uv, spec: CouplingSpec, operators: DiscreteOperators,
                     energy: bool = False):
    """Galerkin projections of the coupling nonlinearities for the pair
    uv = (u, v) of free-node vectors.

    Returns F, a (2, n_free) array whose rows are
      F_u[i] = int |u_h|^rho |v_h|^rho v_h phi_i dx
      F_v[i] = int |u_h|^rho u_h |v_h|^rho phi_i dx,
    so that it unpacks as F_u, F_v; with energy=True, the pair
    (F, coupling_energy(uv, ...)) from the same quadrature pass, each bit for
    bit what the separate calls return.
    """
    rho = spec.rho
    totals, F = _coupling_table(operators, spec).reduce(uv, _coupling_kernel(rho, energy))
    if energy:
        return F, float(totals[0] / (rho + 1.0))
    return F


def coupling_energy(uv, spec: CouplingSpec, operators: DiscreteOperators) -> float:
    """(1/(rho+1)) int (|u_h|^rho u_h)(|v_h|^rho v_h) dx for uv = (u, v).

    Sign-indefinite: v = -u makes it strictly negative for nonzero u.  Its
    gradient with respect to the u coefficients is exactly F_u (the 1/(rho+1)
    prefactor cancels the rho+1 produced by differentiating |u|^rho u).
    Computed by the coupling_vectors pass, whose vectors it drops.
    """
    return coupling_vectors(uv, spec, operators, energy=True)[1]
