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
needed) by fixed Gauss quadrature through a QuadratureTable per cell set: the
elements at a given degree, and the GAMMA1 facets.  QuadratureTable.reduce
runs a pointwise kernel over a fixed partition of the cells into blocks of
about BLOCK_POINTS quadrature points, so its temporaries are block-sized; it
writes each block's results into one buffer over all cells and reduces that
buffer in one call, so every sum adds in the order of a single pass.  The
coupling's table is cached on the operators for the time loop; tables used
only during setup are built per call.

K and the time loop's step matrix are symmetric positive definite, and
factor_spd is the one sparse LU of either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (BoundaryPartition, Mesh, cofactors, edge_vectors, leibniz_det,
                       radial_field)
from .quadrature import simplex_quadrature, simplex_weights

#: Quadrature points per block of cells in QuadratureTable.reduce: 4096
#: triangles at 9 points.  Of 256 to 8192 triangles per block, 4096 made
#: coupling_vectors fastest on the 64^2 and 128^2 squares (2.23 ms a call at
#: 128^2, 2.66 ms in one pass); a 50-element interval is one block.
BLOCK_POINTS = 36864


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
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")

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
    n = mesh.n_vertices
    if len(facet_indices) == 0:
        return sp.csr_matrix((n, n))
    _, wts, shp = mesh.facet_quadrature()
    wts = wts[facet_indices] if weights is None else wts[facet_indices] * weights
    local = np.einsum("fq,qi,qj->fij", wts, shp, shp)
    return _scatter(n, mesh.facets[facet_indices], local)


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
        unless delta is positive at every boundary quadrature point.
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
    if delta_min <= 0.0:
        raise ValueError(
            "damping coefficient must be positive on the damped boundary; "
            f"minimum sampled value is {delta_min}"
        )
    T_full = boundary_mass_matrix(mesh, g1)
    B_full = boundary_mass_matrix(mesh, g1, weights=dvals)

    dirichlet = partition.dirichlet_vertices()
    free = np.setdiff1d(np.arange(n), dirichlet)

    def restrict(A):
        return sp.csr_matrix(A.tocsc()[:, free].tocsr()[free, :])

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


def factor_spd(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of the symmetric positive definite matrix A.

    SuperLU's symmetric mode: a minimum-degree order on the pattern of
    A + A^T, applied to rows and columns alike, with diagonal pivots (Liu,
    ACM TOMS 11, 1985; Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999).
    The default COLAMD column order with partial pivoting ignores the
    symmetry: on the 128^2 square it makes nnz(L+U) of K 1.56M instead of
    0.95M.  Raises RuntimeError for an exactly singular A.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


@dataclass(frozen=True)
class QuadratureTable:
    """Quadrature on one cell set over free nodes: conn (ncells, nloc) sends
    clamped vertices to slot n_free, which reads as zero and is dropped;
    shapes (nq, nloc) are P1 values, w (ncells, nq) weights times measure.
    reduce() visits the cells in consecutive blocks of block_cells."""

    conn: np.ndarray
    shapes: np.ndarray
    w: np.ndarray
    n_free: int
    block_cells: int

    def _padded(self, x: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.n_free + 1)
        padded[:-1] = x
        return padded

    def values(self, x: np.ndarray) -> np.ndarray:
        """Values (ncells, nq) of the free-node field x at the points."""
        return self._padded(x)[self.conn] @ self.shapes.T

    def project(self, fw: np.ndarray) -> np.ndarray:
        """Galerkin vector sum_cq fw[c, q] phi_i(x_cq) for fw already times
        `w`; bincount adds in the same order as a sequential scatter-add."""
        local = fw @ self.shapes
        return np.bincount(self.conn.ravel(), local.ravel(), self.n_free + 1)[:-1]

    def reduce(self, fields, kernel):
        """Integrals and Galerkin vectors of pointwise functions of the
        free-node fields, evaluated one block of cells at a time.

        kernel(*values) gets each field's values (nb, nq) on one block, which
        it may overwrite, and returns (integrands, projected): two tuples of
        (nb, nq) arrays.
        Returns the np.sum of each integrand times w, and the project() of
        each projected array times w, over all cells.  Each product with w is
        written block by block into one (ncells, nq) buffer, which is reduced
        in one call, so every sum adds in the order of a single pass over the
        cells (projecting block by block would not: BLAS picks its kernel,
        and with it the rounding, by matrix size).
        """
        integrands, projected = self._blockwise(kernel, [self._padded(x) for x in fields])
        return [np.sum(f) for f in integrands], [self.project(f) for f in projected]

    def _blockwise(self, kernel, padded):
        """The kernel's arrays times w over all cells, one block at a time."""
        shapes_t = self.shapes.T
        buffers = None
        for start in range(0, len(self.conn), self.block_cells):
            cells = slice(start, start + self.block_cells)
            conn = self.conn[cells]
            integrands, projected = kernel(*[x[conn] @ shapes_t for x in padded])
            if buffers is None:
                buffers = ([np.empty(self.w.shape) for _ in integrands],
                           [np.empty(self.w.shape) for _ in projected])
            for buf, block in zip(buffers[0] + buffers[1], integrands + projected):
                np.multiply(block, self.w[cells], out=buf[cells])
        return buffers


def _table(operators: DiscreteOperators, cells: np.ndarray, shapes: np.ndarray,
           w: np.ndarray) -> QuadratureTable:
    slot = np.full(operators.n_nodes, operators.n_free)
    slot[operators.free] = np.arange(operators.n_free)
    # a multiple of 8 cells: OpenBLAS rounds the rows past the last multiple
    # of its kernel width differently (seen on blocks of 1, 3 and 7 cells)
    block_cells = max(BLOCK_POINTS // len(shapes) // 8 * 8, 8)
    return QuadratureTable(slot[cells], shapes, w, operators.n_free, block_cells)


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

    Returns (F_u, F_v) over free nodes with
      F_u[i] = int |u_h|^rho |v_h|^rho v_h phi_i dx
      F_v[i] = int |u_h|^rho u_h |v_h|^rho phi_i dx
    and, with energy=True, (F_u, F_v, coupling_energy(uv, ...)) from the same
    quadrature pass, each bit for bit what the separate calls return.
    """
    rho = spec.rho
    totals, (fu, fv) = _coupling_table(operators, spec).reduce(uv, _coupling_kernel(rho, energy))
    if energy:
        return fu, fv, float(totals[0] / (rho + 1.0))
    return fu, fv


def coupling_energy(uv, spec: CouplingSpec, operators: DiscreteOperators) -> float:
    """(1/(rho+1)) int (|u_h|^rho u_h)(|v_h|^rho v_h) dx for uv = (u, v).

    Sign-indefinite: v = -u makes it strictly negative for nonzero u.  Its
    gradient with respect to the u coefficients is exactly F_u (the 1/(rho+1)
    prefactor cancels the rho+1 produced by differentiating |u|^rho u).
    Computed by the coupling_vectors pass, whose vectors it drops.
    """
    return coupling_vectors(uv, spec, operators, energy=True)[2]
