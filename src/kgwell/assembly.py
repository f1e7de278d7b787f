"""P1 finite-element assembly for the damped coupled wave system.

Operators (all restricted to free nodes, i.e. nodes not clamped on the
GAMMA0 part of the boundary):

* M  mass                 (phi_i, phi_j)
* K  stiffness            (grad phi_i, grad phi_j)      -- the V inner product
* B  boundary damping     int_{Gamma1} delta phi_i phi_j
* G  multiplier matrix    int phi_i (m . grad phi_j)    -- not symmetric
* T  boundary mass        int_{Gamma1} phi_i phi_j

Nonlinear integrands (coupling |u|^rho |v|^rho v, L^p norms, GAMMA1 traces)
are evaluated pointwise (they are continuous; no regularization of |.|^rho is
needed) by fixed Gauss quadrature through one cached QuadratureTable per cell
set: the elements at a given degree, and the GAMMA1 facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import BOUNDARY_QUAD_DEGREE, BoundaryPartition, Mesh, radial_field
from .quadrature import p1_shape_segment, p1_shape_triangle, segment_rule, triangle_rule

#: Volume quadrature degree for the bilinear forms (mass integrand is
#: quadratic, multiplier integrand cubic at most; 4 is exact for all).
VOLUME_QUAD_DEGREE = 4


@dataclass
class CouplingSpec:
    """Exponent and quadrature exactness degree for the coupling terms.

    The default degree max(4, ceil(2 rho + 2)) integrates the quartic
    rho = 1 integrand of P1 data exactly on elements where the interpolants
    do not change sign.
    """

    rho: float
    quad_degree: int | None = None

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        minimum = math.ceil(2 * self.rho + 2)
        if self.quad_degree is None:
            self.quad_degree = max(4, minimum)
        elif self.quad_degree < minimum:
            raise ValueError(
                f"quadrature degree {self.quad_degree} below exactness heuristic {minimum}"
            )


@dataclass
class DiscreteOperators:
    """Assembled matrices over free nodes plus the free-node index map."""

    mesh: Mesh
    partition: BoundaryPartition
    free: np.ndarray
    M: sp.csr_matrix
    K: sp.csr_matrix
    B: sp.csr_matrix
    G: sp.csr_matrix
    T: sp.csr_matrix
    delta_min: float
    #: delta at the GAMMA1 facet quadrature points (n_gamma1, nq), as in B
    delta_gamma1: np.ndarray
    _caches: dict = field(default_factory=dict, repr=False)

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


def _element_geometry(mesh: Mesh):
    """Per-element P1 gradients (ne, nloc, dim) and volumes (ne,)."""
    coords = mesh.vertices[mesh.elements]
    vol = mesh.element_volumes()
    if mesh.dim == 1:
        h = vol[:, None, None]
        grads = np.concatenate([-1.0 / h, 1.0 / h], axis=1)
        return grads, vol
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    det = 2.0 * vol
    # rows of inv([e1 e2]) give grad of the two non-corner shape functions
    g1 = np.column_stack([e2[:, 1], -e2[:, 0]]) / det[:, None]
    g2 = np.column_stack([-e1[:, 1], e1[:, 0]]) / det[:, None]
    g0 = -(g1 + g2)
    return np.stack([g0, g1, g2], axis=1), vol


def _volume_rule(mesh: Mesh, degree: int):
    """Reference rule and shape table for the mesh's element type."""
    if mesh.dim == 1:
        pts, wts = segment_rule(degree)
        return pts.reshape(-1, 1), wts, p1_shape_segment(pts)
    pts, wts = triangle_rule(degree)
    return pts, wts, p1_shape_triangle(pts)


def element_quadrature_tables(mesh: Mesh, degree: int):
    """(points, wdet, shapes): global quadrature points (ne, nq, dim),
    weights times Jacobian (ne, nq), P1 shape values (nq, nloc)."""
    ref, wts, shapes = _volume_rule(mesh, degree)
    coords = mesh.vertices[mesh.elements]
    pts = np.einsum("qk,ekd->eqd", shapes, coords)
    vol = mesh.element_volumes()
    jac = vol if mesh.dim == 1 else 2.0 * vol  # reference measures 1 and 1/2
    wdet = wts[None, :] * jac[:, None]
    return pts, wdet, shapes


def _scatter(n: int, conn: np.ndarray, local: np.ndarray) -> sp.csr_matrix:
    nloc = conn.shape[1]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def boundary_mass_matrix(mesh: Mesh, facet_indices: np.ndarray,
                         weight=None) -> sp.csr_matrix:
    """Full-node matrix int_F w phi_i phi_j over the listed facets.

    `weight` is None (w = 1) or a callable mapping points (..., dim) to
    values.  Facet quadrature matches the boundary classification rule.
    """
    n = mesh.n_vertices
    if len(facet_indices) == 0:
        return sp.csr_matrix((n, n))
    pts, wts, shp = mesh.facet_quadrature(BOUNDARY_QUAD_DEGREE)
    pts, wts = pts[facet_indices], wts[facet_indices]
    conn = mesh.facets[facet_indices]
    w = np.ones(wts.shape) if weight is None else np.asarray(weight(pts), float)
    local = np.einsum("fq,qi,qj->fij", wts * w, shp, shp)
    return _scatter(n, conn, local)


def _delta_values(partition: BoundaryPartition, delta, pts, normals):
    if delta is None:  # the decay choice delta = m . nu
        return np.einsum("fqd,fd->fq", radial_field(pts, partition.x0), normals)
    if np.isscalar(delta):
        return np.full(pts.shape[:2], float(delta))
    return np.asarray(delta(pts), float)


def assemble_operators(mesh: Mesh, partition: BoundaryPartition, delta=None,
                       delta_floor: float = 0.0) -> DiscreteOperators:
    """Assemble M, K, B, G, T with GAMMA0 degrees of freedom eliminated.

    Parameters
    ----------
    delta : None | float | callable
        Damping coefficient on the damped boundary part.  None selects
        m . nu (required for the decay estimates); a float is a constant;
        a callable receives points of shape (..., dim).
    delta_floor : float
        Assembly is rejected if delta falls below this floor (and the floor
        must leave delta strictly positive) at any boundary quadrature point.
    """
    n = mesh.n_vertices
    grads, vol = _element_geometry(mesh)
    pts, wdet, shapes = element_quadrature_tables(mesh, VOLUME_QUAD_DEGREE)

    m_local = np.einsum("eq,qi,qj->eij", wdet, shapes, shapes)
    k_local = np.einsum("e,eid,ejd->eij", vol, grads, grads)
    mfield = np.einsum("eqd,ejd->eqj", radial_field(pts, partition.x0), grads)
    g_local = np.einsum("eq,qi,eqj->eij", wdet, shapes, mfield)

    M_full = _scatter(n, mesh.elements, m_local)
    K_full = _scatter(n, mesh.elements, k_local)
    G_full = _scatter(n, mesh.elements, g_local)

    g1 = partition.gamma1_facets
    fpts, fwts, _ = mesh.facet_quadrature(BOUNDARY_QUAD_DEGREE)
    dvals = _delta_values(partition, delta, fpts[g1], mesh.facet_normals[g1])
    delta_min = float(np.min(dvals)) if dvals.size else float("inf")
    if delta_min <= max(delta_floor, 0.0):
        raise ValueError(
            f"damping coefficient must stay above {max(delta_floor, 0.0)} on the damped "
            f"boundary; minimum sampled value is {delta_min}"
        )
    T_full = boundary_mass_matrix(mesh, g1)
    B_full = boundary_mass_matrix(mesh, g1, weight=lambda p, d=dvals: d)

    dirichlet = partition.dirichlet_vertices()
    free = np.setdiff1d(np.arange(n), dirichlet)

    def restrict(A):
        return sp.csr_matrix(A.tocsc()[:, free].tocsr()[free, :])

    ops = DiscreteOperators(
        mesh=mesh,
        partition=partition,
        free=free,
        M=restrict(M_full),
        K=restrict(K_full),
        B=restrict(B_full),
        G=restrict(G_full),
        T=restrict(T_full),
        delta_min=delta_min,
        delta_gamma1=dvals,
    )
    return ops


def _uv_arrays(state):
    if hasattr(state, "u") and hasattr(state, "v"):
        return np.asarray(state.u, float), np.asarray(state.v, float)
    u, v = state
    return np.asarray(u, float), np.asarray(v, float)


@dataclass(frozen=True)
class QuadratureTable:
    """Quadrature on one cell set over free nodes: conn (ncells, nloc) sends
    clamped vertices to slot n_free, which reads as zero and is dropped;
    shapes (nq, nloc) are P1 values, w (ncells, nq) weights times measure."""

    conn: np.ndarray
    shapes: np.ndarray
    w: np.ndarray
    n_free: int

    def values(self, x: np.ndarray) -> np.ndarray:
        """Values (ncells, nq) of the free-node field x at the points."""
        padded = np.zeros(self.n_free + 1)
        padded[:-1] = x
        return padded[self.conn] @ self.shapes.T

    def project(self, fw: np.ndarray) -> np.ndarray:
        """Galerkin vector sum_cq fw[c, q] phi_i(x_cq) for fw already times
        `w`; bincount adds in the same order as a sequential scatter-add."""
        local = fw @ self.shapes
        return np.bincount(self.conn.ravel(), local.ravel(), self.n_free + 1)[:-1]


def _table(operators: DiscreteOperators, cells: np.ndarray, shapes: np.ndarray,
           w: np.ndarray) -> QuadratureTable:
    slot = np.full(operators.n_nodes, operators.n_free)
    slot[operators.free] = np.arange(operators.n_free)
    return QuadratureTable(slot[cells], shapes, w, operators.n_free)


def volume_table(operators: DiscreteOperators, degree: int) -> QuadratureTable:
    """Cached table of the mesh elements at quadrature `degree`."""
    def build():
        _, wdet, shapes = element_quadrature_tables(operators.mesh, degree)
        return _table(operators, operators.mesh.elements, shapes, wdet)
    return operators.cache(("volume", degree), build)


def gamma1_table(operators: DiscreteOperators) -> QuadratureTable:
    """Cached table of the damped facets at the boundary quadrature degree."""
    def build():
        g1 = operators.partition.gamma1_facets
        _, wts, shapes = operators.mesh.facet_quadrature(BOUNDARY_QUAD_DEGREE)
        return _table(operators, operators.mesh.facets[g1], shapes, wts[g1])
    return operators.cache(("gamma1",), build)


def coupling_vectors(state, spec: CouplingSpec, mesh: Mesh,
                     operators: DiscreteOperators):
    """Galerkin projections of the coupling nonlinearities.

    Returns (F_u, F_v) over free nodes with
      F_u[i] = int |u_h|^rho |v_h|^rho v_h phi_i dx
      F_v[i] = int |u_h|^rho u_h |v_h|^rho phi_i dx
    """
    u, v = _uv_arrays(state)
    q = volume_table(operators, spec.quad_degree)
    uq, vq = q.values(u), q.values(v)
    rho = spec.rho
    au = np.abs(uq) ** rho
    av = np.abs(vq) ** rho
    return q.project((au * av * vq) * q.w), q.project((au * uq * av) * q.w)


def coupling_energy(state, spec: CouplingSpec, mesh: Mesh,
                    operators: DiscreteOperators) -> float:
    """(1/(rho+1)) int (|u_h|^rho u_h)(|v_h|^rho v_h) dx.

    Sign-indefinite: v = -u makes it strictly negative for nonzero u.  Its
    gradient with respect to the u coefficients is exactly F_u (the 1/(rho+1)
    prefactor cancels the rho+1 produced by differentiating |u|^rho u).
    """
    u, v = _uv_arrays(state)
    q = volume_table(operators, spec.quad_degree)
    uq, vq = q.values(u), q.values(v)
    rho = spec.rho
    integrand = (np.abs(uq) ** rho * uq) * (np.abs(vq) ** rho * vq)
    return float(np.sum(integrand * q.w) / (rho + 1.0))


def write_coo_text(matrix, path) -> None:
    """Dump a sparse matrix as 'row col value' lines (row-major order),
    full double precision, for external cross-checks."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for r, c, x in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {x:.17g}\n")


def read_coo_text(path, shape) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            vals.append(float(parts[2]))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
