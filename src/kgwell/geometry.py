"""Simplicial meshes (1D intervals, 2D triangulated rectangles), the radial
field m(x) = x - x0, and the split of the boundary into a clamped part
(m . nu <= 0) and a damped part (m . nu > 0).

One simplex path serves every dimension.  With E the edge vectors from a
cell's vertex 0, volumes are det(E)/d! (signed), facet measures
sqrt(det(E E^T))/(d-1)! and P1 gradients cofactor(E)/det(E), with Leibniz
determinants; facets are integrated by quadrature.simplex_quadrature, and
cells by quadrature.simplex_weights or, for the P1 forms, in closed form.
A mesh is frozen, so it computes its volumes, facet measures and facet
quadrature once and hands out the same read-only arrays.  The boundary rule
is a fact of the mesh: facet_quadrature takes no degree, so the boundary
split and the assembled boundary integrals sample the same points.

Two geometric constants drive every later estimate:

* R:  largest |m(x)| over the mesh vertices (exact for polytopes, since the
  maximum of a convex function is attained at a vertex);
* m0: smallest m . nu over the quadrature points of damped facets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import simplex_quadrature

#: Degree of Mesh.facet_quadrature, the one boundary rule: classification
#: and boundary-matrix assembly share it, so m0 bounds the damping
#: coefficient at the points where it is sampled.
BOUNDARY_QUAD_DEGREE = 5

GAMMA0 = 0
GAMMA1 = 1


class MeshError(Exception):
    """Invalid mesh topology or geometry, or a boundary that cannot be split."""


def edge_vectors(coords: np.ndarray) -> np.ndarray:
    """Edge vectors E (..., k, dim) from vertex 0 of simplices (..., k+1, dim)."""
    return coords[..., 1:, :] - coords[..., :1, :]


def leibniz_det(A: np.ndarray) -> np.ndarray:
    """Determinants of stacked square matrices (..., n, n) as the Leibniz sum
    over permutations; 1 for n = 0."""
    total = np.zeros(A.shape[:-2])
    for perm in itertools.permutations(range(A.shape[-1])):
        term = np.ones(A.shape[:-2])
        for i, j in enumerate(perm):
            term = term * A[..., i, j]
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total = total - term if odd else total + term
    return total


def cofactors(A: np.ndarray) -> np.ndarray:
    """Cofactor matrices of stacked square matrices (..., n, n)."""
    cof = np.empty(A.shape)
    for i, j in itertools.product(range(A.shape[-1]), repeat=2):
        minor = leibniz_det(np.delete(np.delete(A, i, axis=-2), j, axis=-1))
        cof[..., i, j] = -minor if (i + j) % 2 else minor
    return cof


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh with an explicit boundary facet list.

    dim           1 or 2
    vertices      (nv, dim) coordinates
    elements      (ne, dim+1) vertex indices (positively oriented)
    facets        (nf, dim) vertex indices of boundary facets
    facet_normals (nf, dim) outward unit normals
    """

    dim: int
    vertices: np.ndarray
    elements: np.ndarray
    facets: np.ndarray
    facet_normals: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise MeshError(f"unsupported dimension {self.dim}")
        object.__setattr__(self, "vertices", np.asarray(self.vertices, float).reshape(-1, self.dim))
        object.__setattr__(self, "elements", np.asarray(self.elements, int).reshape(-1, self.dim + 1))
        object.__setattr__(self, "facets", np.asarray(self.facets, int).reshape(-1, self.dim))
        object.__setattr__(self, "facet_normals", np.asarray(self.facet_normals, float).reshape(-1, self.dim))
        if len(self.facets) != len(self.facet_normals):
            raise MeshError("facet and normal counts differ")
        lengths = np.linalg.norm(self.facet_normals, axis=1)
        if np.any(np.abs(lengths - 1.0) > 1e-12):
            raise MeshError("facet normals must have unit length")
        object.__setattr__(self, "_memo", {})
        if np.any(self.element_volumes() <= 0.0):
            raise MeshError("element volumes must be strictly positive")
        object.__setattr__(self, "_facet_owner", self._find_owners())
        for arr in (self.vertices, self.elements, self.facets, self.facet_normals):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def _once(self, key, build):
        """build() on the first call with `key`, its arrays made read-only;
        the same result on every later call."""
        if key not in self._memo:
            result = build()
            for arr in result if isinstance(result, tuple) else (result,):
                arr.setflags(write=False)
            self._memo[key] = result
        return self._memo[key]

    def element_volumes(self) -> np.ndarray:
        """Signed element volumes det(E)/d!, positive when oriented."""
        return self._once("volumes", lambda: leibniz_det(
            edge_vectors(self.vertices[self.elements])) / math.factorial(self.dim))

    def facet_measures(self) -> np.ndarray:
        """Facet sizes sqrt(det(E E^T))/(d-1)!: edge lengths in 2D, counting
        measure 1 for points."""
        def build():
            edges = edge_vectors(self.vertices[self.facets])
            gram = np.sum(edges[:, :, None, :] * edges[:, None, :, :], axis=-1)
            return np.sqrt(leibniz_det(gram)) / math.factorial(self.dim - 1)
        return self._once("facet_measures", build)

    def facet_owner(self) -> np.ndarray:
        """Index of the unique element owning each boundary facet."""
        return self._facet_owner

    def facet_quadrature(self):
        """Quadrature of degree BOUNDARY_QUAD_DEGREE on every facet.

        Returns (points, weights, shapes): points (nf, nq, dim), weights
        (nf, nq) absorbing the facet measure, shapes (nq, dim) P1 values of
        the facet's own vertices at the points.
        """
        return self._once("facet_quadrature", lambda: simplex_quadrature(
            self.vertices[self.facets], self.facet_measures(), BOUNDARY_QUAD_DEGREE))

    def min_diameter(self) -> float:
        """Smallest element diameter (longest vertex-pair distance)."""
        coords = self.vertices[self.elements]
        pairs = itertools.combinations(range(self.dim + 1), 2)
        lengths = [np.linalg.norm(coords[:, i] - coords[:, j], axis=1) for i, j in pairs]
        return float(np.min(np.max(lengths, axis=0)))

    def _find_owners(self) -> np.ndarray:
        """Owner of each facet, by binary search over sorted element-face keys."""
        nv = self.n_vertices
        radix = nv ** np.arange(self.dim)
        faces = [np.delete(self.elements, k, axis=1) for k in range(self.dim + 1)]
        face_keys = np.sort(np.concatenate(faces), axis=1) @ radix
        order = np.argsort(face_keys)
        facets = np.sort(self.facets, axis=1)
        keys = np.where(np.all((facets >= 0) & (facets < nv), axis=1), facets @ radix, -1)
        first = np.searchsorted(face_keys[order], keys)
        counts = np.searchsorted(face_keys[order], keys, side="right") - first
        if np.any(counts != 1):
            i = np.argmax(counts != 1)
            raise MeshError(f"boundary facet {self.facets[i].tolist()} belongs to "
                            f"{counts[i]} elements, expected exactly 1")
        owners = order[first] % self.n_elements  # face k*ne + e lies on element e
        owners.setflags(write=False)
        return owners


def build_interval_mesh(a: float, b: float, elements: int) -> Mesh:
    """Uniform mesh of the interval (a, b) with endpoint facets."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if elements < 1:
        raise ValueError("need at least one element")
    x = np.linspace(a, b, elements + 1)
    conn = np.column_stack([np.arange(elements), np.arange(1, elements + 1)])
    facets = np.array([[0], [elements]])
    normals = np.array([[-1.0], [1.0]])
    return Mesh(1, x[:, None], conn, facets, normals)


def build_rectangle_mesh(corner_lo, corner_hi, nx: int, ny: int) -> Mesh:
    """Structured triangulation of a rectangle; each cell split along the
    lo-to-hi diagonal so uniform refinement nests the coarse space."""
    lo = np.asarray(corner_lo, float)
    hi = np.asarray(corner_hi, float)
    if lo.shape != (2,) or hi.shape != (2,):
        raise ValueError("corners must be 2-vectors")
    if not np.all(lo < hi):
        raise ValueError("degenerate rectangle: need corner_lo < corner_hi componentwise")
    if nx < 1 or ny < 1:
        raise ValueError("need nx, ny >= 1")
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    row = nx + 1  # vertex (i, j) is j * row + i
    v00 = (np.arange(ny)[:, None] * row + np.arange(nx)).ravel()  # cells row by row
    v10, v01 = v00 + 1, v00 + row
    v11 = v01 + 1
    elems = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    i, j = np.arange(nx), np.arange(ny) * row
    bottom = np.stack([i, i + 1], axis=1)
    left = np.stack([j, j + row], axis=1)
    # per cell column the bottom then the top facet, per cell row the left then the right
    facets = np.concatenate([np.stack([bottom, bottom + ny * row], axis=1).reshape(-1, 2),
                             np.stack([left, left + nx], axis=1).reshape(-1, 2)])
    normals = np.concatenate([np.tile([[0.0, -1.0], [0.0, 1.0]], (nx, 1)),
                              np.tile([[-1.0, 0.0], [1.0, 0.0]], (ny, 1))])
    return Mesh(2, verts, elems, facets, normals)


@dataclass(frozen=True)
class BoundaryPartition:
    """Facet labels (GAMMA0 clamped / GAMMA1 damped) for a given star point,
    the samples mdotnu (nf, nq) of m . nu at the facet quadrature points
    that decided them (read-only; the damping delta = m . nu is assembled
    from them), and the geometric constants R and m0."""

    mesh: Mesh
    x0: np.ndarray
    labels: np.ndarray
    mdotnu: np.ndarray
    R: float
    m0: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def gamma1_facets(self) -> np.ndarray:
        return np.flatnonzero(self.labels == GAMMA1)

    @property
    def gamma0_facets(self) -> np.ndarray:
        return np.flatnonzero(self.labels == GAMMA0)

    def dirichlet_vertices(self) -> np.ndarray:
        """Vertices lying on any clamped facet (sorted, unique)."""
        g0 = self.gamma0_facets
        if len(g0) == 0:
            return np.array([], dtype=int)
        return np.unique(self.mesh.facets[g0].ravel())


def radial_field(points: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """m(x) = x - x0 evaluated at an array of points (..., dim)."""
    return points - np.asarray(x0, float)


def _labels_from_samples(mdotnu: np.ndarray) -> np.ndarray:
    """Label of each facet from m . nu at its quadrature points, one row per
    facet: GAMMA1 where every value is positive, GAMMA0 where none is."""
    damped = np.all(mdotnu > 0.0, axis=1)
    if not np.all(damped | np.all(mdotnu <= 0.0, axis=1)):
        # m . nu = (x - x0) . nu is constant along a straight facet whose
        # normal is perpendicular to it, so only a hand-built facet normal
        # that is not perpendicular to its facet can trigger this check
        raise MeshError(
            "m . nu changes sign across the quadrature points of a facet; refine the mesh"
        )
    return np.where(damped, GAMMA1, GAMMA0)


def classify_boundary(mesh: Mesh, x0) -> BoundaryPartition:
    """Split the boundary by the sign of m . nu at facet quadrature points.

    A facet is damped (GAMMA1) when m . nu > 0 at every quadrature point and
    clamped (GAMMA0) when m . nu <= 0 at every point.  Raises MeshError for
    a sign change within one facet and when no facet is damped.  The split
    holds the mesh it labels, and assemble_operators reads the mesh from it.
    """
    x0 = np.atleast_1d(np.asarray(x0, float))
    if x0.shape != (mesh.dim,):
        raise ValueError(f"x0 must have {mesh.dim} coordinates")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    pts, _, _ = mesh.facet_quadrature()
    mdotnu = np.einsum("fqd,fd->fq", radial_field(pts, x0), mesh.facet_normals)
    mdotnu.setflags(write=False)
    labels = _labels_from_samples(mdotnu)
    gamma1 = labels == GAMMA1
    if not np.any(gamma1):
        raise MeshError("no facet has m . nu > 0")
    R = float(np.max(np.linalg.norm(radial_field(mesh.vertices, x0), axis=1)))
    m0 = float(np.min(mdotnu[gamma1]))
    warnings = []
    if np.any(~gamma1):
        touching = np.intersect1d(
            mesh.facets[gamma1].ravel(), mesh.facets[~gamma1].ravel()
        )
        if len(touching):
            warnings.append(
                "closures of the clamped and damped boundary parts touch at "
                f"{len(touching)} vertex/vertices; facets are attributed wholly to one label"
            )
    return BoundaryPartition(mesh, x0, labels, mdotnu, R, m0, tuple(warnings))
