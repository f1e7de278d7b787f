"""The simplex quadrature rules and the one simplex path for cell geometry.

Rules: monomial exactness on the reference k-simplex, where
int x^a dx = a! / (|a| + k)! (Dirichlet's formula).
Geometry: bitwise agreement with the hand-written 1D / 2D formulas it
replaced (tests/_oracles.py), on a uniform interval, a rectangle and a
rectangle with jittered interior vertices.
"""

import itertools
import math

import numpy as np
import pytest

import _oracles as oracle
from kgwell.assembly import _element_geometry, element_quadrature_tables
from kgwell.geometry import (BOUNDARY_QUAD_DEGREE, Mesh, build_interval_mesh,
                             build_rectangle_mesh)
from kgwell.quadrature import p1_shapes, simplex_rule


def _multi_indices(k, degree):
    return [a for a in itertools.product(range(degree + 1), repeat=k) if sum(a) <= degree]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("degree", range(9))
def test_simplex_rule_integrates_monomials_exactly(k, degree):
    pts, wts = simplex_rule(k, degree)
    assert pts.shape == (len(wts), k)
    for a in _multi_indices(k, degree):
        approx = np.sum(wts * np.prod(pts ** np.array(a, float), axis=1))
        exact = math.prod(math.factorial(i) for i in a) / math.factorial(sum(a) + k)
        np.testing.assert_allclose(approx, exact, rtol=1e-13, err_msg=f"k={k} x^{a}")


def test_simplex_rule_rejects_negative_degree():
    with pytest.raises(ValueError):
        simplex_rule(2, -1)


def test_p1_shapes_are_barycentric():
    ref, _ = simplex_rule(3, 4)
    shapes = p1_shapes(ref)
    assert shapes.shape == (len(ref), 4)
    np.testing.assert_allclose(shapes.sum(axis=1), 1.0, rtol=1e-15)
    assert np.all(shapes >= 0.0)
    np.testing.assert_array_equal(p1_shapes(np.zeros((1, 0))), [[1.0]])


@pytest.mark.parametrize("degree", range(12))
def test_simplex_rule_reproduces_segment_and_triangle_rules(degree):
    ref, w = oracle.segment_rule(degree)
    pts, wts = simplex_rule(1, degree)
    assert np.array_equal(pts[:, 0], ref) and np.array_equal(wts, w)
    assert np.array_equal(p1_shapes(pts), oracle.p1_shape_segment(ref))
    ref, w = oracle.triangle_rule(degree)
    pts, wts = simplex_rule(2, degree)
    assert np.array_equal(pts, ref) and np.array_equal(wts, w)
    assert np.array_equal(p1_shapes(pts), oracle.p1_shape_triangle(ref))


def _jittered_rectangle(seed=7):
    """8 x 5 rectangle on (0, 2) x (0, 1) with every interior vertex moved by
    up to 0.3 of the cell size (keeps every triangle positively oriented)."""
    base = build_rectangle_mesh((0.0, 0.0), (2.0, 1.0), 8, 5)
    h = np.array([2.0 / 8, 1.0 / 5])
    verts = base.vertices.copy()
    interior = np.setdiff1d(np.arange(base.n_vertices), base.facets.ravel())
    rng = np.random.default_rng(seed)
    verts[interior] += rng.uniform(-0.3, 0.3, (len(interior), 2)) * h
    return Mesh(2, verts, base.elements, base.facets, base.facet_normals)


MESHES = {
    "interval-50": lambda: build_interval_mesh(0.0, 1.0, 50),
    "rectangle-7x3": lambda: build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), 7, 3),
    "jittered": _jittered_rectangle,
}


@pytest.fixture(params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def test_cell_measures_match_branched_formulas_bitwise(mesh):
    assert np.array_equal(mesh.element_volumes(), oracle.branched_element_volumes(mesh))
    assert np.array_equal(mesh.facet_measures(), oracle.branched_facet_measures(mesh))
    assert mesh.min_diameter() == oracle.branched_min_diameter(mesh)


def test_gradients_match_branched_formulas_bitwise(mesh):
    grads, vol = _element_geometry(mesh.vertices[mesh.elements])
    ref_grads, ref_vol = oracle.branched_element_geometry(mesh)
    assert np.array_equal(grads, ref_grads)
    assert np.array_equal(vol, ref_vol)
    # a subset of cells gets the same per-cell arithmetic
    some = mesh.facet_owner()
    sub, _ = _element_geometry(mesh.vertices[mesh.elements[some]])
    assert np.array_equal(sub, grads[some])


@pytest.mark.parametrize("degree", [oracle.VOLUME_ORACLE_DEGREE, 6])
def test_element_tables_match_branched_formulas_bitwise(mesh, degree):
    for new, ref in zip(element_quadrature_tables(mesh, degree),
                        oracle.branched_element_tables(mesh, degree)):
        assert np.array_equal(new, ref)


def test_facet_quadrature_matches_branched_formulas(mesh):
    pts, wts, shapes = mesh.facet_quadrature()
    ref_pts, ref_wts, ref_shapes = oracle.branched_facet_quadrature(mesh, BOUNDARY_QUAD_DEGREE)
    assert np.array_equal(wts, ref_wts)
    assert np.array_equal(shapes, ref_shapes)
    if mesh.dim == 1:
        assert np.array_equal(pts, ref_pts)
    else:
        # (1 - t) a + t b against a + t (b - a): a few ulps, tangentially only
        np.testing.assert_array_max_ulp(pts, ref_pts, maxulp=4)
    normal = np.einsum("fqd,fd->fq", pts, mesh.facet_normals)
    assert np.array_equal(normal, np.einsum("fqd,fd->fq", ref_pts, mesh.facet_normals))


def test_gradients_reproduce_affine_fields():
    mesh = _jittered_rectangle()
    rng = np.random.default_rng(3)
    slope, offset = rng.normal(size=2), rng.normal()
    nodal = mesh.vertices @ slope + offset
    grads, _ = _element_geometry(mesh.vertices[mesh.elements])
    recovered = np.einsum("ek,ekd->ed", nodal[mesh.elements], grads)
    np.testing.assert_allclose(recovered, np.broadcast_to(slope, recovered.shape), rtol=1e-12)
