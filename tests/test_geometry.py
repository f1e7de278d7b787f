import numpy as np
import pytest

import kgwell.assembly
import kgwell.geometry
from _oracles import loop_rectangle_arrays
from kgwell import FieldInit, ScenarioConfig, prepare, simulate
from hypothesis import given, settings
from hypothesis import strategies as st

from kgwell.geometry import (
    GAMMA0,
    GAMMA1,
    EmptyGamma1Error,
    Mesh,
    MeshError,
    MixedFacetError,
    _labels_from_samples,
    build_interval_mesh,
    build_rectangle_mesh,
    classify_boundary,
)


def test_interval_mesh_uniform_subdivision():
    mesh = build_interval_mesh(0.0, 1.0, 2)
    assert np.allclose(mesh.vertices.ravel(), [0.0, 0.5, 1.0])
    assert mesh.n_facets == 2
    np.testing.assert_allclose(mesh.facet_normals.ravel(), [-1.0, 1.0])
    assert mesh.vertices[mesh.facets[0, 0], 0] == 0.0
    assert mesh.vertices[mesh.facets[1, 0], 0] == 1.0


def test_interval_mesh_single_element():
    mesh = build_interval_mesh(0.0, 1.0, 1)
    assert mesh.n_elements == 1
    assert mesh.n_vertices == 2


def test_interval_mesh_negative_range():
    mesh = build_interval_mesh(-1.0, 1.0, 4)
    assert np.allclose(mesh.vertices.ravel(), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_interval_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        build_interval_mesh(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        build_interval_mesh(0.0, 1.0, 0)


def test_rectangle_mesh_counts():
    mesh = build_rectangle_mesh((0, 0), (1, 1), 1, 1)
    assert mesh.n_elements == 2
    assert mesh.n_facets == 4
    mesh = build_rectangle_mesh((0, 0), (1, 1), 2, 2)
    assert mesh.n_elements == 8
    assert mesh.n_facets == 8


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (5, 4)])
def test_rectangle_perimeter(nx, ny):
    mesh = build_rectangle_mesh((0, 0), (1, 1), nx, ny)
    assert np.isclose(np.sum(mesh.facet_measures()), 4.0)
    assert np.isclose(np.sum(mesh.element_volumes()), 1.0)


@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 2), (64, 64)])
def test_rectangle_mesh_arrays_equal_the_per_cell_loop(nx, ny):
    lo, hi = (0.0, -1.0), (2.0, 0.5)
    mesh = build_rectangle_mesh(lo, hi, nx, ny)
    got = (mesh.vertices, mesh.elements, mesh.facets, mesh.facet_normals)
    for name, array, ref in zip(("vertices", "elements", "facets", "normals"), got,
                                loop_rectangle_arrays(lo, hi, nx, ny)):
        assert array.dtype == ref.dtype and array.flags.c_contiguous, name
        assert np.array_equal(array, ref), name


def test_rectangle_rejects_degenerate():
    with pytest.raises(ValueError):
        build_rectangle_mesh((0, 0), (0, 1), 1, 1)
    with pytest.raises(ValueError):
        build_rectangle_mesh((0, 0), (1, 1), 0, 1)


def test_mesh_invariants_enforced():
    # non-unit normal
    with pytest.raises(MeshError):
        Mesh(1, [[0.0], [1.0]], [[0, 1]], [[0], [1]], [[-2.0], [1.0]])
    # inverted element (negative volume)
    with pytest.raises(MeshError):
        Mesh(1, [[0.0], [1.0]], [[1, 0]], [[0], [1]], [[-1.0], [1.0]])
    # facet not contained in exactly one element
    mesh = build_rectangle_mesh((0, 0), (1, 1), 2, 2)
    bad_facet = np.array([[0, 8]])  # opposite corners, no owning element
    with pytest.raises(MeshError):
        Mesh(2, mesh.vertices, mesh.elements, bad_facet, [[1.0, 0.0]])
    interior = np.array([[0, 4]])  # diagonal shared by two triangles
    with pytest.raises(MeshError, match="belongs to 2 elements"):
        Mesh(2, mesh.vertices, mesh.elements, interior, [[1.0, 0.0]])


@pytest.mark.parametrize("mesh", [build_rectangle_mesh((0, 0), (1, 1), 7, 3),
                                  build_interval_mesh(0.0, 1.0, 9)],
                         ids=["rectangle-7x3", "interval"])
def test_facet_owner_matches_subset_search(mesh):
    elem_sets = [set(e) for e in mesh.elements]
    expected = [[k for k, es in enumerate(elem_sets) if set(f) <= es] for f in mesh.facets]
    assert all(len(hits) == 1 for hits in expected)
    np.testing.assert_array_equal(mesh.facet_owner(), [hits[0] for hits in expected])


def test_classify_interval_star_at_left():
    mesh = build_interval_mesh(0.0, 1.0, 4)
    part = classify_boundary(mesh, 0.0)
    # m(0) . nu = 0 -> clamped; m(1) . nu = 1 -> damped
    assert part.labels[0] == GAMMA0
    assert part.labels[1] == GAMMA1
    assert part.R == 1.0
    assert part.m0 == 1.0
    assert (part.R, part.m0) == (1.0, 1.0)


def test_classify_square_hand_values():
    mesh = build_rectangle_mesh((0, 0), (1, 1), 2, 2)
    part = classify_boundary(mesh, (-0.1, -0.1))
    normals = mesh.facet_normals
    left_bottom = (normals[:, 0] < 0) | (normals[:, 1] < 0)
    assert np.all(part.labels[left_bottom] == GAMMA0)
    assert np.all(part.labels[~left_bottom] == GAMMA1)
    # m . nu = 1.1 on the right and top edges; R at the far corner (1, 1)
    assert np.isclose(part.m0, 1.1)
    assert np.isclose(part.R, np.hypot(1.1, 1.1))
    assert np.isclose(part.R, 1.5556, atol=5e-5)
    assert np.isclose(part.m0, 1.1)
    assert part.warnings  # corner-touching closures are reported


def test_classify_longer_interval():
    mesh = build_interval_mesh(0.0, 2.0, 8)
    part = classify_boundary(mesh, 0.0)
    assert (part.R, part.m0) == (2.0, 2.0)


def test_classify_rejects_bad_x0():
    mesh = build_interval_mesh(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        classify_boundary(mesh, (0.0, 0.0))
    with pytest.raises(ValueError):
        classify_boundary(mesh, float("nan"))


def test_mixed_facet_label_helper():
    # unreachable through straight facets (m . nu is constant along them),
    # so the decision helper is exercised directly
    with pytest.raises(MixedFacetError):
        _labels_from_samples(np.array([[-0.5, 0.5]]))
    assert _labels_from_samples(np.array([[0.2, 0.7]]))[0] == GAMMA1
    assert _labels_from_samples(np.array([[0.0, -0.3]]))[0] == GAMMA0


def test_empty_gamma1_for_inward_normals():
    # a hand-built mesh whose normals point inward has m . nu <= 0 everywhere
    mesh = Mesh(1, [[0.0], [1.0]], [[0, 1]], [[0], [1]], [[1.0], [-1.0]])
    with pytest.raises(EmptyGamma1Error):
        classify_boundary(mesh, 0.5)


def test_reclassification_is_idempotent():
    mesh = build_rectangle_mesh((0, 0), (2, 1), 3, 2)
    part1 = classify_boundary(mesh, (-0.5, 0.2))
    part2 = classify_boundary(part1.mesh, part1.x0)
    assert np.array_equal(part1.labels, part2.labels)
    assert part1.R == part2.R and part1.m0 == part2.m0


def test_r_dominates_m0_and_gamma1_floor():
    mesh = build_rectangle_mesh((0, 0), (1, 1), 3, 3)
    part = classify_boundary(mesh, (-0.3, 0.4))
    assert part.m0 > 0
    assert part.R >= part.m0
    pts, _, _ = mesh.facet_quadrature()
    for f in part.gamma1_facets:
        mdotnu = (pts[f] - np.asarray(part.x0)) @ mesh.facet_normals[f]
        assert np.all(mdotnu >= part.m0 - 1e-14)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_dilation_scales_constants_exactly(s):
    mesh = build_interval_mesh(0.0, 1.0, 3)
    part = classify_boundary(mesh, -0.25)
    scaled = build_interval_mesh(0.0, s, 3)
    part_s = classify_boundary(scaled, -0.25 * s)
    assert np.isclose(part_s.R, s * part.R, rtol=1e-12)
    assert np.isclose(part_s.m0, s * part.m0, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(x0=st.floats(min_value=-3.0, max_value=0.0, allow_nan=False))
def test_interval_partition_invariants(x0):
    mesh = build_interval_mesh(0.0, 1.0, 4)
    part = classify_boundary(mesh, x0)
    assert part.m0 > 0
    assert part.R >= part.m0


def test_mesh_geometry_is_computed_once_per_run(monkeypatch):
    # each vertex gather of a Mesh method is counted: cell edge vectors (for
    # the volumes and the facet measures) and facet or cell quadrature points
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            key = f"{module.__name__}.{name}"
            counts[key] = counts.get(key, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(kgwell.geometry, "edge_vectors")
    count(kgwell.geometry, "simplex_quadrature")
    count(kgwell.assembly, "simplex_quadrature")
    cfg = ScenarioConfig(name="g", mesh_kind="rectangle", nx=16, ny=16, x0=(-0.1, -0.1),
                         dt=0.01, t_end=0.02, stride=1,
                         u0=FieldInit("eigenfunction", 0.1), v0=FieldInit("eigenfunction", 0.1))
    prep = prepare(cfg)
    simulate(prep)
    # no element quadrature points at all: M and G are formed in closed form,
    # and the volume tables of the constants and the coupling take weights
    assert counts == {
        "kgwell.geometry.edge_vectors": 2,        # element volumes, facet measures
        "kgwell.geometry.simplex_quadrature": 1,  # facet quadrature
    }
    mesh = prep.mesh
    assert mesh.element_volumes() is mesh.element_volumes()
    with pytest.raises(ValueError):
        mesh.facet_quadrature()[1][0, 0] = 1.0
