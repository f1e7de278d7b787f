import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from _oracles import (
    VOLUME_ORACLE_DEGREE,
    dense_coupling_energy,
    dense_coupling_vectors,
    quadrature_volume_matrices,
    scatter_add_coupling,
    scatter_add_lp,
)
from conftest import ACCEPT_2D, interval_setup, square_setup, unconstrained_interval
from kgwell import (
    CouplingSpec,
    assemble_operators,
    boundary_mass_matrix,
    coupling_energy,
    coupling_vectors,
    prepare,
    radial_field,
)
from kgwell.assembly import (
    BLOCK_POINTS,
    _element_matrices,
    element_quadrature_tables,
    factor_spd,
    gamma1_table,
    volume_table,
)
from kgwell.constants import _lp
from kgwell.quadrature import p1_shapes, simplex_rule

# both meshes have clamped vertices, which the tables send to a zero slot
TABLE_MESHES = pytest.mark.parametrize(
    "setup", [lambda: square_setup(4), lambda: interval_setup(8)],
    ids=["square4", "interval8"])


# -- hand-assembled two-element matrices (free nodes {0.5, 1.0}) -------------

def test_hand_assembled_p1_matrices():
    _, _, ops = interval_setup(elements=2)
    np.testing.assert_allclose(
        ops.M.toarray(), [[1 / 3, 1 / 12], [1 / 12, 1 / 6]], atol=1e-15)
    np.testing.assert_allclose(
        ops.K.toarray(), [[4.0, -2.0], [-2.0, 2.0]], atol=1e-13)
    np.testing.assert_allclose(
        ops.B.toarray(), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(
        ops.T.toarray(), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    # multiplier entries int phi_i x phi_j' dx, worked out by hand
    np.testing.assert_allclose(
        ops.G.toarray(), [[-1 / 6, 1 / 3], [-5 / 12, 5 / 12]], atol=1e-15)


def test_multiplier_rows_annihilate_constants():
    # grad of a constant vanishes, so G applied to the all-ones vector is 0;
    # needs the full node set, i.e. a mesh without clamped nodes
    for _, _, ops in (unconstrained_interval(5), square_setup(3, x0=(0.4, 0.6))):
        ones = np.ones(ops.n_free)
        assert ops.n_free == ops.n_nodes
        np.testing.assert_allclose(ops.G @ ones, 0.0, atol=1e-13)


@pytest.mark.parametrize("setup_fn", [
    lambda: unconstrained_interval(6),
    lambda: square_setup(3, x0=(0.5, 0.5)),
])
def test_multiplier_divergence_identity(setup_fn):
    # int m . grad(phi_i phi_j) = bdry (m . nu) phi_i phi_j - n int phi_i phi_j,
    # so G + G^T must equal the (m . nu)-weighted full-boundary mass minus n M
    mesh, part, ops = setup_fn()
    assert ops.n_free == ops.n_nodes  # identity needs all nodes retained
    pts = mesh.facet_quadrature()[0]
    weights = np.einsum("fqd,fd->fq", radial_field(pts, part.x0), mesh.facet_normals)
    bdry = boundary_mass_matrix(mesh, np.arange(mesh.n_facets), weights=weights)
    lhs = (ops.G + ops.G.T).toarray()
    rhs = bdry.toarray() - mesh.dim * ops.M.toarray()
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


# -- closed-form element matrices ---------------------------------------------

def test_closed_form_element_matrices_on_reference_cells():
    # reference segment and triangle with x0 at vertex 0, so m(x) = x
    segment = np.array([[[0.0], [1.0]]])
    triangle = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    m_seg, k_seg, g_seg = _element_matrices(segment, (0.0,))
    assert np.array_equal(m_seg[0], [[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    assert np.array_equal(k_seg[0], [[1.0, -1.0], [-1.0, 1.0]])
    # int phi_i x phi_j' with int phi_0 x = 1/6, int phi_1 x = 1/3
    assert np.array_equal(g_seg[0], [[-1 / 6, 1 / 6], [-1 / 3, 1 / 3]])
    m_tri, k_tri, g_tri = _element_matrices(triangle, (0.0, 0.0))
    assert np.array_equal(m_tri[0], [[1 / 12, 1 / 24, 1 / 24],
                                     [1 / 24, 1 / 12, 1 / 24],
                                     [1 / 24, 1 / 24, 1 / 12]])
    assert np.array_equal(k_tri[0], [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                                     [-0.5, 0.0, 0.5]])
    # int phi_i x = (1/24, 1/24), (1/12, 1/24), (1/24, 1/12); gradients
    # (-1, -1), (1, 0), (0, 1)
    np.testing.assert_allclose(g_tri[0], [[-1 / 12, 1 / 24, 1 / 24],
                                          [-1 / 8, 1 / 12, 1 / 24],
                                          [-1 / 8, 1 / 24, 1 / 12]], rtol=0, atol=1e-17)


def test_closed_form_element_matrices_match_tetrahedron_quadrature():
    # raw coordinates, no Mesh: the reference tetrahedron and two random ones
    # against simplex_rule(3, 4), exact for the quadratic and cubic integrands
    rng = np.random.default_rng(37)
    coords = np.concatenate([[np.vstack([np.zeros(3), np.eye(3)])],
                             rng.uniform(-1.0, 1.0, (2, 4, 3))])
    coords[1:, 1:] += 2.0 * np.eye(3)  # keep the random cells well shaped
    x0 = np.array([-0.1, 0.2, -0.3])
    m_local, k_local, g_local = _element_matrices(coords, x0)
    ref, w = simplex_rule(3, 4)
    shapes = p1_shapes(ref)
    for c in range(len(coords)):
        edges = coords[c, 1:] - coords[c, 0]
        jac = np.linalg.det(edges)
        assert jac > 0
        inv = np.linalg.inv(edges)
        grads = np.vstack([-inv.sum(axis=1), inv.T])
        points = shapes @ coords[c]
        mdotgrad = (points - x0) @ grads.T
        m_ref = jac * np.einsum("q,qi,qj->ij", w, shapes, shapes)
        g_ref = jac * np.einsum("q,qi,qj->ij", w, shapes, mdotgrad)
        np.testing.assert_allclose(m_local[c], m_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(g_local[c], g_ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(g_ref)))
        np.testing.assert_allclose(k_local[c], jac / 6.0 * grads @ grads.T, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(k_local[c])))
    assert np.isclose(m_local[0].sum(), 1.0 / 6.0, rtol=1e-15)


#: Largest |closed form - quadrature| of an assembled M or G entry, relative
#: to the largest entry: 8 ulps (measured 2.7, 6.1e-16 on square64's G).
ORACLE_ROUNDOFF = 8 * np.finfo(float).eps


@pytest.mark.parametrize("setup", [lambda: interval_setup(50), lambda: square_setup(8),
                                   lambda: square_setup(64)],
                         ids=["interval50", "square8", "square64"])
def test_volume_matrices_match_quadrature_oracle(setup):
    mesh, part, ops = setup()
    for matrix, ref in zip((ops.M, ops.G), quadrature_volume_matrices(mesh, part, ops.free)):
        assert np.array_equal(matrix.indptr, ref.indptr)
        assert np.array_equal(matrix.indices, ref.indices)
        scale = np.max(np.abs(ref.data))
        assert np.max(np.abs(matrix.data - ref.data)) <= ORACLE_ROUNDOFF * scale


def test_spd_factor_has_less_fill_than_the_default_order():
    _, _, ops = square_setup(32)
    dt = 0.01
    A = ops.M + (dt / 2.0) * ops.B + (dt * dt / 4.0) * ops.K
    rhs = np.random.default_rng(31).standard_normal((ops.n_free, 2))
    for matrix in (ops.K, A):
        spd, default = factor_spd(matrix), spla.splu(matrix.tocsc())
        assert spd.L.nnz + spd.U.nnz < default.L.nnz + default.U.nnz
        np.testing.assert_allclose(matrix @ spd.solve(rhs), rhs, rtol=0, atol=1e-12)


def test_operators_have_the_mesh_of_their_boundary_split():
    # the split labels one mesh; the operators and a prepared run read it
    # from there and keep no mesh of their own that could differ
    mesh, part, _ = square_setup(8)
    ops = assemble_operators(part)
    assert ops.mesh is part.mesh is mesh
    prep = prepare(ACCEPT_2D)
    assert prep.mesh is prep.operators.mesh is prep.operators.partition.mesh
    for obj in (ops, prep):
        assert "mesh" not in {f.name for f in dataclasses.fields(obj)}


def test_damping_scales_linearly_in_delta():
    _, part, ops1 = interval_setup(elements=3, delta=1.5)
    ops2 = assemble_operators(part, delta=3.0)
    np.testing.assert_allclose(ops2.B.toarray(), 2.0 * ops1.B.toarray(), atol=1e-15)
    for name in ("M", "K", "G", "T"):
        np.testing.assert_allclose(
            getattr(ops2, name).toarray(), getattr(ops1, name).toarray(), atol=1e-15)


def test_nonpositive_delta_rejected():
    _, part, _ = interval_setup(elements=3)
    for delta in (0.0, -0.5):
        with pytest.raises(ValueError, match="must be positive"):
            assemble_operators(part, delta=delta)


@pytest.mark.parametrize("setup", [lambda: interval_setup(50), lambda: square_setup(8)],
                         ids=["interval50", "square8"])
def test_radial_damping_minimum_is_m0_bitwise(setup):
    # the dissipation check passes delta_min where it used to pass m0;
    # for delta = m . nu the two must agree to the last bit
    _, part, ops = setup()
    assert ops.delta_min == part.m0


def test_operator_symmetry_and_positivity():
    rng = np.random.default_rng(7)
    for mesh, part, ops in (interval_setup(8), square_setup(3)):
        for name in ("M", "K", "B", "T"):
            A = getattr(ops, name).toarray()
            assert np.max(np.abs(A - A.T)) < 1e-13
        x = rng.standard_normal(ops.n_free)
        assert x @ (ops.M @ x) > 0
        assert x @ (ops.K @ x) >= 0
        # delta >= delta_min pointwise makes B dominate delta_min * T
        assert x @ (ops.B @ x) >= ops.delta_min * (x @ (ops.T @ x)) - 1e-13
        # B rows vanish off the damped boundary nodes
        g1_nodes = np.unique(mesh.facets[part.gamma1_facets].ravel())
        mask = np.isin(ops.free, g1_nodes)
        assert np.max(np.abs(ops.B.toarray()[~mask])) == 0.0


def test_coupling_vanishes_with_zero_factor():
    mesh, _, ops = interval_setup(4)
    spec = CouplingSpec(rho=1.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(ops.n_free)
    zero = np.zeros(ops.n_free)
    fu, fv = coupling_vectors((zero, v), spec, ops)
    np.testing.assert_allclose(fu, 0.0)
    np.testing.assert_allclose(fv, 0.0)
    assert coupling_energy((zero, v), spec, ops) == 0.0


@pytest.mark.parametrize("setup", [lambda: interval_setup(16), lambda: square_setup(8)],
                         ids=["interval-16", "square-8"])
@pytest.mark.parametrize("rho", [1.0, 1.5, 0.5, 2.0])
def test_fused_coupling_pass_equals_separate_passes_bitwise(setup, rho):
    # rho = 1 skips the pow; 0.5 and 2 take numpy's sqrt and square paths
    mesh, _, ops = setup()
    spec = CouplingSpec(rho=rho)
    _, wdet, shapes = element_quadrature_tables(mesh, spec.quad_degree)
    rng = np.random.default_rng(31)
    zero = np.zeros(ops.n_free)
    u, v = rng.standard_normal((2, ops.n_free))  # interpolants change sign in cells
    for pair in ((u, v), (zero, zero), (zero, v), (u, zero)):
        fu, fv, e = coupling_vectors(pair, spec, ops, energy=True)
        fu_sep, fv_sep = coupling_vectors(pair, spec, ops)
        assert np.array_equal(fu, fu_sep) and np.array_equal(fv, fv_sep)
        assert e == coupling_energy(pair, spec, ops)
        fu_ref, fv_ref, e_ref = scatter_add_coupling(mesh.elements, shapes, wdet, ops,
                                                     *pair, rho)
        assert np.array_equal(fu, fu_ref) and np.array_equal(fv, fv_ref)
        assert e == e_ref


def test_coupling_constant_one_gives_unity_weights():
    mesh, _, ops = unconstrained_interval(4)
    spec = CouplingSpec(rho=1.0)
    ones = np.ones(ops.n_free)
    fu, _ = coupling_vectors((ones, ones), spec, ops)
    # int 1 * phi_i dx: the mass-matrix row sums (h/2 at ends, h inside)
    np.testing.assert_allclose(fu, ops.M @ ones, atol=1e-14)
    assert np.isclose(coupling_energy((ones, ones), spec, ops), 0.5)


def test_coupling_antisymmetric_pair():
    mesh, _, ops = interval_setup(4)
    spec = CouplingSpec(rho=1.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.3, 1.0, ops.n_free)  # positive interpolant
    fu, fv = coupling_vectors((u, -u), spec, ops)
    np.testing.assert_allclose(fv, -fu, atol=1e-14)
    u_full = ops.embed(u)
    fu_dense, _ = dense_coupling_vectors(mesh, u_full, -u_full, 1.0)
    np.testing.assert_allclose(fu, fu_dense[ops.free], rtol=1e-12, atol=1e-15)
    e = coupling_energy((u, -u), spec, ops)
    assert e < 0
    e_dense = dense_coupling_energy(mesh, u_full, -u_full, 1.0)
    assert np.isclose(e, e_dense, rtol=1e-12)


@pytest.mark.parametrize("rho", [1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_coupling_matches_dense_oracle(rho, dim):
    if dim == 1:
        mesh, _, ops = interval_setup(4)
    else:
        mesh, _, ops = square_setup(2)
    spec = CouplingSpec(rho=rho)
    rng = np.random.default_rng(42)
    for _ in range(3):
        u = rng.uniform(0.2, 1.0, ops.n_free)
        v = rng.uniform(0.2, 1.0, ops.n_free)
        uf, vf = ops.embed(u), ops.embed(v)
        fu, fv = coupling_vectors((u, v), spec, ops)
        fu_d, fv_d = dense_coupling_vectors(mesh, uf, vf, rho, nsub=20, npts=8)
        np.testing.assert_allclose(fu, fu_d[ops.free], rtol=1e-11)
        np.testing.assert_allclose(fv, fv_d[ops.free], rtol=1e-11)
        e = coupling_energy((u, v), spec, ops)
        assert np.isclose(e, dense_coupling_energy(mesh, uf, vf, rho, nsub=20, npts=8),
                          rtol=1e-11)


def test_coupling_gradient_matches_finite_differences():
    # F_u is the gradient of the coupling energy in the u coefficients
    mesh, _, ops = interval_setup(4)
    spec = CouplingSpec(rho=1.0)
    rng = np.random.default_rng(11)
    u = rng.uniform(0.3, 1.0, ops.n_free)
    v = rng.uniform(0.3, 1.0, ops.n_free)
    fu, fv = coupling_vectors((u, v), spec, ops)
    h = 1e-6
    for i in range(ops.n_free):
        e = np.zeros(ops.n_free)
        e[i] = h
        dEu = (coupling_energy((u + e, v), spec, ops)
               - coupling_energy((u - e, v), spec, ops)) / (2 * h)
        dEv = (coupling_energy((u, v + e), spec, ops)
               - coupling_energy((u, v - e), spec, ops)) / (2 * h)
        assert abs(dEu - fu[i]) <= 1e-5 * max(abs(fu[i]), 1e-12)
        assert abs(dEv - fv[i]) <= 1e-5 * max(abs(fv[i]), 1e-12)


def test_quadrature_degree_refinement_is_converged():
    mesh, _, ops = interval_setup(6)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.2, 1.0, ops.n_free)
    v = rng.uniform(0.2, 1.0, ops.n_free)
    base = coupling_energy((u, v), CouplingSpec(1.0), ops)
    _, wdet, shapes = element_quadrature_tables(mesh, 6)
    refined = scatter_add_coupling(mesh.elements, shapes, wdet, ops, u, v, 1.0)[2]
    assert abs(base - refined) < 1e-8


def test_coupling_spec_validation():
    with pytest.raises(ValueError):
        CouplingSpec(rho=0.0)
    with pytest.raises(ValueError):
        CouplingSpec(rho=-1.0)
    assert [f.name for f in dataclasses.fields(CouplingSpec)] == ["rho"]
    assert CouplingSpec(rho=0.5).quad_degree == 4
    assert CouplingSpec(rho=3.0).quad_degree == 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        CouplingSpec(rho=1.0).quad_degree = 6  # an Evaluation keys on it by value


@TABLE_MESHES
def test_quadrature_tables_match_scatter_add_bitwise(setup):
    mesh, part, ops = setup()
    rng = np.random.default_rng(17)
    u, v = rng.standard_normal((2, ops.n_free))
    for rho in (1.0, 1.5):
        spec = CouplingSpec(rho=rho)
        _, wdet, shapes = element_quadrature_tables(mesh, spec.quad_degree)
        fu_ref, fv_ref, e_ref = scatter_add_coupling(mesh.elements, shapes, wdet,
                                                     ops, u, v, rho)
        fu, fv = coupling_vectors((u, v), spec, ops)
        assert np.array_equal(fu, fu_ref)
        assert np.array_equal(fv, fv_ref)
        assert coupling_energy((u, v), spec, ops) == e_ref
    g1 = part.gamma1_facets
    _, fwts, fshapes = mesh.facet_quadrature()
    _, wdet, shapes = element_quadrature_tables(mesh, 6)
    cases = ((volume_table(ops, 6), (mesh.elements, shapes, wdet)),
             (gamma1_table(ops), (mesh.facets[g1], fshapes, fwts[g1])))
    for table, ref in cases:
        for p in (2.0, 4.0, 3.3):
            norm, grad = _lp(table, u, p)
            norm_ref, grad_ref = scatter_add_lp(*ref, ops, u, p)
            assert norm == norm_ref
            assert np.array_equal(grad, grad_ref)


@TABLE_MESHES
def test_projection_is_galerkin_adjoint_of_evaluation(setup):
    _, _, ops = setup()
    x = np.random.default_rng(23).uniform(0.5, 1.5, ops.n_free)
    for table, matrix in ((volume_table(ops, VOLUME_ORACLE_DEGREE), ops.M),
                          (gamma1_table(ops), ops.T)):
        np.testing.assert_allclose(table.project(table.values(x) * table.w),
                                   matrix @ x, rtol=1e-13, atol=0)


# several blocks of cells, the last one partial (50 cells, or 10 damped facets)
BLOCKED_MESHES = pytest.mark.parametrize(
    "setup", [lambda: square_setup(5), lambda: interval_setup(50)],
    ids=["square5", "interval50"])


@BLOCKED_MESHES
@pytest.mark.parametrize("block_cells", [8, 16])
def test_blocked_reductions_match_single_pass_bitwise(setup, block_cells):
    mesh, part, ops = setup()
    rng = np.random.default_rng(29)
    u, v = rng.standard_normal((2, ops.n_free))
    for rho in (1.0, 1.5):
        spec = CouplingSpec(rho=rho)
        table = dataclasses.replace(volume_table(ops, spec.quad_degree),
                                    block_cells=block_cells)
        assert len(table.conn) > block_cells and len(table.conn) % block_cells
        # the coupling reads the table the operators cache for the time loop
        blocked_ops = dataclasses.replace(ops)
        blocked_ops._caches[("volume", spec.quad_degree)] = table
        _, wdet, shapes = element_quadrature_tables(mesh, spec.quad_degree)
        fu_ref, fv_ref, e_ref = scatter_add_coupling(mesh.elements, shapes, wdet,
                                                     ops, u, v, rho)
        fu, fv = coupling_vectors((u, v), spec, blocked_ops)
        assert np.array_equal(fu, fu_ref)
        assert np.array_equal(fv, fv_ref)
        assert coupling_energy((u, v), spec, blocked_ops) == e_ref
    g1 = part.gamma1_facets
    _, fwts, fshapes = mesh.facet_quadrature()
    _, wdet, shapes = element_quadrature_tables(mesh, 6)
    # 10 damped facets on the square make blocks of 8 and 2; 1 in 1D
    cases = ((dataclasses.replace(volume_table(ops, 6), block_cells=block_cells),
              (mesh.elements, shapes, wdet)),
             (dataclasses.replace(gamma1_table(ops), block_cells=8),
              (mesh.facets[g1], fshapes, fwts[g1])))
    for table, ref in cases:
        for p in (2.0, 4.0, 3.3):
            norm, grad = _lp(table, u, p)
            norm_ref, grad_ref = scatter_add_lp(*ref, ops, u, p)
            assert norm == norm_ref
            assert np.array_equal(grad, grad_ref)


def test_block_size_counts_quadrature_points():
    _, _, ops = square_setup(4)
    for degree in (4, 6, 8):
        table = volume_table(ops, degree)
        nq = len(table.shapes)
        assert table.block_cells % 8 == 0
        assert BLOCK_POINTS - 8 * nq < table.block_cells * nq <= BLOCK_POINTS
    assert volume_table(ops, 4).block_cells == 4096  # 9 points per triangle
