import dataclasses
import math
from unittest import mock

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
    table_values,
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
import kgwell.assembly
from kgwell.assembly import (
    BLOCK_POINTS,
    DENSE_ENTRIES,
    DENSE_FACTOR_ENTRIES,
    DenseCholesky,
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


def gather_table(table):
    """The table without its dense interpolation matrix, so reduce takes
    the blockwise gather path that small tables would not take."""
    return dataclasses.replace(table, dense=None)


def table_operators(ops, degree, dense):
    """A copy of ops whose cached coupling table at `degree` keeps its dense
    interpolation matrix (dense) or not, whatever the table's size."""
    with mock.patch.object(kgwell.assembly, "DENSE_ENTRIES", math.inf if dense else 0):
        table = volume_table(ops, degree)
    copy = dataclasses.replace(ops)
    copy._caches[("volume", degree)] = table
    return copy


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
    _, _, ops = square_setup(32)  # 1024 free nodes: the sparse LU
    assert ops.n_free ** 2 > DENSE_FACTOR_ENTRIES
    dt = 0.01
    A = ops.M + (dt / 2.0) * ops.B + (dt * dt / 4.0) * ops.K
    rhs = np.random.default_rng(31).standard_normal((ops.n_free, 2))
    for matrix in (ops.K, A):
        spd, default = factor_spd(matrix), spla.splu(matrix.tocsc())
        assert isinstance(spd, spla.SuperLU)
        assert spd.L.nnz + spd.U.nnz < default.L.nnz + default.U.nnz
        np.testing.assert_allclose(matrix @ spd.solve(rhs), rhs, rtol=0, atol=1e-12)


def test_factor_rule_picks_dense_at_64_free_nodes_and_sparse_at_65():
    for elements, dense in ((64, True), (65, False)):
        _, _, ops = interval_setup(elements)
        assert ops.n_free == elements
        assert isinstance(factor_spd(ops.K), DenseCholesky if dense else spla.SuperLU)


def test_operators_rule_gives_dense_k_and_m_at_200_free_nodes_and_sparse_at_201():
    for elements, dense in ((200, True), (201, False)):
        _, _, ops = interval_setup(elements)
        K, M = ops.KM()
        assert isinstance(K, np.ndarray) is dense and isinstance(M, np.ndarray) is dense
    _, _, ops = interval_setup(200)
    K, M = ops.KM()
    assert ops.KM()[0] is K  # made once and cached
    np.testing.assert_array_equal(K, ops.K.toarray())
    np.testing.assert_array_equal(M, ops.M.toarray())
    assert not K.flags.writeable and not M.flags.writeable
    # a copy with other matrices starts without the old dense copies
    assert dataclasses.replace(ops, K=2.0 * ops.K).KM()[0][0, 0] == 2.0 * K[0, 0]


def test_table_rule_gives_a_table_under_it_its_interpolation_matrix():
    # 3 points an element at degree 4: 115 elements make 345 points x 115
    # free nodes = 39675 entries, under the rule; 116 make 40368, over it
    for elements, dense in ((115, True), (116, False)):
        _, _, ops = interval_setup(elements)
        table = volume_table(ops, 4)
        assert (table.w.size * ops.n_free <= DENSE_ENTRIES) is dense
        assert (table.dense is not None) is dense
    # 6 points a triangle: the 7^2 square's 588 points x 49 free nodes make
    # 28812 entries, under the rule; decay_2d.cfg's 8^2 makes 49152, over it
    for n, dense in ((7, True), (8, False)):
        _, _, ops = square_setup(n)
        table = volume_table(ops, 4)
        assert table.w.size * ops.n_free == {7: 28812, 8: 49152}[n]
        assert (table.dense is not None) is dense
    _, _, small = interval_setup(50)
    # Phi interpolates as the gather does, also on a square with clamped
    # corners and on GAMMA1, and Phi w carries the weights
    _, _, square = square_setup(4)
    for ops, table in ((small, volume_table(small, 4)), (square, volume_table(square, 6)),
                       (square, gamma1_table(square))):
        phi_t, phi_w_t = table.dense
        x = np.random.default_rng(3).standard_normal(ops.n_free)
        np.testing.assert_allclose(x @ phi_t, table_values(table, x).ravel(), rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(phi_w_t, phi_t * table.w.ravel())


@pytest.mark.parametrize("setup", [lambda: interval_setup(400), lambda: square_setup(20),
                                   lambda: interval_setup(20)],
                         ids=["interval400", "square20", "interval20"])
def test_dense_cholesky_solves_agree_with_the_sparse_lu(setup, monkeypatch):
    # 50 n eps of the solution's size: the step matrix is well conditioned,
    # and K of 20 elements has a condition number of about 160
    _, _, ops = setup()
    n = ops.n_free
    dt = 0.01
    A = ops.M + (dt / 2.0) * ops.B + (dt * dt / 4.0) * ops.K
    rng = np.random.default_rng(37)
    matrices = (A, ops.K) if n <= 20 else (A,)
    monkeypatch.setattr(kgwell.assembly, "DENSE_FACTOR_ENTRIES", 0)  # factor_spd's LU
    for matrix in matrices:
        chol, lu = DenseCholesky(matrix), factor_spd(matrix)
        assert isinstance(lu, spla.SuperLU)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            got, ref = chol.solve(rhs), lu.solve(rhs)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 50 * n * np.finfo(float).eps * np.max(np.abs(ref))


def test_dense_cholesky_rejects_a_singular_matrix():
    _, _, ops = square_setup(8)  # 64 free nodes: factor_spd's dense Cholesky
    K = ops.K.tolil()
    K[5, :] = 0.0
    K[:, 5] = 0.0
    with pytest.raises(RuntimeError, match="singular"):
        factor_spd(K.tocsr())


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
    for delta in (0.0, -0.5, math.nan, math.inf):
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
    # rho = 1 skips the pow; 0.5 and 2 take numpy's sqrt and square paths.
    # Both tables fuse bit for bit; the gather path also adds as the
    # scatter-add reference, and the dense one agrees with it to round-off
    mesh, _, ops = setup()
    spec = CouplingSpec(rho=rho)
    _, wdet, shapes = element_quadrature_tables(mesh, spec.quad_degree)
    rng = np.random.default_rng(31)
    zero = np.zeros(ops.n_free)
    u, v = rng.standard_normal((2, ops.n_free))  # interpolants change sign in cells
    dense_ops = table_operators(ops, spec.quad_degree, dense=True)
    for table_ops in (dense_ops, table_operators(ops, spec.quad_degree, dense=False)):
        for pair in ((u, v), (zero, zero), (zero, v), (u, zero)):
            (fu, fv), e = coupling_vectors(pair, spec, table_ops, energy=True)
            fu_sep, fv_sep = coupling_vectors(pair, spec, table_ops)
            assert np.array_equal(fu, fu_sep) and np.array_equal(fv, fv_sep)
            assert e == coupling_energy(pair, spec, table_ops)
            fu_ref, fv_ref, e_ref = scatter_add_coupling(mesh.elements, shapes, wdet, ops,
                                                         *pair, rho)
            if table_ops is dense_ops:
                for got, ref in ((fu, fu_ref), (fv, fv_ref)):
                    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
                assert abs(e - e_ref) <= 1e-14 * max(abs(e_ref), 1e-300)
            else:
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
    # the gather path; these tables are small enough for the dense one
    mesh, part, ops = setup()
    rng = np.random.default_rng(17)
    u, v = rng.standard_normal((2, ops.n_free))
    for rho in (1.0, 1.5):
        spec = CouplingSpec(rho=rho)
        gather_ops = table_operators(ops, spec.quad_degree, dense=False)
        _, wdet, shapes = element_quadrature_tables(mesh, spec.quad_degree)
        fu_ref, fv_ref, e_ref = scatter_add_coupling(mesh.elements, shapes, wdet,
                                                     ops, u, v, rho)
        fu, fv = coupling_vectors((u, v), spec, gather_ops)
        assert np.array_equal(fu, fu_ref)
        assert np.array_equal(fv, fv_ref)
        assert coupling_energy((u, v), spec, gather_ops) == e_ref
    g1 = part.gamma1_facets
    _, fwts, fshapes = mesh.facet_quadrature()
    _, wdet, shapes = element_quadrature_tables(mesh, 6)
    cases = ((gather_table(volume_table(ops, 6)), (mesh.elements, shapes, wdet)),
             (gather_table(gamma1_table(ops)), (mesh.facets[g1], fshapes, fwts[g1])))
    for table, ref in cases:
        for p in (2.0, 4.0, 3.3):
            norm, grad = _lp(table, u, p)
            norm_ref, grad_ref = scatter_add_lp(*ref, ops, u, p)
            assert norm == norm_ref
            assert np.array_equal(grad, grad_ref)


@TABLE_MESHES
def test_dense_reductions_match_the_gather_path(setup):
    # to 1e-14 of each result's largest entry: both add the same products,
    # in another order
    mesh, _, ops = setup()
    rng = np.random.default_rng(19)
    u, v = rng.standard_normal((2, ops.n_free))
    for rho in (1.0, 1.5):
        spec = CouplingSpec(rho=rho)
        dense, e_dense = coupling_vectors((u, v), spec, ops, energy=True)
        gather_ops = table_operators(ops, spec.quad_degree, dense=False)
        gather, e_gather = coupling_vectors((u, v), spec, gather_ops, energy=True)
        for got, ref in zip([*dense, e_dense], [*gather, e_gather]):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    for table in (volume_table(ops, 6), gamma1_table(ops)):
        assert table.dense is not None
        for p in (2.0, 4.0, 3.3):
            (norm, grad), (norm_ref, grad_ref) = _lp(table, u, p), _lp(gather_table(table), u, p)
            assert abs(norm - norm_ref) <= 1e-14 * norm_ref
            assert np.max(np.abs(grad - grad_ref)) <= 1e-14 * np.max(np.abs(grad_ref))


@TABLE_MESHES
def test_projection_is_galerkin_adjoint_of_evaluation(setup):
    # the Galerkin vector of x's own values is the mass matrix times x, on
    # the dense and on the gather path
    _, _, ops = setup()
    x = np.random.default_rng(23).uniform(0.5, 1.5, ops.n_free)
    for table, matrix in ((volume_table(ops, VOLUME_ORACLE_DEGREE), ops.M),
                          (gamma1_table(ops), ops.T)):
        for path in (table, gather_table(table)):
            _, (mx,) = path.reduce((x,), lambda xq: ((), (xq,)))
            np.testing.assert_allclose(mx, matrix @ x, rtol=1e-13, atol=0)


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
                                    block_cells=block_cells, dense=None)
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
    cases = ((dataclasses.replace(volume_table(ops, 6), block_cells=block_cells, dense=None),
              (mesh.elements, shapes, wdet)),
             (dataclasses.replace(gamma1_table(ops), block_cells=8, dense=None),
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
    assert volume_table(ops, 4).block_cells == 4096  # 6 points per triangle
