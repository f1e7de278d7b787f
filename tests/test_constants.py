import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import kgwell.geometry
from conftest import CountingLU, interval_setup, square_setup, unconstrained_interval
from kgwell import (
    FieldInit,
    Mesh,
    ScenarioConfig,
    SetupError,
    admissibility,
    assemble_operators,
    classify_boundary,
    compute_well_constants,
    embedding_constant,
    first_eigenpair,
    prepare,
    trace_constant,
    validate_hypotheses,
    well_constants,
    well_function,
)
import kgwell.assembly
import kgwell.constants
import kgwell.dynamics
from kgwell.assembly import factor_spd, volume_table
from kgwell.constants import _best_constant, _lp, _require_accurate_eigenpair, embedding_degree


def test_first_eigenvalue_interval():
    _, _, ops = interval_setup(elements=200)
    lam = first_eigenpair(ops)[0]
    exact = (np.pi / 2) ** 2  # sin(pi x / 2): clamped left, free right
    assert abs(lam - exact) / exact < 1e-3


def test_first_eigenvalue_length_scaling():
    _, _, ops = interval_setup(elements=200, a=0.0, b=2.0)
    lam = first_eigenpair(ops)[0]
    exact = (np.pi / 4) ** 2
    assert abs(lam - exact) / exact < 1e-3


def test_eigenvalue_decreases_under_nested_refinement():
    values = [first_eigenpair(interval_setup(elements=n)[2])[0] for n in (25, 50, 100)]
    assert values[0] >= values[1] >= values[2] >= (np.pi / 2) ** 2
    coarse = first_eigenpair(square_setup(4)[2])[0]
    fine = first_eigenpair(square_setup(8)[2])[0]
    assert coarse >= fine >= np.pi ** 2 / 2


def test_eigenpair_residual_contract():
    _, _, ops = interval_setup(elements=150)
    lam, x = first_eigenpair(ops)
    r = np.linalg.norm(ops.K @ x - lam * (ops.M @ x)) / np.linalg.norm(ops.M @ x)
    assert r < 1e-10


@pytest.mark.parametrize("elements", [150, 1000])
def test_eigenpair_backward_error_contract(elements):
    # accepted on fine meshes, where ||K x - lam M x|| / ||M x|| exceeds
    # 1e-10 from roundoff alone; a 1e-8 relative change of x is rejected
    _, _, ops = interval_setup(elements=elements)
    lam, x = first_eigenpair(ops)
    _require_accurate_eigenpair(ops.K, ops.M, lam, x)
    rng = np.random.default_rng(11)
    perturbed = x * (1.0 + 1e-8 * rng.standard_normal(len(x)))
    with pytest.raises(SetupError, match="backward error"):
        _require_accurate_eigenpair(ops.K, ops.M, lam, perturbed)


def test_dense_eigenpair_makes_no_solve_of_its_own():
    # 400 free nodes take the dense eigh path, which needs no K factor
    _, _, ops = interval_setup(elements=400)
    assert ops.n_free == kgwell.constants._DENSE_EIG_LIMIT
    solves = []
    first_eigenpair(ops, lu_K=CountingLU(factor_spd(ops.K), solves))
    assert solves == []


@pytest.mark.parametrize("elements, factors", [(400, 0), (401, 1)], ids=["eigh", "eigsh"])
def test_eigenpair_factors_K_only_for_shift_invert(monkeypatch, elements, factors):
    # 400 free nodes take the dense eigh path, which needs no K factor;
    # 401 take shift-invert eigsh, which factors K when given none
    made = []

    def counting_spd(A):
        made.append(A)
        return factor_spd(A)

    monkeypatch.setattr(kgwell.constants, "factor_spd", counting_spd)
    _, _, ops = interval_setup(elements=elements)
    first_eigenpair(ops)
    assert len(made) == factors


def test_dense_eigenpair_is_the_eigh_pair_bitwise():
    _, _, ops = interval_setup(elements=100)
    lam, x = first_eigenpair(ops)
    vals, vecs = scipy.linalg.eigh(ops.K.toarray(), ops.M.toarray())
    ref = vecs[:, 0]
    ref = -ref if ref[np.argmax(np.abs(ref))] < 0 else ref
    assert lam == float(vals[0])
    assert np.array_equal(x, ref)


@pytest.mark.parametrize("elements", [20, 100, 400, 1600])
def test_first_eigenvalue_matches_the_discrete_closed_form(elements):
    # the P1 eigenvalue of -u'' on (0, 1) with u(0) = 0 and u'(1) = 0 is
    # 12 sin^2(pi h/4) / (h^2 (2 + cos(pi h/2))); 400 elements take eigh,
    # 1600 shift-invert eigsh.  Round-off allows eps lambda_max / lambda1
    # relative, and 12/h^2 bounds lambda_max of 1D P1
    _, _, ops = interval_setup(elements=elements)
    h = 1.0 / elements
    exact = 12.0 * math.sin(math.pi * h / 4) ** 2 / (h ** 2 * (2.0 + math.cos(math.pi * h / 2)))
    lam = first_eigenpair(ops)[0]
    assert abs(lam - exact) / exact < 10 * np.finfo(float).eps * (12.0 / h ** 2) / exact


def test_first_eigenpair_is_cached_and_read_only():
    _, _, ops = square_setup(4)
    lam, x = first_eigenpair(ops)
    lam_again, x_again = first_eigenpair(ops)
    assert lam_again == lam and x_again is x
    with pytest.raises(ValueError):
        x[0] = 1.0


def test_eigenvalue_requires_clamped_nodes():
    _, _, ops = unconstrained_interval(5)
    with pytest.raises(SetupError):
        first_eigenpair(ops)


def test_embedding_p4_below_analytic_bound():
    # |v(x)| <= sqrt(x) |v|_V gives |v|_L4 <= 3^(-1/4) |v|_V on (0,1)
    mesh, _, ops = interval_setup(elements=64)
    c = embedding_constant(ops, 4.0)
    assert 0.5 < c <= 3.0 ** (-0.25) + 1e-12


def test_embedding_p2_is_inverse_sqrt_eigenvalue():
    mesh, _, ops = interval_setup(elements=64)
    c = embedding_constant(ops, 2.0)
    lam = first_eigenpair(ops)[0]
    assert abs(c * c * lam - 1.0) <= 1e-9


def test_embedding_rejects_small_p():
    mesh, _, ops = interval_setup(elements=8)
    with pytest.raises(ValueError):
        embedding_constant(ops, 1.5)


def test_embedding_degree_is_p_for_even_p():
    assert [embedding_degree(p) for p in (2.0, 4.0, 6.0)] == [2, 4, 6]
    assert [embedding_degree(p) for p in (3.0, 3.3, 5.0)] == [5, 6, 7]
    _, _, ops = square_setup(2)
    assert len(volume_table(ops, embedding_degree(4.0)).shapes) == 6  # symmetric degree-4 rule


def _constant_at_degree(ops, p, degree):
    table = volume_table(ops, degree)
    return _best_constant(ops, lambda x: _lp(table, x, p), None)[0]


@pytest.mark.parametrize("setup", [lambda: interval_setup(64), lambda: square_setup(8)],
                         ids=["interval64", "square8"])
@pytest.mark.parametrize("p", [4.0, 6.0])
def test_even_p_embedding_constant_matches_finer_table(setup, p):
    # both tables integrate the degree-p integrands exactly, so the constants
    # differ by round-off alone
    _, _, ops = setup()
    fine = _constant_at_degree(ops, p, int(p) + 2)
    assert abs(embedding_constant(ops, p) - fine) <= 1e-13 * fine


def test_non_even_p_keeps_its_table_bitwise():
    # p = 5 (rho = 1.5): |v|^5 is no polynomial, and the degree stays 7
    _, _, ops = square_setup(8)
    assert embedding_constant(ops, 5.0) == _constant_at_degree(ops, 5.0, 7)


@settings(max_examples=20, deadline=None)
@given(s=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_lp_quotient_is_scale_invariant(s):
    _, _, ops = interval_setup(elements=8)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(ops.n_free)
    n1, _ = _lp(volume_table(ops, 8), v, 4.0)
    n2, _ = _lp(volume_table(ops, 8), s * v, 4.0)
    vn1 = math.sqrt(v @ (ops.K @ v))
    vn2 = math.sqrt((s * v) @ (ops.K @ (s * v)))
    assert np.isclose(n1 / vn1, n2 / vn2, rtol=1e-10)


def test_trace_constants_are_one_on_unit_interval():
    # the linear function x attains equality in |w(1)| <= |w'|_L2
    mesh, part, ops = interval_setup(elements=32)
    assert abs(trace_constant(ops, 4.0) - 1.0) <= 1e-9
    assert abs(trace_constant(ops, 2.0) - 1.0) <= 1e-9


def test_well_constants_formula_examples():
    c0 = 3.0 ** (-0.25)
    wc = well_constants(rho=1.0, n=1, c0=c0, c1=c0, c2=1.0, c3=1.0,
                        lambda1=2.4674, R=1.0, m0=1.0)
    assert np.isclose(wc.N, 1.0 / 12.0)
    assert np.isclose(wc.lambda_star, math.sqrt(3.0))
    assert wc.P == 8.0
    assert wc.D == 2.0
    assert wc.tau == 1.0 / 16.0

    wc2 = well_constants(rho=1.0, n=2, c0=c0, c1=c0, c2=1.0, c3=1.0,
                         lambda1=1.0, R=1.0, m0=1.0)
    assert wc2.P == 12.0
    assert wc2.D == 3.0
    assert wc2.tau == 1.0 / 24.0


def test_well_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        well_constants(rho=1.0, n=1, c0=0.0, c1=1.0, c2=1.0, c3=1.0,
                       lambda1=1.0, R=1.0, m0=1.0)


def test_well_function_values():
    assert well_function(0.0, 0.3, 1.0) == 0.0
    # rho = 1: J(lambda*/2) = 3 lambda*^2 / 64
    N = 0.2
    lam_star = (1.0 / (4.0 * N)) ** 0.5
    assert np.isclose(well_function(lam_star / 2, N, 1.0), 3 * lam_star ** 2 / 64)
    with pytest.raises(ValueError):
        well_function(-1.0, 0.3, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    N=st.floats(min_value=1e-3, max_value=1e3),
    rho=st.floats(min_value=0.1, max_value=4.0),
    frac=st.floats(min_value=1e-3, max_value=0.999),
)
def test_well_function_sign_pattern(N, rho, frac):
    lam_star = (1.0 / (4.0 * N)) ** (1.0 / (2.0 * rho))
    assert well_function(frac * lam_star, N, rho) > 0.0
    assert abs(well_function(lam_star, N, rho)) <= 1e-12 * lam_star ** 2
    assert well_function(lam_star / frac, N, rho) < 0.0


def test_lambda_star_decreases_in_N():
    stars = [well_constants(1.0, 1, c, c, 1.0, 1.0, 1.0, 1.0, 1.0).lambda_star
             for c in (0.5, 0.7, 0.9)]
    assert stars[0] > stars[1] > stars[2]


def test_admissibility_zero_data():
    mesh, part, ops = interval_setup(elements=16)
    wc = compute_well_constants(ops, rho=1.0)
    z = np.zeros(ops.n_free)
    rep = admissibility(z, z, z, z, wc, ops)
    assert rep.L == 0.0
    assert rep.admissible


def test_admissibility_threshold_is_strict():
    mesh, part, ops = interval_setup(elements=16)
    wc = compute_well_constants(ops, rho=1.0)
    _, vec = first_eigenpair(ops)
    vnorm = math.sqrt(vec @ (ops.K @ vec))
    z = np.zeros(ops.n_free)
    # at the threshold (up to rounding): the flag must mirror the strict
    # comparison of the computed norm against the threshold
    u0 = (wc.lambda1_star / vnorm) * vec
    rep = admissibility(u0, u0, z, z, wc, ops)
    assert rep.norms_below_threshold == (rep.norm_u0 < rep.threshold)
    assert not rep.L_below_quarter_threshold_sq  # L ~ threshold^2 > threshold^2/4
    assert not rep.admissible
    # unambiguously at/above the threshold: inadmissible
    above = (wc.lambda1_star * (1.0 + 1e-9) / vnorm) * vec
    rep2 = admissibility(above, above, z, z, wc, ops)
    assert not rep2.norms_below_threshold
    assert not rep2.admissible


def test_admissibility_small_amplitude_algebra():
    # |u0| = |v0| = lambda*/10, zero velocities, rho = 2 (general set):
    # N = 1/(4 lambda*^4), so L = lambda*^2 (1/100 + 1/(2 10^6)) < lambda*^2 / 4
    mesh, part, ops = interval_setup(elements=16)
    wc = compute_well_constants(ops, rho=2.0)
    _, vec = first_eigenpair(ops)
    vnorm = math.sqrt(vec @ (ops.K @ vec))
    u0 = (wc.lambda_star / 10.0 / vnorm) * vec
    z = np.zeros(ops.n_free)
    rep = admissibility(u0, u0, z, z, wc, ops)
    assert rep.threshold_kind == "general" and rep.threshold == wc.lambda_star
    expected = wc.lambda_star ** 2 * (1.0 / 100.0 + 1.0 / 2e6)
    assert np.isclose(rep.L, expected, rtol=1e-10)
    assert rep.admissible


def test_validate_hypotheses_table():
    assert validate_hypotheses(1.0, 3).valid  # 5/24 <= 1 <= 5/4 and regular
    report = validate_hypotheses(1.0, 3)
    names = {r.name: r.satisfied for r in report.regimes}
    assert names["intermediate_dimension"] and names["regular_decay"]

    assert validate_hypotheses(0.4, 7, 1.4).valid
    assert not validate_hypotheses(1.0, 7).valid
    assert not validate_hypotheses(1.0, 7, 1.4).valid
    assert validate_hypotheses(0.1, 2, 3.0).valid  # 4 rho theta = 1.2 >= 1
    assert not validate_hypotheses(0.1, 2, 1.0).valid  # theta must exceed 1

    high = {r.name: r for r in validate_hypotheses(0.4, 7).regimes}
    assert "rho = 0.4" in high["high_dimension"].detail
    assert "theta = 1.4" in high["high_dimension"].detail

    with pytest.raises(ValueError):
        validate_hypotheses(1.0, 0)


def test_constants_invariant_under_element_permutation():
    mesh, part, ops = interval_setup(elements=24)
    wc = compute_well_constants(ops, rho=1.0)

    rng = np.random.default_rng(9)
    perm = rng.permutation(mesh.n_elements)
    shuffled = Mesh(mesh.dim, mesh.vertices, mesh.elements[perm],
                    mesh.facets, mesh.facet_normals)
    part2 = classify_boundary(shuffled, 0.0)
    ops2 = assemble_operators(part2)
    wc2 = compute_well_constants(ops2, rho=1.0)
    for name in ("c0", "c1", "c2", "c3", "lambda1", "N", "lambda_star",
                 "N1", "lambda1_star", "P", "D", "tau"):
        assert np.isclose(getattr(wc, name), getattr(wc2, name), rtol=1e-12), name


def test_compute_well_constants_applies_safety():
    mesh, part, ops = interval_setup(elements=16)
    raw = compute_well_constants(ops, rho=1.0, safety=1.0)
    inflated = compute_well_constants(ops, rho=1.0, safety=1.1)
    assert np.isclose(inflated.c1, 1.1 * raw.c1)
    assert inflated.lambda_star < raw.lambda_star  # conservative shrink
    assert inflated.lambda1_star < raw.lambda1_star
    # tau in 1D has no c dependence
    assert inflated.tau == raw.tau == 1.0 / 16.0


def test_threshold_selection_by_exponent():
    wc = well_constants(rho=1.0, n=1, c0=0.7, c1=0.7, c2=1.0, c3=1.0,
                        lambda1=2.4, R=1.0, m0=1.0)
    value, kind = wc.threshold()
    assert kind == "regular" and value == wc.lambda1_star
    wc2 = well_constants(rho=2.0, n=1, c0=0.7, c1=0.7, c2=1.0, c3=1.0,
                         lambda1=2.4, R=1.0, m0=1.0)
    value2, kind2 = wc2.threshold()
    assert kind2 == "general" and value2 == wc2.lambda_star


# 16^2 has 289 vertices (the dense eigensolver), 24^2 has 625 (eigsh)
@pytest.mark.parametrize("n", [16, 24])
def test_prepare_factors_K_once_and_keeps_only_the_eigenpair(n, monkeypatch):
    factored = []
    real_splu = kgwell.constants.spla.splu

    def counting_splu(A, *args, **kwargs):
        factored.append(A)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(kgwell.constants.spla, "splu", counting_splu)
    cfg = ScenarioConfig(name="k", mesh_kind="rectangle", nx=n, ny=n, x0=(-0.1, -0.1),
                         u0=FieldInit("eigenfunction", 0.1), v0=FieldInit("eigenfunction", 0.1))
    prep = prepare(cfg)
    K = prep.operators.K
    assert len(factored) == 1
    assert factored[0].shape == K.shape and (factored[0] != K).nnz == 0
    # the time loop inherits the eigenpair, not the K factor or the tables
    # of the embedding and trace constants
    assert set(prep.operators._caches) == {("eigenpair",)}


def test_constants_without_a_factor_match_the_shared_factor():
    _, _, ops = square_setup(4)
    lu = factor_spd(ops.K)
    assert embedding_constant(ops, 4.0) == embedding_constant(ops, 4.0, lu_K=lu)
    assert trace_constant(ops, 2.0) == trace_constant(ops, 2.0, lu_K=lu)


def test_K_and_the_step_matrix_are_factored_by_factor_spd_alone(monkeypatch):
    spd_calls, splu_calls = [], []

    def counting_spd(A):
        spd_calls.append(A)
        return factor_spd(A)

    real_splu = kgwell.assembly.spla.splu

    def counting_splu(A, *args, **kwargs):
        splu_calls.append(kwargs)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(kgwell.constants, "factor_spd", counting_spd)
    monkeypatch.setattr(kgwell.dynamics, "factor_spd", counting_spd)
    monkeypatch.setattr(kgwell.assembly.spla, "splu", counting_splu)
    cfg = ScenarioConfig(name="f", mesh_kind="rectangle", nx=24, ny=24, x0=(-0.1, -0.1),
                         dt=0.01, t_end=0.03, stride=1, u0=FieldInit("eigenfunction", 0.3),
                         v0=FieldInit("eigenfunction", 0.3))
    prep = prepare(cfg)
    assert len(spd_calls) == 1
    kgwell.dynamics.simulate(prep)
    ops = prep.operators
    A = ops.M + (prep.dt / 2.0) * ops.B + (prep.dt * prep.dt / 4.0) * ops.K
    assert len(spd_calls) == 2
    assert (spd_calls[0] != ops.K).nnz == 0 and (spd_calls[1] != A).nnz == 0
    assert len(splu_calls) == 2
    assert all(kw["permc_spec"] == "MMD_AT_PLUS_A" for kw in splu_calls)


def test_exactly_singular_K_raises_setup_error():
    _, _, ops = square_setup(8)
    K = ops.K.tolil()
    K[5, :] = 0.0
    K[:, 5] = 0.0
    singular = dataclasses.replace(ops, K=K.tocsr())
    with pytest.raises(SetupError, match="singular"):
        compute_well_constants(singular, rho=1.0)
