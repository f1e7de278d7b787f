import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import kgwell.diagnostics as diag
from _oracles import per_state_row, stored_state_dissipation, two_solve_step
from conftest import interval_setup, square_setup
from kgwell import (
    CouplingSpec,
    FieldInit,
    NonlinearSolveFailure,
    ScenarioConfig,
    SimState,
    StepOptions,
    first_eigenpair,
    prepare,
    simulate,
    step,
    write_trajectory_csv,
)
import kgwell.assembly
import kgwell.dynamics
from kgwell.dynamics import ROW_BATCH_BYTES, _step_factorizations, record


def without_damping(ops):
    """Same operators with B = 0 (a new object, so an empty factorization cache)."""
    return dataclasses.replace(ops, B=sp.csr_matrix(ops.B.shape))


def mnorm(ops, x):
    return math.sqrt(float(x @ (ops.M @ x)))


def linear_energy(ops, st):
    return 0.5 * (st.du @ (ops.M @ st.du) + st.dv @ (ops.M @ st.dv)
                  + st.u @ (ops.K @ st.u) + st.v @ (ops.K @ st.v))


def test_zero_state_is_equilibrium():
    mesh, _, ops = interval_setup(8)
    spec = CouplingSpec(1.0)
    state = SimState.zero(ops.n_free)
    out = step(state, 0.05, ops, spec)
    assert out.t == 0.05
    for name in ("u", "v", "du", "dv"):
        np.testing.assert_allclose(getattr(out, name), 0.0, atol=1e-15)


def test_step_rejects_nonpositive_dt():
    mesh, _, ops = interval_setup(4)
    with pytest.raises(ValueError):
        step(SimState.zero(ops.n_free), 0.0, ops, CouplingSpec(1.0))


def test_state_validation():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        SimState(0.0, z, z, z, np.zeros(2))  # mismatched lengths
    bad = z.copy()
    bad[1] = np.nan
    with pytest.raises(ValueError):
        SimState(0.0, bad, z, z, z)


def test_linear_undamped_step_conserves_energy():
    mesh, _, ops = interval_setup(32)
    ops0 = without_damping(ops)
    lam, w = first_eigenpair(ops0)
    state = SimState(0.0, w, 0.3 * w, np.zeros_like(w), np.zeros_like(w))
    opts = StepOptions()
    e0 = linear_energy(ops0, state)
    for _ in range(50):
        state = step(state, 0.02, ops0, None, opts)
    assert abs(linear_energy(ops0, state) - e0) <= 1e-12 * e0


def test_single_mode_tracks_harmonic_oracle():
    mesh, _, ops = interval_setup(32)
    ops0 = without_damping(ops)
    lam, w = first_eigenpair(ops0)
    omega = math.sqrt(lam)
    z = np.zeros_like(w)
    state = SimState(0.0, w, z, z, z)
    opts = StepOptions()
    dt, nsteps = 0.01, 100
    for _ in range(nsteps):
        state = step(state, dt, ops0, None, opts)
    t = nsteps * dt
    err = mnorm(ops0, state.u - math.cos(omega * t) * w)
    assert err < 1e-3 * mnorm(ops0, w)


def test_damped_linear_step_dissipation_identity():
    # implicit midpoint: E(t+dt) - E(t) = -dt (p_mid B p_mid + q_mid B q_mid)
    mesh, _, ops = interval_setup(16)
    rng = np.random.default_rng(2)
    n = ops.n_free
    state = SimState(0.0, rng.standard_normal(n), rng.standard_normal(n),
                     rng.standard_normal(n), rng.standard_normal(n))
    opts = StepOptions()
    dt = 0.01
    new = step(state, dt, ops, None, opts)
    p_mid = 0.5 * (state.du + new.du)
    q_mid = 0.5 * (state.dv + new.dv)
    expected = -dt * (p_mid @ (ops.B @ p_mid) + q_mid @ (ops.B @ q_mid))
    actual = linear_energy(ops, new) - linear_energy(ops, state)
    assert np.isclose(actual, expected, rtol=1e-10)
    assert actual < 0.0  # boundary velocity generically nonzero


def test_replaced_operators_do_not_reuse_the_old_step_factor():
    # a copy with another B must factor its own step matrix, even when the
    # original already stepped and cached the factor of its own B
    _, _, ops = interval_setup(20)
    _, _, fresh = interval_setup(20)
    rng = np.random.default_rng(11)
    state = SimState(0.0, *rng.standard_normal((4, ops.n_free)))
    step(state, 0.01, ops, None)
    zero = sp.csr_matrix(ops.B.shape)
    got = step(state, 0.01, dataclasses.replace(ops, B=zero), None)
    expected = step(state, 0.01, dataclasses.replace(fresh, B=zero), None)
    for name in ("u", "v", "du", "dv"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def test_time_reversal_returns_initial_state():
    mesh, _, ops = interval_setup(24)
    ops0 = without_damping(ops)
    _, w = first_eigenpair(ops0)
    w = w / mnorm(ops0, w)
    z = np.zeros_like(w)
    start = SimState(0.0, 0.4 * w, 0.3 * w, z, z)
    spec = CouplingSpec(1.0)
    opts = StepOptions(tol=1e-13)
    dt, nsteps = 1e-3, 1000
    state = start
    for _ in range(nsteps):
        state = step(state, dt, ops0, spec, opts)
    state = SimState(state.t, state.u, state.v, -state.du, -state.dv)
    for _ in range(nsteps):
        state = step(state, dt, ops0, spec, opts)
    assert mnorm(ops0, state.u - start.u) < 1e-6
    assert mnorm(ops0, state.v - start.v) < 1e-6
    assert mnorm(ops0, state.du + start.du) < 1e-6


def test_second_order_convergence_against_analytic_mode():
    mesh, _, ops = interval_setup(32)
    ops0 = without_damping(ops)
    lam, w = first_eigenpair(ops0)
    omega = math.sqrt(lam)
    z = np.zeros_like(w)
    opts = StepOptions()
    T = 1.2

    def final_error(dt):
        state = SimState(0.0, w, z, z, z)
        for _ in range(round(T / dt)):
            state = step(state, dt, ops0, None, opts)
        eu = mnorm(ops0, state.u - math.cos(omega * T) * w)
        ev = mnorm(ops0, state.du + omega * math.sin(omega * T) * w) / omega
        return eu + ev

    ratio = final_error(0.02) / final_error(0.01)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("rho", [1.0, 0.5, 2.0, None],
                         ids=["coupled", "coupled-rho0.5", "coupled-rho2", "linear"])
@pytest.mark.parametrize("setup", [lambda: interval_setup(16), lambda: square_setup(8)],
                         ids=["interval-16", "square-8"])
def test_block_step_matches_two_solve_reference_bitwise(monkeypatch, setup, rho):
    # the reference evaluates the coupling on every fixed-point pass, so the
    # block step's passes stopped by the residual bound change no bit.  The
    # block step makes a coupling pass for the state it returns, the
    # reference one for the state it starts from.  On these rough data the
    # bound stops passes at rho = 2 (at rho = 1 it exceeds the last passes'
    # residuals 8-fold, and stops none at this tol); rho < 1 has no bound
    _, _, ops = setup()
    rng = np.random.default_rng(7)
    u, v, du, dv = 0.3 * rng.standard_normal((4, ops.n_free))
    spec, opts = None if rho is None else CouplingSpec(rho), StepOptions()
    calls = {"block": 0, "ref": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kgwell.dynamics, "coupling_vectors",
                        counted("block", kgwell.dynamics.coupling_vectors))
    monkeypatch.setattr(kgwell.assembly, "coupling_vectors",
                        counted("ref", kgwell.assembly.coupling_vectors))
    block = ref = SimState(0.0, u, v, du, dv)
    for _ in range(20):
        block = step(block, 0.01, ops, spec, opts)
        ref = two_solve_step(ref, 0.01, ops, spec, opts)
    assert np.any(block.u != u)
    for name in ("u", "v", "du", "dv"):
        assert np.array_equal(getattr(block, name), getattr(ref, name)), name
    certified = calls["ref"] + 1 - calls["block"]  # the block's first state too
    if rho is None:
        assert calls == {"block": 0, "ref": 0}
    elif rho < 1:
        assert certified == 0
    elif rho == 2.0:
        assert certified > 0


BOUND_MESHES = {"interval-16": lambda: interval_setup(16)[2],
                "square-8": lambda: square_setup(8)[2]}


def passes_with_bounds(ops, spec, state, dt, opts):
    """One step with every fixed-point pass evaluated: the residual bound
    _advance forms on each pass, and the lumped residual sqrt(sum(w r^2))
    that the pass's coupling evaluation gives."""
    bounds, forces = [], [state.evaluation(ops, spec).F]
    real_bound, real_vectors = kgwell.dynamics._residual_bound, kgwell.dynamics.coupling_vectors

    def recording_bound(*args):
        bounds.append(real_bound(*args))
        return math.inf  # no pass stops on its bound

    def recording_vectors(uv, spec, operators, energy=False):
        out = real_vectors(uv, spec, operators, energy)
        if not energy:
            forces.append(np.column_stack(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgwell.dynamics, "_residual_bound", recording_bound)
        mp.setattr(kgwell.dynamics, "coupling_vectors", recording_vectors)
        try:
            step(state, dt, ops, spec, opts)
        except NonlinearSolveFailure:
            pass
    assert len(forces) == len(bounds) + 1
    _, w = _step_factorizations(ops, dt)
    residuals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for before, after in zip(forces, forces[1:]):
            r = (dt / 2.0) * (after - before)
            residuals.append(math.sqrt(float(np.sum(r * (w[:, None] * r)))))
    return bounds, residuals


@settings(max_examples=80, deadline=None)
@given(mesh=st.sampled_from(sorted(BOUND_MESHES)), rho=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       amplitude=st.floats(min_value=1e-3, max_value=1.0),
       dt=st.sampled_from([1e-3, 1e-2, 1e-1]), smooth=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_residual_bound_is_at_least_the_evaluated_residual(mesh, rho, amplitude, dt, smooth,
                                                           seed):
    # rough data leave the bound 8 to 300 times the residual; multiples of
    # the first eigenvector bring it within 1.5 to 2 times at rho = 1
    ops = BOUND_MESHES[mesh]()
    rng = np.random.default_rng(seed)
    if smooth:
        _, phi = first_eigenpair(ops)
        blocks = np.outer(rng.uniform(-1.0, 1.0, 4), phi / np.abs(phi).max())
    else:
        blocks = rng.uniform(-1.0, 1.0, (4, ops.n_free))
    state = SimState(0.0, *(amplitude * blocks))
    bounds, residuals = passes_with_bounds(ops, CouplingSpec(rho), state, dt,
                                           StepOptions(tol=1e-12, max_iter=8))
    assert bounds
    for bound, res in zip(bounds, residuals):
        if math.isfinite(res):
            assert bound >= res


@pytest.mark.parametrize("mesh", sorted(BOUND_MESHES))
def test_rho_below_one_bounds_no_pass(mesh):
    # the coupling is not Lipschitz for rho < 1, so every bound is inf and
    # every pass is evaluated
    ops, spec = BOUND_MESHES[mesh](), CouplingSpec(0.5)
    rng = np.random.default_rng(3)
    state = SimState(0.0, *(0.3 * rng.standard_normal((4, ops.n_free))))
    bounds, _ = passes_with_bounds(ops, spec, state, 0.01, StepOptions())
    assert len(bounds) > 1 and all(b == math.inf for b in bounds)


@pytest.mark.parametrize("setup", [lambda: interval_setup(16), lambda: square_setup(8)],
                         ids=["interval-16", "square-8"])
def test_lumped_residual_norm_bounds_the_m_inverse_norm(setup):
    # the fixed-point stop test uses sum(w r^2), w = (d+2)/l; it must never be
    # looser than r^T M^-1 r
    _, _, ops = setup()
    _, weights = _step_factorizations(ops, 0.01)
    d = ops.mesh.dim
    lumped = np.asarray(ops.M.sum(axis=1)).ravel()
    np.testing.assert_array_equal(weights, (d + 2.0) / lumped)
    M = ops.M.toarray()
    rng = np.random.default_rng(5)
    for r in rng.standard_normal((200, ops.n_free)):
        assert r @ np.linalg.solve(M, r) <= (d + 2) * (r @ (r / lumped))
    top = scipy.linalg.eigh(np.diag(lumped), M, eigvals_only=True)[-1]
    assert 1.0 < top < d + 2


def test_simulate_caches_only_the_step_factor():
    # the time loop keeps one sparse LU: the step matrix's, not one of M
    cfg = ScenarioConfig(name="coupled", mesh_kind="rectangle", nx=4, ny=4,
                         x0=(-0.1, -0.1), dt=0.01, t_end=0.05, stride=2,
                         u0=FieldInit("eigenfunction", 0.2), v0=FieldInit("eigenfunction", 0.2))
    prep = prepare(cfg)
    simulate(prep)
    caches = prep.operators._caches
    factors = [key for key, value in caches.items() if isinstance(value, spla.SuperLU)]
    assert factors == [("step_A", 0.01)]


def test_nonlinear_solve_failure_for_huge_dt():
    mesh, _, ops = interval_setup(16)
    _, w = first_eigenpair(ops)
    vnorm = math.sqrt(w @ (ops.K @ w))
    u0 = (5.0 / vnorm) * w
    z = np.zeros_like(u0)
    state = SimState(0.0, u0, u0, z, z)
    with pytest.raises(NonlinearSolveFailure) as err:
        step(state, 10.0, ops, CouplingSpec(1.0))
    assert err.value.time == 0.0


def test_simulate_zero_scenario():
    cfg = ScenarioConfig(name="zero", elements=16, x0=(0.0,), dt=0.01,
                         t_end=0.5, stride=5)
    traj = simulate(cfg)
    assert traj.samples[0].energy.t == 0.0
    np.testing.assert_allclose(traj.energies(), 0.0, atol=1e-30)
    assert np.isclose(traj.times()[-1], 0.5)
    # what the time loop made; the run's setup lives on its Prepared alone
    assert set(traj.meta) == {"dt", "n_steps"}


STREAMED_CASES = {
    "interval-16": ScenarioConfig(name="i", elements=16, x0=(0.0,), dt=5e-3, t_end=0.3,
                                  stride=3, u0=FieldInit("eigenfunction", 0.2),
                                  v0=FieldInit("bump", 0.15)),
    "square-6": ScenarioConfig(name="s", mesh_kind="rectangle", nx=6, ny=6, x0=(-0.1, -0.1),
                               dt=0.01, t_end=0.2, stride=2,
                               u0=FieldInit("eigenfunction", 0.2),
                               v0=FieldInit("polynomial", 0.1)),
}


def test_simulate_without_coupling_steps_and_samples_linearly():
    cfg = ScenarioConfig(name="off", elements=8, x0=(0.0,), dt=0.01, t_end=0.05,
                         stride=1, coupling_enabled=False,
                         u0=FieldInit("eigenfunction", 0.4), v0=FieldInit("bump", 0.3))
    prep = prepare(cfg)
    traj = simulate(prep)
    opts = StepOptions(tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    state = prep.state0
    states = []
    assert traj.samples[0].energy == diag.full_sample(state, prep.operators, None)
    for p in traj.samples[1:]:
        state = step(state, prep.dt, prep.operators, None, opts)
        states.append(state)
        assert p.energy == diag.full_sample(state, prep.operators, None)
    for name in ("u", "v", "du", "dv"):
        assert np.array_equal(getattr(traj.samples[-1].state, name), getattr(state, name)), name
    assert all(p.energy.coupling == 0.0 for p in traj.samples)
    coupled = step(prep.state0, prep.dt, prep.operators, prep.spec, opts)
    assert not np.array_equal(coupled.u, states[0].u)


def fresh(state):
    """The same vectors in a new state, which carries no evaluation."""
    return SimState(state.t, state.u, state.v, state.du, state.dv)


@pytest.mark.parametrize("name", sorted(STREAMED_CASES))
def test_simulate_with_coupling_matches_fresh_states_bitwise(name):
    # rows and states that read each state's evaluation, left by the step
    # that made it, equal those of states evaluated from scratch
    prep = prepare(STREAMED_CASES[name])
    cfg, ops, spec = prep.config, prep.operators, prep.spec
    traj = simulate(prep)
    opts = StepOptions(tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    state = prep.state0
    rows = [diag.full_sample(fresh(state), ops, spec)]
    n_steps = round(cfg.t_end / prep.dt)
    for k in range(1, n_steps + 1):
        state = step(fresh(state), prep.dt, ops, spec, opts)
        if k % cfg.stride == 0 or k == n_steps:
            rows.append(diag.full_sample(fresh(state), ops, spec))
    assert [p.energy for p in traj.samples] == rows
    assert all(row.coupling != 0.0 for row in rows)
    for vec in ("u", "v", "du", "dv"):
        assert np.array_equal(getattr(traj.samples[-1].state, vec), getattr(state, vec)), vec


def batch_sizes(monkeypatch):
    """The number of states of each diagnostics.energy_rows call record makes."""
    sizes = []
    rows = diag.energy_rows

    def counted(times, evaluations, operators, previous=None):
        sizes.append(len(evaluations))
        return rows(times, evaluations, operators, previous)

    monkeypatch.setattr(diag, "energy_rows", counted)
    return sizes


def per_state_rows(states, ops, spec):
    """([row tuple], [flux]) of the states, one state at a time with x @ y."""
    out = [per_state_row(s, ops, spec, before)
           for s, before in zip(states, [None] + list(states[:-1]))]
    return [row for row, _ in out], [flux for _, flux in out]


def rows_of(traj):
    return ([dataclasses.astuple(p.energy) for p in traj.samples],
            [p.flux for p in traj.samples])


BATCHED_CASES = {
    # 49 free nodes, so 67 coupled states a batch: four batches
    "interval-50-stride-1": ScenarioConfig(name="b", elements=50, x0=(0.0,), dt=1e-3,
                                           t_end=0.25, stride=1,
                                           u0=FieldInit("eigenfunction", 0.1),
                                           v0=FieldInit("bump", 0.12)),
    "square-6": STREAMED_CASES["square-6"],
    # 16 free nodes and no coupling vectors, so 256 states a batch: three batches
    "uncoupled": ScenarioConfig(name="off", elements=16, x0=(0.0,), dt=1e-3, t_end=0.6,
                                stride=1, coupling_enabled=False,
                                u0=FieldInit("eigenfunction", 0.3),
                                v0=FieldInit("bump", 0.2)),
}


@pytest.mark.parametrize("name", sorted(BATCHED_CASES))
def test_batched_rows_equal_per_state_rows_bitwise(name, monkeypatch):
    prep = prepare(BATCHED_CASES[name])
    cfg, ops = prep.config, prep.operators
    spec = prep.spec if cfg.coupling_enabled else None
    sizes = batch_sizes(monkeypatch)
    traj = simulate(prep)
    opts = StepOptions(tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    states = [prep.state0]
    n_steps = round(cfg.t_end / prep.dt)
    state = prep.state0
    for k in range(1, n_steps + 1):
        state = step(fresh(state), prep.dt, ops, spec, opts)
        if k % cfg.stride == 0 or k == n_steps:
            states.append(fresh(state))
    assert rows_of(traj) == per_state_rows(states, ops, spec)
    assert sum(sizes) == len(states)
    if cfg.stride == 1:
        # the flux of a batch's first sample uses the last velocities of the one before
        per_state = fresh(prep.state0).evaluation(ops, spec).nbytes
        assert len(sizes) >= 3
        assert sizes[:-1] == [math.ceil(ROW_BATCH_BYTES / per_state)] * (len(sizes) - 1)


@pytest.mark.parametrize("setup", [lambda: interval_setup(16), lambda: square_setup(6)],
                         ids=["interval-16", "square-6"])
@pytest.mark.parametrize("budget", ["default", "two states"])
def test_record_of_fresh_states_equals_per_state_rows_bitwise(setup, budget, monkeypatch):
    _, _, ops = setup()
    spec = CouplingSpec(1.0)
    rng = np.random.default_rng(13)
    states = [SimState(0.01 * k, *(0.3 * rng.standard_normal((4, ops.n_free))))
              for k in range(7)]
    if budget == "two states":
        monkeypatch.setattr(kgwell.dynamics, "ROW_BATCH_BYTES",
                            2 * fresh(states[0]).evaluation(ops, spec).nbytes)
    sizes = batch_sizes(monkeypatch)
    traj = record(states, ops, spec)
    assert sizes == ([7] if budget == "default" else [2, 2, 2, 1])
    assert rows_of(traj) == per_state_rows(states, ops, spec)
    assert traj.samples[0].state is states[0] and traj.samples[-1].state is states[-1]
    assert [p.energy for p in traj.samples] == [diag.full_sample(s, ops, spec) for s in states]


def test_rows_of_a_64_square_are_formed_one_state_at_a_time(monkeypatch):
    _, _, ops = square_setup(64)
    sizes = batch_sizes(monkeypatch)
    for spec in (CouplingSpec(1.0), None):
        record([SimState.zero(ops.n_free, t) for t in (0.0, 0.1, 0.2)], ops, spec)
    assert sizes == [1] * 6


@pytest.mark.parametrize("setup", [lambda: interval_setup(16), lambda: square_setup(6)],
                         ids=["interval-16", "square-6"])
def test_evaluation_of_other_operators_or_spec_is_not_reused(setup):
    _, _, ops = setup()
    spec = CouplingSpec(1.0)
    rng = np.random.default_rng(11)
    start = SimState(0.0, *(0.3 * rng.standard_normal((4, ops.n_free))))
    others = {
        "B doubled": (dataclasses.replace(ops, B=2 * ops.B), spec),
        "K doubled": (dataclasses.replace(ops, K=2 * ops.K), spec),
        "uncoupled": (ops, None),
        "rho 1.5": (ops, CouplingSpec(1.5)),
    }
    for case, (other_ops, other_spec) in others.items():
        stepped = step(start, 0.01, ops, spec)
        assert stepped._evaluation is not None
        ref = step(fresh(stepped), 0.01, other_ops, other_spec)
        got = step(stepped, 0.01, other_ops, other_spec)
        for name in ("u", "v", "du", "dv"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), (case, name)
        stepped = step(start, 0.01, ops, spec)
        assert (diag.full_sample(stepped, other_ops, other_spec)
                == diag.full_sample(fresh(stepped), other_ops, other_spec)), case
    stepped = step(start, 0.01, ops, spec)
    moved = dataclasses.replace(stepped, u=2 * stepped.u)
    assert moved._evaluation is None
    assert diag.full_sample(moved, ops, spec) == diag.full_sample(fresh(moved), ops, spec)


@pytest.mark.parametrize("name", sorted(STREAMED_CASES))
def test_streamed_dissipation_matches_stored_states_bitwise(name):
    prep = prepare(STREAMED_CASES[name])
    cfg, ops = prep.config, prep.operators
    opts = StepOptions(tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    states = [prep.state0]
    for k in range(1, round(cfg.t_end / prep.dt) + 1):
        states.append(step(states[-1], prep.dt, ops, prep.spec, opts))
    sampled = states[::cfg.stride]
    assert len(sampled) > 2 and sampled[-1] is states[-1]
    pairs = [(s, diag.full_sample(s, ops, prep.spec)) for s in sampled]
    worst, worst_t = stored_state_dissipation(pairs, ops, ops.delta_min)
    assert worst > -math.inf
    for traj in (record(sampled, ops, prep.spec), simulate(prep)):
        rep = diag.check_dissipation(traj, ops.delta_min, slack=0.0)
        assert rep.worst_residual == worst and rep.worst_t == worst_t


def test_simulate_keeps_only_first_and_last_state():
    cfg = ScenarioConfig(name="two", elements=8, x0=(0.0,), dt=0.01, t_end=0.1, stride=2,
                         u0=FieldInit("eigenfunction", 0.2))
    traj = simulate(cfg)
    kept = [p.state is not None for p in traj.samples]
    assert kept == [True] + [False] * (len(kept) - 2) + [True]
    assert len(kept) == 6
    assert traj.samples[-1].state.t == traj.times()[-1]


def test_simulate_admissible_well_and_dt_refinement():
    base = dict(name="well", elements=40, x0=(0.0,), t_end=2.0,
                u0=FieldInit("eigenfunction", 0.1),
                v0=FieldInit("eigenfunction", 0.1))
    prep1 = prepare(ScenarioConfig(dt=2e-3, stride=5, **base))
    traj1 = simulate(prep1)
    traj2 = simulate(ScenarioConfig(dt=1e-3, stride=10, **base))
    lam = prep1.constants.threshold()[0]
    assert prep1.admissibility.admissible
    m1 = max(p.energy.norm_u_V for p in traj1.samples)
    assert m1 < lam
    # max norm away from the shared initial instant: dt-refinement oracle
    m1_late = max(p.energy.norm_u_V for p in traj1.samples[1:])
    m2_late = max(p.energy.norm_v_V for p in traj2.samples[1:])
    assert abs(m1_late - m2_late) <= 1e-4 * lam


def test_energy_monotone_under_radial_damping(short_admissible_run):
    E = short_admissible_run.traj.energies()
    assert np.all(np.diff(E) <= 1e-9 * E[0])
    assert E[-1] < E[0]


def test_trajectory_validation():
    mesh, _, ops = interval_setup(4)
    spec = CouplingSpec(1.0)
    s0 = SimState.zero(ops.n_free)

    def trajectory(*times):
        states = [SimState(t, s0.u, s0.v, s0.du, s0.dv) for t in times]
        return record(states, ops, spec)

    with pytest.raises(ValueError):
        trajectory(0.5)  # first sample must sit at t = 0
    with pytest.raises(ValueError):
        trajectory(0.0, 0.0)  # strictly increasing times
    trajectory(0.0, 0.1)


def test_default_dt_uses_mesh_resolution():
    cfg = ScenarioConfig(name="d", elements=10, x0=(0.0,), t_end=1.0)
    assert prepare(cfg).dt == 0.01  # h/2 = 0.05 capped at 0.01
    cfg = ScenarioConfig(name="d", elements=400, x0=(0.0,), t_end=1.0)
    assert np.isclose(prepare(cfg).dt, 0.00125)  # h/2 below the cap


def test_csv_format_and_determinism(tmp_path):
    cfg = ScenarioConfig(name="det", elements=16, x0=(0.0,), dt=5e-3,
                         t_end=0.2, stride=4,
                         u0=FieldInit("eigenfunction", 0.1),
                         v0=FieldInit("eigenfunction", 0.1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        prep = prepare(cfg)
        write_trajectory_csv(simulate(prep), prep.constants, path)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ("t,E,E_eps,norm_u_V,norm_v_V,norm_du_L2,norm_dv_L2,"
                      "coupling_energy,gamma1_flux_u,gamma1_flux_v,well_margin")


def _csv_rows(traj, constants, tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, constants, path)
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


def test_csv_derived_columns_bitwise(tmp_path):
    # the writer forms E_eps and well_margin from each row and the constants;
    # u has the larger V-norm at t = 0 in the first run, v in the second
    for amp_u, amp_v in ((0.2, 0.15), (0.15, 0.2)):
        cfg = ScenarioConfig(name="csv", elements=16, x0=(0.0,), dt=5e-3, t_end=0.1,
                             stride=2, u0=FieldInit("eigenfunction", amp_u),
                             v0=FieldInit("bump", amp_v), u1=FieldInit("bump", 0.1))
        prep = prepare(cfg)
        traj = simulate(prep)
        wc = prep.constants
        eps1 = 1.0 / (2.0 * wc.P)
        thr, _ = wc.threshold()
        rows = _csv_rows(traj, wc, tmp_path)
        assert len(rows) == len(traj.samples)
        assert all(p.energy.psi != 0.0 for p in traj.samples)
        for row, p in zip(rows, traj.samples):
            e = p.energy
            assert row["E_eps"] == e.E + eps1 * e.psi
            assert row["well_margin"] == min(thr - e.norm_u_V, thr - e.norm_v_V)
            assert row["well_margin"] > 0.0
    # zero state: the perturbed energy vanishes with the energy
    zero = prepare(ScenarioConfig(name="z", elements=8, x0=(0.0,), dt=0.01,
                                  t_end=0.02, stride=1))
    assert all(row["E_eps"] == 0.0
               for row in _csv_rows(simulate(zero), zero.constants, tmp_path))
    # inadmissible data leave the well from t = 0
    big = prepare(ScenarioConfig(name="big", elements=16, x0=(0.0,), dt=5e-3,
                                 t_end=0.05, stride=1,
                                 u0=FieldInit("eigenfunction", 2.0),
                                 v0=FieldInit("eigenfunction", 2.0)))
    assert not big.admissibility.admissible
    assert _csv_rows(simulate(big), big.constants, tmp_path)[0]["well_margin"] < 0.0


def test_initial_presets():
    cfg = ScenarioConfig(
        name="p", elements=10, x0=(0.0,), t_end=1.0,
        u0=FieldInit("polynomial", 0.3, relative=False),
        v0=FieldInit("bump", 0.2, relative=False),
        u1=FieldInit("eigenfunction", 0.5, relative=False),
    )
    prep = prepare(cfg)
    ops = prep.operators
    # the linear profile x has unit V-norm on (0, 1)
    xs = ops.mesh.vertices[ops.free, 0]
    np.testing.assert_allclose(prep.state0.u, 0.3 * xs, atol=1e-12)
    assert np.all(prep.state0.v > 0)
    assert np.isclose(math.sqrt(prep.state0.du @ (ops.M @ prep.state0.du)), 0.5)
    assert np.isclose(math.sqrt(prep.state0.u @ (ops.K @ prep.state0.u)), 0.3)
    for unknown in ("fourier", "file"):  # "file": an old config fails loudly
        with pytest.raises(ValueError, match="unknown initial preset"):
            FieldInit(unknown)


def test_initial_preset_relative_amplitude():
    cfg = ScenarioConfig(name="p", elements=10, x0=(0.0,), t_end=1.0,
                         u0=FieldInit("eigenfunction", 0.1))
    prep = prepare(cfg)
    nrm = math.sqrt(prep.state0.u @ (prep.operators.K @ prep.state0.u))
    assert np.isclose(nrm, 0.1 * prep.constants.threshold()[0])
