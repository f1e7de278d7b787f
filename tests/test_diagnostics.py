import dataclasses
import math

import numpy as np
import pytest

import kgwell.diagnostics as diag
from _oracles import dense_coupling_energy, dense_multiplier_form
from conftest import interval_setup, square_setup
from kgwell import (
    CouplingSpec,
    SimState,
    step,
    well_function,
)
from kgwell.dynamics import Trajectory, TrajectoryPoint, record


def _state(ops, rng=None, scale=1.0):
    n = ops.n_free
    rng = rng or np.random.default_rng(0)
    return SimState(0.0, scale * rng.uniform(0.2, 1.0, n),
                    scale * rng.uniform(0.2, 1.0, n),
                    scale * rng.standard_normal(n),
                    scale * rng.standard_normal(n))


def test_energy_zero_state():
    mesh, _, ops = interval_setup(8)
    s = diag.full_sample(SimState.zero(ops.n_free), ops, CouplingSpec(1.0))
    assert s.kinetic == s.potential == s.coupling == s.E == 0.0
    assert s.psi == 0.0


def test_energy_decomposition_and_homogeneity():
    mesh, _, ops = interval_setup(8)
    spec = CouplingSpec(1.0)
    rng = np.random.default_rng(4)
    base = _state(ops, rng)
    s1 = diag.full_sample(base, ops, spec)
    assert np.isclose(s1.E, s1.kinetic + s1.potential + s1.coupling, rtol=1e-15)
    scale = 1.7
    s2 = diag.full_sample(SimState(0.0, scale * base.u, scale * base.v,
                                   scale * base.du, scale * base.dv), ops, spec)
    assert np.isclose(s2.kinetic, scale ** 2 * s1.kinetic)
    assert np.isclose(s2.potential, scale ** 2 * s1.potential)
    assert np.isclose(s2.coupling, scale ** 4 * s1.coupling)  # 2 rho + 2


def test_energy_sign_indefinite_for_opposed_fields():
    mesh, _, ops = interval_setup(8)
    spec = CouplingSpec(1.0)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.3, 1.0, ops.n_free)
    z = np.zeros_like(u)
    s = diag.full_sample(SimState(0.0, u, -u, z, z), ops, spec)
    assert s.coupling < 0
    assert s.E < s.potential
    dense = dense_coupling_energy(ops.mesh, ops.embed(u), ops.embed(-u), 1.0)
    assert np.isclose(s.coupling, dense, rtol=1e-11)


def test_perturbed_energy_limits():
    mesh, _, ops = interval_setup(8)
    spec = CouplingSpec(1.0)
    rng = np.random.default_rng(6)
    u = rng.uniform(0.2, 1.0, ops.n_free)
    v = rng.uniform(0.2, 1.0, ops.n_free)
    z = np.zeros_like(u)
    # zero velocities: psi vanishes
    out = diag.full_sample(SimState(0.0, u, v, z, z), ops, spec)
    assert out.psi == 0.0


def test_multiplier_functional_against_dense_quadrature():
    mesh, _, ops = interval_setup(12)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(ops.n_free)
    z = np.zeros_like(u)
    st = SimState(0.0, u, z, u, z)  # du = u, v = dv = 0, n = 1
    psi = diag.multiplier_functional(st, ops)
    dense = 2.0 * dense_multiplier_form(mesh, ops.embed(u), ops.embed(u), [0.0])
    assert np.isclose(psi, dense, rtol=1e-11)


def test_multiplier_functional_takes_dimension_from_mesh():
    # n = 2: psi = 2 (u', m.grad u) + (n-1) (u', u) with n read from ops.mesh
    mesh, part, ops = square_setup(4)
    rng = np.random.default_rng(8)
    u, du = rng.standard_normal((2, ops.n_free))
    z = np.zeros_like(u)
    psi = diag.multiplier_functional(SimState(0.0, u, z, du, z), ops)
    m_term = float(du @ (ops.M @ u))
    assert abs(m_term) > 0.01 * abs(psi)  # far above rtol: dropping (n-1) fails
    dense = 2.0 * dense_multiplier_form(mesh, ops.embed(du), ops.embed(u), part.x0,
                                        nsub=2, npts=4)
    assert np.isclose(psi, dense + m_term, rtol=1e-11)


@pytest.mark.parametrize("setup", [lambda: interval_setup(12), lambda: square_setup(4)],
                         ids=["interval-12", "square-4"])
def test_multiplier_functional_leaves_a_stepped_state_alone(setup):
    # read-only: the coupled Evaluation that the next step reuses is kept
    _, _, ops = setup()
    spec = CouplingSpec(1.0)
    state = step(_state(ops, scale=0.3), 1e-3, ops, spec)
    ev = state._evaluation
    assert ev is not None
    psi = diag.multiplier_functional(state, ops)
    assert state._evaluation is ev
    assert psi == diag.full_sample(state, ops, spec).psi
    assert state._evaluation is ev


def _manual_trajectory(ops, states):
    return record(states, ops, None)


def test_check_equivalence_zero_trajectory():
    mesh, _, ops = interval_setup(6)
    wc_like = type("C", (), {"P": 8.0})()
    states = [SimState.zero(ops.n_free, t) for t in (0.0, 0.05, 0.1)]
    traj = _manual_trajectory(ops, states)
    rep = diag.check_equivalence(traj, wc_like)
    assert rep.ok and rep.eps1 == 1.0 / 16.0


def test_check_equivalence_reports_time_of_worst_low():
    # low-side violations -1e-3 at t = 1 and -1e-6 at t = 2 (E = 0, so
    # low = eps1 psi with eps1 = 1/16): the worst is the earlier one
    _, _, ops = interval_setup(6)
    zero = diag.full_sample(SimState.zero(ops.n_free), ops, None)
    rows = [dataclasses.replace(zero, t=float(t), psi=psi)
            for t, psi in enumerate((0.0, -1.6e-2, -1.6e-5, 0.0))]
    traj = Trajectory([TrajectoryPoint(row, 0.0) for row in rows])
    rep = diag.check_equivalence(traj, type("C", (), {"P": 8.0})())
    assert not rep.ok
    assert rep.worst_low == pytest.approx(-1e-3, rel=1e-12)
    assert rep.worst_t == 1.0


def test_check_equivalence_on_admissible_run(short_admissible_run):
    wc = short_admissible_run.meta["constants"]
    rep = diag.check_equivalence(short_admissible_run, wc)
    assert rep.ok


def test_psi_bounded_by_P_times_E(short_admissible_run):
    wc = short_admissible_run.meta["constants"]
    for p in short_admissible_run.samples:
        assert abs(p.energy.psi) <= wc.P * p.energy.E + 1e-12


def test_admissible_run_lower_bounds(short_admissible_run):
    # positivity chain: A >= 0, the well profile nonnegative, and the energy
    # dominating a quarter of the quadratic terms
    wc = short_admissible_run.meta["constants"]
    for p in short_admissible_run.samples:
        e = p.energy
        A = 0.5 * e.potential + e.coupling
        assert A >= -1e-13
        assert well_function(e.norm_u_V, wc.N1, 1.0) >= -1e-13
        assert well_function(e.norm_v_V, wc.N1, 1.0) >= -1e-13
        quarter = 0.5 * e.kinetic + 0.5 * e.potential
        assert e.E >= quarter - 1e-13


def test_check_dissipation_zero_trajectory():
    mesh, _, ops = interval_setup(6)
    states = [SimState.zero(ops.n_free, t) for t in (0.0, 0.05, 0.1)]
    traj = _manual_trajectory(ops, states)
    rep = diag.check_dissipation(traj, m0=1.0)
    assert rep.ok and rep.worst_residual <= 0.0


def test_check_dissipation_interior_velocities():
    # velocities vanishing on the damped boundary:
    # constant energy and zero flux pass with zero slack
    mesh, _, ops = interval_setup(6)
    n = ops.n_free
    du = np.zeros(n)
    du[:-1] = 0.3  # last free node is the damped endpoint
    z = np.zeros(n)
    u = np.zeros(n)
    states = [SimState(t, u, z, du, z) for t in (0.0, 0.05)]
    traj = _manual_trajectory(ops, states)
    rep = diag.check_dissipation(traj, m0=1.0, slack=0.0)
    assert rep.ok and abs(rep.worst_residual) < 1e-14


def test_check_dissipation_rejects_coarse_sampling():
    mesh, _, ops = interval_setup(6)
    states = [SimState.zero(ops.n_free, t) for t in (0.0, 0.5)]
    traj = _manual_trajectory(ops, states)
    with pytest.raises(ValueError):
        diag.check_dissipation(traj, m0=1.0)


def test_check_dissipation_on_admissible_run(short_admissible_run):
    wc = short_admissible_run.meta["constants"]
    rep = diag.check_dissipation(short_admissible_run, wc.m0)
    assert rep.ok


def test_decay_report_zero_initial_energy():
    mesh, _, ops = interval_setup(6)
    wc_like = type("C", (), {"P": 8.0, "tau": 1 / 16})()
    states = [SimState.zero(ops.n_free, t) for t in (0.0, 0.05, 0.1)]
    traj = _manual_trajectory(ops, states)
    rep = diag.check_decay_bound(traj, wc_like)
    assert rep.bound_satisfied and rep.max_violation_ratio == 0.0
    assert math.isnan(rep.fitted_rate)


def test_decay_report_on_admissible_run(short_admissible_run):
    wc = short_admissible_run.meta["constants"]
    rep = diag.check_decay_bound(short_admissible_run, wc)
    assert rep.bound_satisfied
    assert rep.max_violation_ratio <= 1.0
    assert rep.fitted_rate >= wc.tau / 3.0


def test_well_monitor_inadmissible_data():
    from conftest import ScenarioConfig, FieldInit
    from kgwell import simulate
    cfg = ScenarioConfig(name="big", elements=16, x0=(0.0,), dt=5e-3,
                         t_end=0.05, stride=1,
                         u0=FieldInit("eigenfunction", 2.0),
                         v0=FieldInit("eigenfunction", 2.0))
    traj = simulate(cfg)
    wc = traj.meta["constants"]
    assert not traj.meta["admissible"]
    rep = diag.well_monitor(traj, wc)
    assert not rep.invariant_held


def test_well_monitor_zero_trajectory():
    mesh, _, ops = interval_setup(6)
    wc_like = type("C", (), {"P": 8.0, "tau": 1 / 16,
                             "threshold": lambda self: (1.0, "general")})()
    states = [SimState.zero(ops.n_free, t) for t in (0.0, 0.05)]
    traj = _manual_trajectory(ops, states)
    rep = diag.well_monitor(traj, wc_like)
    assert rep.invariant_held
    assert rep.max_norm_u == 0.0 and rep.max_norm_v == 0.0


def test_well_monitor_on_admissible_run(short_admissible_run):
    wc = short_admissible_run.meta["constants"]
    rep = diag.well_monitor(short_admissible_run, wc)
    assert rep.invariant_held
    assert rep.threshold_kind == "regular"
    assert rep.max_norm_u < rep.threshold


def test_report_rendering(short_admissible_run):
    wc = short_admissible_run.meta["constants"]
    results = {
        "well": diag.well_monitor(short_admissible_run, wc),
        "equivalence": diag.check_equivalence(short_admissible_run, wc),
        "dissipation": diag.check_dissipation(short_admissible_run, wc.m0),
        "decay": diag.check_decay_bound(short_admissible_run, wc),
    }
    text = diag.render_report(wc, results, header="short run")
    assert "well invariant: held" in text
    assert "decay bound" in text
    lines = diag.report_lines(wc, results)
    joined = "\n".join(lines)
    assert "constants.tau=" in joined
    assert "decay.bound_satisfied=true" in joined
    assert all("=" in ln for ln in lines)
