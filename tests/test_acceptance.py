"""Acceptance suite: each numbered test pins one release criterion at its
stated tolerance and prints a pass line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

import kgwell.diagnostics as diag
from _oracles import dense_coupling_energy, dense_coupling_vectors
from conftest import interval_setup
from kgwell import (
    CouplingSpec,
    SimState,
    StepOptions,
    compute_well_constants,
    coupling_energy,
    coupling_vectors,
    first_eigenpair,
    step,
    validate_hypotheses,
)


def _identity_worst_residual(traj, ops):
    """Worst per-sample defect of dE/dt + (damped-boundary energy flux)."""
    # delta = m.nu is 1 on the damped endpoint, so B and T agree entry for
    # entry and the recorded T-flux of each pair is its B-flux
    assert (ops.B != ops.T).nnz == 0
    worst = 0.0
    samples = traj.samples
    for a, b in zip(samples[:-1], samples[1:]):
        gap = b.energy.t - a.energy.t
        dE = (b.energy.E - a.energy.E) / gap
        worst = max(worst, abs(dE + b.flux))
    return worst


def test_criterion_1_constants_reproduction():
    t0 = time.perf_counter()
    mesh, part, ops = interval_setup(elements=200, x0=0.0)
    wc = compute_well_constants(ops, rho=1.0, safety=1.0)
    elapsed = time.perf_counter() - t0
    assert wc.R == 1.0
    assert wc.m0 == 1.0
    assert wc.P == 8.0
    assert wc.D == 2.0
    assert wc.tau == 1.0 / 16.0
    exact = (math.pi / 2) ** 2
    assert abs(wc.lambda1 - exact) / exact < 1e-3
    assert abs(wc.c3 - 1.0) <= 1e-9
    assert abs(wc.c2 - 1.0) <= 1e-9
    assert elapsed < 5.0
    print(f"\ncriterion 1: PASS - R=1, m0=1, P=8, D=2, tau=1/16, "
          f"lambda1={wc.lambda1:.6f} (~(pi/2)^2), c2=c3=1 [{elapsed:.2f}s]")


def test_criterion_2_well_invariant(accept_1d_run):
    traj = accept_1d_run
    lam_reg = traj.meta["constants"].threshold()[0]
    lam_gen = traj.meta["constants"].lambda_star
    assert traj.meta["admissible"]
    max_u = max(p.energy.norm_u_V for p in traj.samples)
    max_v = max(p.energy.norm_v_V for p in traj.samples)
    for lam in (lam_reg, lam_gen):
        assert max_u < lam and max_v < lam
        assert lam - max_u > 0.5 * lam  # margin beyond half the threshold
        assert lam - max_v > 0.5 * lam
    assert traj.meta["wall_time"] < 60.0
    print(f"criterion 2: PASS - max |u|_V={max_u:.4g}, max |v|_V={max_v:.4g} "
          f"vs threshold {lam_reg:.4g}, margin {(lam_reg - max_u) / lam_reg:.0%} "
          f"[{traj.meta['wall_time']:.1f}s]")


def test_criterion_3_dissipation_identity(accept_1d_run, accept_1d_residual_pair):
    traj = accept_1d_run
    ops = traj.meta["operators"]
    dt = traj.meta["dt"]
    E0 = traj.energies()[0]
    worst = _identity_worst_residual(traj, ops)
    bound = 10.0 * dt * E0
    assert worst <= bound
    run_dt, run_half = accept_1d_residual_pair
    w1 = _identity_worst_residual(run_dt, run_dt.meta["operators"])
    w2 = _identity_worst_residual(run_half, run_half.meta["operators"])
    ratio = w1 / w2
    assert ratio >= 3.0
    print(f"criterion 3: PASS - worst residual {worst:.3e} <= 10 dt E0 = "
          f"{bound:.3e}; dt-halving ratio {ratio:.2f} >= 3")


def test_criterion_4_decay_bound(accept_1d_run):
    traj = accept_1d_run
    wc = traj.meta["constants"]
    assert wc.tau / 3.0 == 1.0 / 48.0
    report = diag.check_decay_bound(traj, wc)
    assert report.bound_satisfied
    assert report.max_violation_ratio <= 1.0
    expected = report.fitted_rate >= 1.0 / 48.0  # reported, not asserted
    print(f"criterion 4: PASS - E(t) <= 3 E0 exp(-t/48) at every sample "
          f"(max ratio {report.max_violation_ratio:.3g}); fitted rate "
          f"{report.fitted_rate:.3g} >= 1/48: {expected}")


def test_criterion_5_perturbed_energy_equivalence(accept_1d_run):
    traj = accept_1d_run
    wc = traj.meta["constants"]
    rep = diag.check_equivalence(traj, wc)
    assert rep.eps1 == 1.0 / 16.0  # 1/(2P) with P = 8
    assert rep.ok  # slack 1e-12 inside the check
    assert rep.worst_low >= -1e-12 and rep.worst_high <= 1e-12
    print(f"criterion 5: PASS - E/2 <= E + psi/16 <= 3E/2 at all samples "
          f"(worst margins {rep.worst_low:.2e}, {rep.worst_high:.2e})")


def test_criterion_6_sign_indefinite_coupling():
    mesh, _, ops = interval_setup(elements=16)
    spec = CouplingSpec(rho=1.0)
    rng = np.random.default_rng(2024)
    u = rng.uniform(0.2, 1.0, ops.n_free)
    e = coupling_energy((u, -u), spec, ops)
    dense = dense_coupling_energy(mesh, ops.embed(u), ops.embed(-u), 1.0)
    assert e < 0.0
    assert abs(e - dense) <= 1e-10 * abs(dense)
    print(f"criterion 6: PASS - v = -u gives coupling energy {e:.6e} < 0, "
          f"matching the dense oracle to {abs(e - dense) / abs(dense):.1e}")


def test_criterion_7_oracle_equivalence_and_gradient():
    mesh, _, ops = interval_setup(elements=4)
    spec = CouplingSpec(rho=1.0)
    rng = np.random.default_rng(7)
    worst_int, worst_grad = 0.0, 0.0
    for _ in range(5):
        u = rng.uniform(0.2, 1.0, ops.n_free)
        v = rng.uniform(0.2, 1.0, ops.n_free)
        fu, fv = coupling_vectors((u, v), spec, ops)
        fu_d, fv_d = dense_coupling_vectors(mesh, ops.embed(u), ops.embed(v), 1.0)
        e = coupling_energy((u, v), spec, ops)
        e_d = dense_coupling_energy(mesh, ops.embed(u), ops.embed(v), 1.0)
        err = max(
            np.max(np.abs(fu - fu_d[ops.free]) / np.abs(fu_d[ops.free])),
            np.max(np.abs(fv - fv_d[ops.free]) / np.abs(fv_d[ops.free])),
            abs(e - e_d) / abs(e_d),
        )
        worst_int = max(worst_int, err)
        assert err <= 1e-10
        # gradient consistency of the coupling terms against the energy
        h = 1e-6
        for i in range(ops.n_free):
            eh = np.zeros(ops.n_free)
            eh[i] = h
            fd = (coupling_energy((u + eh, v), spec, ops)
                  - coupling_energy((u - eh, v), spec, ops)) / (2 * h)
            rel = abs(fd - fu[i]) / max(abs(fu[i]), 1e-12)
            worst_grad = max(worst_grad, rel)
            assert rel <= 1e-5
    print(f"criterion 7: PASS - 5 random states: quadrature vs dense oracle "
          f"{worst_int:.1e} <= 1e-10; gradient vs central differences "
          f"{worst_grad:.1e} <= 1e-5")


def test_criterion_8_integrator_properties():
    import dataclasses
    import scipy.sparse as sp

    mesh, _, ops = interval_setup(elements=32)
    ops0 = dataclasses.replace(ops, B=sp.csr_matrix(ops.B.shape), _caches={})
    lam, w = first_eigenpair(ops0)
    omega = math.sqrt(lam)
    z = np.zeros_like(w)
    spec = CouplingSpec(1.0)

    def m_norm(x):
        return math.sqrt(float(x @ (ops0.M @ x)))

    def energy_lin(st):
        return 0.5 * float(st.du @ (ops0.M @ st.du) + st.u @ (ops0.K @ st.u)
                           + st.dv @ (ops0.M @ st.dv) + st.v @ (ops0.K @ st.v))

    # 1) exact conservation over 1e4 linear undamped steps
    state = SimState(0.0, w, z, z, z)
    opts = StepOptions()
    e0 = energy_lin(state)
    for _ in range(10_000):
        state = step(state, 0.01, ops0, None, opts)
    drift = abs(energy_lin(state) - e0) / e0
    assert drift <= 1e-10

    # 2) time reversal with the coupling active returns the initial state
    wn = w / m_norm(w)
    start = SimState(0.0, 0.4 * wn, 0.3 * wn, z, z)
    opts_rev = StepOptions(tol=1e-13)
    state = start
    for _ in range(2000):
        state = step(state, 1e-3, ops0, spec, opts_rev)
    state = SimState(state.t, state.u, state.v, -state.du, -state.dv)
    for _ in range(2000):
        state = step(state, 1e-3, ops0, spec, opts_rev)
    reversal = max(m_norm(state.u - start.u), m_norm(state.v - start.v),
                   m_norm(state.du + start.du), m_norm(state.dv + start.dv))
    assert reversal <= 1e-6

    # 3) second-order error reduction against the analytic single mode
    T = 1.2
    opts_lin = StepOptions()

    def final_error(dt):
        st = SimState(0.0, w, z, z, z)
        for _ in range(round(T / dt)):
            st = step(st, dt, ops0, None, opts_lin)
        eu = m_norm(st.u - math.cos(omega * T) * w)
        ev = m_norm(st.du + omega * math.sin(omega * T) * w) / omega
        return eu + ev

    ratio = final_error(0.02) / final_error(0.01)
    assert 3.5 <= ratio <= 4.5
    print(f"criterion 8: PASS - energy drift {drift:.2e} <= 1e-10 over 1e4 "
          f"steps; reversal error {reversal:.2e} <= 1e-6; dt-halving error "
          f"ratio {ratio:.2f} in [3.5, 4.5]")


def test_criterion_9_hypothesis_validator():
    table = [
        (1.0, 3, None, True),
        (0.4, 7, 1.4, True),
        (1.0, 7, None, False),
        (0.1, 2, 3.0, True),
        (0.1, 2, 1.0, False),
    ]
    for rho, n, theta, expected in table:
        assert validate_hypotheses(rho, n, theta).valid is expected, (rho, n, theta)
    print("criterion 9: PASS - regime table {(1,3) ok, (2/5,7,7/5) ok, "
          "(1,7) no, (0.1,2,3) ok, (0.1,2,1) no} reproduced")


def test_criterion_10_two_dimensional_smoke(accept_2d_run):
    traj = accept_2d_run
    wc = traj.meta["constants"]
    # the dimension-dependent terms of P and D are active in 2D
    assert wc.dim == 2
    assert np.isclose(wc.P, 4.0 * (2.0 * wc.R + 0.5 + 0.5 / wc.lambda1))
    assert wc.P > 8.0 * wc.R
    assert np.isclose(wc.D, wc.R ** 3 + wc.R + wc.R ** 2 * wc.c3 ** 2)
    assert np.isclose(wc.m0, 1.1)
    assert np.isclose(wc.R, math.hypot(1.1, 1.1))
    assert traj.meta["admissible"]

    well = diag.well_monitor(traj, wc)
    equiv = diag.check_equivalence(traj, wc)
    dissip = diag.check_dissipation(traj, wc.m0)
    decay = diag.check_decay_bound(traj, wc)
    assert well.invariant_held
    assert equiv.ok
    assert dissip.ok
    assert decay.bound_satisfied
    assert traj.meta["wall_time"] < 300.0
    print(f"criterion 10: PASS - 2D constants (P={wc.P:.3f}, D={wc.D:.3f}, "
          f"tau={wc.tau:.4f}); well/equivalence/dissipation/decay all hold "
          f"[{traj.meta['wall_time']:.1f}s]")
