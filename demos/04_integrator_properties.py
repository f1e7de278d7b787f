"""Why the implicit midpoint rule.

Three structural properties make energy bookkeeping trustworthy:

  1. without damping and coupling, the discrete energy is conserved exactly
     (quadratic invariant of a symmetric linear scheme);
  2. the scheme is time-symmetric: integrating forward, flipping the
     velocities, and integrating back recovers the initial state;
  3. the error against the analytic single-mode solution drops fourfold per
     dt halving (order 2).

Every energy loss in a damped run is therefore attributable to the
boundary term, not to the integrator.
"""

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from kgwell import (
    CouplingSpec,
    SimState,
    StepOptions,
    assemble_operators,
    build_interval_mesh,
    classify_boundary,
    first_eigenpair,
    step,
)

mesh = build_interval_mesh(0.0, 1.0, 32)
part = classify_boundary(mesh, 0.0)
ops = assemble_operators(mesh, part)
undamped = dataclasses.replace(ops, B=sp.csr_matrix(ops.B.shape))

lam, w = first_eigenpair(undamped)
omega = math.sqrt(lam)
z = np.zeros_like(w)
spec = CouplingSpec(1.0)


def linear_energy(o, s):
    return 0.5 * float(s.du @ (o.M @ s.du) + s.u @ (o.K @ s.u)
                       + s.dv @ (o.M @ s.dv) + s.v @ (o.K @ s.v))


def m_norm(o, x):
    return math.sqrt(float(x @ (o.M @ x)))


print("1) exact conservation (no damping, no coupling), 2000 steps:")
state = SimState(0.0, w, z, z, z)
e0 = linear_energy(undamped, state)
opts = StepOptions()
for _ in range(2000):
    state = step(state, 0.01, undamped, None, opts)
print(f"   relative energy drift: {abs(linear_energy(undamped, state) - e0) / e0:.2e}")

print()
print("2) time reversal with the nonlinear coupling active:")
wn = w / m_norm(undamped, w)
start = SimState(0.0, 0.4 * wn, 0.3 * wn, z, z)
state = start
rev = StepOptions(tol=1e-13)
for _ in range(1000):
    state = step(state, 1e-3, undamped, spec, rev)
state = SimState(state.t, state.u, state.v, -state.du, -state.dv)
for _ in range(1000):
    state = step(state, 1e-3, undamped, spec, rev)
print(f"   |u(back) - u(0)|_M = {m_norm(undamped, state.u - start.u):.2e}")

print()
print("3) order-2 convergence against u(t) = cos(omega t) w:")
T = 1.2
prev = None
for dt in (0.04, 0.02, 0.01, 0.005):
    s = SimState(0.0, w, z, z, z)
    for _ in range(round(T / dt)):
        s = step(s, dt, undamped, None, opts)
    err = (m_norm(undamped, s.u - math.cos(omega * T) * w)
           + m_norm(undamped, s.du + omega * math.sin(omega * T) * w) / omega)
    note = "" if prev is None else f"  (ratio {prev / err:.2f})"
    print(f"   dt = {dt:<6g} error = {err:.3e}{note}")
    prev = err
