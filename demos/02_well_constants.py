"""Potential-well thresholds and decay constants.

The coupling energy has no sign, so plain energy estimates fail.  Global
control comes from keeping both field norms inside a "well" of radius
lambda*: there the profile J(s) = s^2/4 - N s^(2(rho+1)) is nonnegative and
the energy dominates a quarter of the quadratic terms.

The thresholds need embedding and trace constants.  They are maximized over
the finite-element space (so they are lower bounds for the continuum ones)
and inflated by a safety factor before use, which only shrinks the well.
"""

import numpy as np

from kgwell import (
    assemble_operators,
    build_interval_mesh,
    build_rectangle_mesh,
    classify_boundary,
    compute_well_constants,
    embedding_constant,
    first_eigenvalue,
    trace_constant,
    well_function,
)

print("== raw constants on (0, 1), clamped at x = 0 ==")
mesh = build_interval_mesh(0.0, 1.0, 200)
part = classify_boundary(mesh, 0.0)
ops = assemble_operators(mesh, part)

lam1 = first_eigenvalue(ops)
print(f"  first eigenvalue        {lam1:.8f}   (continuum (pi/2)^2 = {(np.pi / 2) ** 2:.8f})")
c1 = embedding_constant(ops, 4.0)
print(f"  L4 embedding constant   {c1:.8f}   (< 3^(-1/4) = {3 ** -0.25:.8f})")
c_l2 = embedding_constant(ops, 2.0)
print(f"  L2 embedding constant   {c_l2:.8f}   (= lambda1^(-1/2) = {lam1 ** -0.5:.8f})")
print(f"  boundary trace (L4, L2) {trace_constant(ops, 4.0):.8f}, "
      f"{trace_constant(ops, 2.0):.8f}   (both exactly 1: w(x) = x is optimal)")

print()
print("== derived thresholds (safety factor 1.1 on the raw constants) ==")
wc = compute_well_constants(ops, rho=1.0, safety=1.1)
for name in ("N", "lambda_star", "N1", "lambda1_star", "P", "D", "tau"):
    print(f"  {name:13s} = {getattr(wc, name):.8f}")
print(f"  guaranteed bound: E(t) <= 3 E(0) exp(-t * {wc.tau / 3:.6f})")

print()
print("== the well profile around its root ==")
for frac in (0.25, 0.5, 0.9, 1.0, 1.1):
    lam = frac * wc.lambda1_star
    val = well_function(lam, wc.N1, 1.0)
    print(f"  J({frac:4.2f} lambda1*) = {val:+.3e}")

print()
print("== 2D: the dimension-dependent terms switch on ==")
mesh2 = build_rectangle_mesh((0, 0), (1, 1), 8, 8)
part2 = classify_boundary(mesh2, (-0.1, -0.1))
ops2 = assemble_operators(mesh2, part2)
wc2 = compute_well_constants(ops2, rho=1.0)
print(f"  P = {wc2.P:.4f} = 4(2R + 1/2 + 1/(2 lambda1)) with R = {wc2.R:.4f}, "
      f"lambda1 = {wc2.lambda1:.4f}")
print(f"  D = {wc2.D:.4f} = R^3 + R + R^2 c3^2,  tau = {wc2.tau:.4f}")
