"""The coupling energy has no sign.

With opposed fields v = -u the coupling term (1/(rho+1)) int (|u|^rho u)
(|v|^rho v) dx is strictly negative, so the total energy dips below the
kinetic-plus-gradient part.  That is exactly why admissibility (starting
inside the potential well) is needed for global control: inside the well
the negative dip is dominated, E >= (kinetic + gradient terms) / 2.
"""

import numpy as np

from kgwell import (
    CouplingSpec,
    SimState,
    assemble_operators,
    build_interval_mesh,
    classify_boundary,
    compute_well_constants,
    coupling_energy,
    first_eigenpair,
    full_sample,
)

mesh = build_interval_mesh(0.0, 1.0, 64)
part = classify_boundary(mesh, 0.0)
ops = assemble_operators(mesh, part)
spec = CouplingSpec(rho=1.0)
wc = compute_well_constants(ops, rho=1.0)
_, shape = first_eigenpair(ops)
shape = shape / np.sqrt(shape @ (ops.K @ shape))
z = np.zeros_like(shape)

print(f"{'amplitude':>12s} {'potential':>12s} {'coupling':>12s} {'E':>12s} {'E/pot':>8s}")
for amp in (0.25, 0.5, 1.0, 2.0):
    u = amp * shape
    s = full_sample(SimState(0.0, u, -u, z, z), ops, spec)
    print(f"{amp:12.3f} {s.potential:12.6f} {s.coupling:12.6f} {s.E:12.6f} "
          f"{s.E / s.potential:8.4f}")

print()
print(f"well threshold lambda1* = {wc.lambda1_star:.4f}: inside it "
      f"(amplitude < {wc.lambda1_star:.4f}) the dip stays harmless,")
print("far outside it the coupling overwhelms the quadratic part and the "
      "energy is no longer coercive.")

print()
amp = 0.5
u = amp * shape
e = coupling_energy((u, -u), spec, ops)
refined = coupling_energy((u, -u), CouplingSpec(1.0, quad_degree=10), ops)
print(f"quadrature sanity at amplitude {amp}: fixed rule {e:.12e}, "
      f"degree-10 rule {refined:.12e} (difference {abs(e - refined):.1e})")
