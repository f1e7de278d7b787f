"""Meshes and the radial boundary split.

The damping acts only where the field m(x) = x - x0 points out of the
domain (m . nu > 0).  This script builds a 1D and a 2D mesh, splits their
boundaries for a given star point x0, and reports the two geometric
constants that control the decay rate:

  R  = max |m(x)| over the closure (attained at a vertex),
  m0 = min m . nu over the damped part (the damping floor).
"""

from kgwell import build_interval_mesh, build_rectangle_mesh, classify_boundary

print("== interval (0, 1), star point at the left end ==")
mesh = build_interval_mesh(0.0, 1.0, 8)
part = classify_boundary(mesh, 0.0)
for f, nrm, lab in zip(mesh.facets, mesh.facet_normals, part.labels):
    x = mesh.vertices[f[0], 0]
    kind = "damped" if lab else "clamped"
    print(f"  facet at x = {x:.1f}, normal {nrm[0]:+.0f}: {kind}")
print(f"  constants: R = {part.R}, m0 = {part.m0}")
print()

print("== unit square, star point outside the lower-left corner ==")
mesh2 = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), 4, 4)
part2 = classify_boundary(mesh2, (-0.1, -0.1))
n_damped = len(part2.gamma1_facets)
print(f"  {mesh2.n_elements} triangles, {mesh2.n_facets} boundary edges, "
      f"{n_damped} damped (right and top sides)")
print(f"  constants: R = {part2.R:.6f} (far corner), m0 = {part2.m0:.6f}")
for w in part2.warnings:
    print(f"  note: {w}")

print()
print("scaling check: dilating domain and star point by s scales R and m0 by s")
for s in (0.5, 2.0):
    ms = build_rectangle_mesh((0.0, 0.0), (s, s), 4, 4)
    ps = classify_boundary(ms, (-0.1 * s, -0.1 * s))
    print(f"  s = {s}: R = {ps.R:.6f} (= {s} * {part2.R:.6f}), m0 = {ps.m0:.6f}")
