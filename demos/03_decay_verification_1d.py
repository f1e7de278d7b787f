"""End-to-end decay verification on the interval.

Simulates the coupled system with radial boundary damping from admissible
first-eigenfunction data, then runs the four trajectory checks:

  1. well invariant: both V-norms stay strictly below the threshold;
  2. perturbed-energy equivalence E/2 <= E + eps1 psi <= 3E/2;
  3. boundary dissipation dE/dt <= -m0 (damped-boundary velocity norms);
  4. the exponential bound E(t) <= 3 E(0) exp(-tau t / 3).

Outputs land in demo_output/: the sampled trajectory as CSV, the report in
human and key=value form, and a log-energy SVG against the bound.
"""

import math
from pathlib import Path

import kgwell.diagnostics as diag
from kgwell import FieldInit, ScenarioConfig, simulate, write_trajectory_csv
from kgwell.svgplot import line_plot

out = Path("demo_output")
out.mkdir(exist_ok=True)

config = ScenarioConfig(
    name="decay-1d",
    elements=100,
    x0=(0.0,),
    rho=1.0,
    dt=1e-3,
    t_end=20.0,
    stride=10,
    u0=FieldInit("eigenfunction", 0.1),
    v0=FieldInit("eigenfunction", 0.1),
)

print(f"simulating {config.name}: T = {config.t_end}, dt = {config.dt} ...")
traj = simulate(config)
wc = traj.meta["constants"]
threshold, kind = wc.threshold()
print(f"  admissible: {traj.meta['admissible']}, threshold "
      f"{threshold:.4f} ({kind} set)")

results = {
    "well": diag.well_monitor(traj, wc),
    "equivalence": diag.check_equivalence(traj, wc),
    "dissipation": diag.check_dissipation(traj, wc.m0),
    "decay": diag.check_decay_bound(traj, wc),
}
print()
print(diag.render_report(wc, results, header=f"run: {config.name}"))

csv_path = out / "decay_1d.csv"
write_trajectory_csv(traj, csv_path)
(out / "decay_1d_report.kv").write_text(
    "\n".join(diag.report_lines(wc, results)) + "\n")

times = traj.times()
energies = traj.energies()
floor = 1e-300
log_e = [math.log10(max(e, floor)) for e in energies]
rate = wc.tau / 3.0
bound = [math.log10(3 * energies[0]) - rate * t / math.log(10) for t in times]
svg_path = out / "decay_1d.svg"
line_plot(svg_path, [(times.tolist(), log_e, "log10 E(t)"),
                     (times.tolist(), bound, "log10 bound")],
          title="energy vs guaranteed bound", xlabel="t", ylabel="log10 E")

print()
print(f"wrote {csv_path}, {out / 'decay_1d_report.kv'}, {svg_path}")
print(f"fitted decay rate {results['decay'].fitted_rate:.3f} vs guaranteed "
      f"{rate:.5f}: the bound is conservative, as expected")
