"""The command-line surface, driven programmatically.

Equivalent shell commands:

    kgwell validate  --config demos/configs/decay_1d.cfg
    kgwell constants --config demos/configs/decay_1d.cfg
    kgwell run       --config demos/configs/decay_1d.cfg --out demo_output/run
    kgwell sweep     --config demos/configs/decay_1d.cfg --out demo_output/sweep \
                     --param initial.u0_amplitude --values 0.1,0.5,0.9

Exit codes: 0 all checks pass, 1 a check failed, 2 rejected input (bad
config key or value, unreadable initial-data file, unbuildable mesh or
boundary split, sampling too coarse for the dissipation check), 3 numerical
setup failure, 4 nonlinear solver failure; run and sweep finalize
manifest.json with the matching status in every case.
"""

from pathlib import Path

from kgwell.cli import main

cfg = str(Path(__file__).parent / "configs" / "decay_1d.cfg")
out = Path("demo_output")

print("== validate ==")
code = main(["validate", "--config", cfg])
print(f"(exit {code})\n")

print("== constants ==")
code = main(["constants", "--config", cfg])
print(f"(exit {code})\n")

print("== run ==")
code = main(["run", "--config", cfg, "--out", str(out / "run")])
print(f"(exit {code})\n")

print("== amplitude sweep: all stay inside the well ==")
code = main([
    "sweep", "--config", cfg, "--out", str(out / "sweep"),
    "--param", "initial.u0_amplitude", "--values", "0.1,0.5,0.9", "--no-plot",
])
print(f"(exit {code})")
print((out / "sweep" / "sweep_summary.csv").read_text())
