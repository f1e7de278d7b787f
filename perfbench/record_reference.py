"""Record the reference outputs the benchmark checks runs against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload (default: all) once with the reference seed and writes
perfbench/reference/<workload>.json: the report.kv constants, the SHA-256
of trajectory.csv, and its lines at up to MAX_ROWS evenly spaced row
indices (always the first and the last). Re-record only when a change is
meant to alter the trajectory, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import REFERENCE_DIR, csv_digest, read_kv, reference_path
from run import run_child
from workloads import DEFAULT_SEED, WORKLOADS, amplitudes, expected_samples

MAX_ROWS = 501


def record(name: str) -> None:
    workload = WORKLOADS[name]
    child = run_child(workload, DEFAULT_SEED, "plain", "record")
    out = child.run_dir / "out"
    if child.exit_code != 0:
        raise SystemExit(f"{name}: kgwell run exited with {child.exit_code}; see {child.run_dir}")
    kv = read_kv(out / "report.kv")
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    if len(rows) != expected_samples(workload):
        raise SystemExit(f"{name}: {len(rows)} trajectory rows, expected {expected_samples(workload)}")
    stride = max(1, -(-(len(rows) - 1) // (MAX_ROWS - 1)))
    index = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    reference = {
        "workload": name,
        "seed": DEFAULT_SEED,
        "amplitudes": amplitudes(workload, DEFAULT_SEED),
        "recorded_with": {k: child.result[k] for k in ("python", "numpy", "scipy")},
        "constants": {k.removeprefix("constants."): float(v)
                      for k, v in sorted(kv.items()) if k.startswith("constants.")},
        "csv_sha256": csv_digest(out / "trajectory.csv"),
        "rows": {"index": index, "lines": [rows[i] for i in index]},
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(reference, indent=1) + "\n")
    shutil.rmtree(child.run_dir)
    print(f"{name}: {len(rows)} rows, {len(index)} kept -> {reference_path(workload)}")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or list(WORKLOADS):
        record(workload_name)
