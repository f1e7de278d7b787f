"""Output checker: decides whether one `kgwell run` succeeded.

A run fails when
  * its exit code is not 0,
  * manifest.json is not finalized with "status": "pass" (and admissible
    data, which every workload is built to have),
  * a constant in report.kv is off its pinned value: the analytic 1D values
    exactly, every other constant within PIN_RTOL of the value recorded in
    the workload's reference file,
  * trajectory.csv is malformed: wrong header or row count, a non-finite
    value, times not strictly increasing from 0 to t_end,
  * for the reference seed, a recorded trajectory.csv value w is not
    matched within CSV_RTOL * |w| + CSV_ATOL * (largest |w| in its column).

Bit-identity with the reference is reported separately (`bitwise`), because
round-off level drift is an allowed outcome of a refactor.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload, expected_samples

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_COLUMNS = ("t", "E", "E_eps", "norm_u_V", "norm_v_V", "norm_du_L2", "norm_dv_L2",
               "coupling_energy", "gamma1_flux_u", "gamma1_flux_v", "well_margin")
#: Relative tolerance on recorded (iteratively computed) constants.
PIN_RTOL = 1e-9
#: Tolerance on reference trajectory values: relative to the value, plus a
#: floor relative to the column's largest magnitude for values that have
#: decayed towards zero. Far above round-off drift, far below any change in
#: the discretisation.
CSV_RTOL = 1e-9
CSV_ATOL = 1e-12


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    bitwise: bool | None = None
    csv_bytes: int = 0
    svg_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> dict:
    return json.loads(reference_path(workload).read_text())


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(x) for x in row] for row in reader]
    return header, rows


def csv_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_constants(kv: dict[str, str], workload: Workload, pinned: dict) -> list[str]:
    problems = []
    for name, want in pinned.items():
        raw = kv.get(f"constants.{name}")
        if raw is None:
            problems.append(f"report.kv lacks constants.{name}")
            continue
        got = float(raw)
        exact = workload.exact.get(name)
        if exact is not None and got != exact:
            problems.append(f"constants.{name} = {got!r}, pinned exactly at {exact!r}")
        elif not abs(got - want) <= PIN_RTOL * abs(want):
            problems.append(f"constants.{name} = {got!r}, pinned at {want!r}")
    return problems


def _check_trajectory(header, rows, workload: Workload, expected_rows: int) -> list[str]:
    if tuple(header) != CSV_COLUMNS:
        return [f"trajectory.csv header {header} != {list(CSV_COLUMNS)}"]
    if len(rows) != expected_rows:
        return [f"trajectory.csv has {len(rows)} rows, expected {expected_rows}"]
    if any(len(r) != len(CSV_COLUMNS) for r in rows):
        return ["trajectory.csv has a row of the wrong width"]
    if not all(math.isfinite(x) for r in rows for x in r):
        return ["trajectory.csv has a non-finite value"]
    times = [r[0] for r in rows]
    t_end = float(workload.params["time.t_end"])
    if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        return ["trajectory.csv times do not increase strictly from 0"]
    if abs(times[-1] - t_end) > 1e-9 * t_end:
        return [f"trajectory.csv ends at t = {times[-1]!r}, expected {t_end!r}"]
    return []


def _compare_reference(rows, reference: dict) -> list[str]:
    index = reference["rows"]["index"]
    ref_rows = [[float(x) for x in line.split(",")] for line in reference["rows"]["lines"]]
    scale = [max(abs(r[j]) for r in ref_rows) or 1.0 for j in range(len(CSV_COLUMNS))]
    for i, want in zip(index, ref_rows):
        for j, (g, w) in enumerate(zip(rows[i], want)):
            tol = CSV_RTOL * abs(w) + CSV_ATOL * scale[j]
            if not abs(g - w) <= tol:
                return [f"trajectory.csv row {i} column {CSV_COLUMNS[j]} = {g!r}, "
                        f"reference {w!r} (tolerance {tol:.3g})"]
    return []


def check_outputs(out_dir: Path, exit_code, workload: Workload, reference: dict,
                  compare_trajectory: bool) -> Verdict:
    """Judge one run directory. `reference` supplies the pinned constants;
    its trajectory is compared only if compare_trajectory."""
    v = Verdict()
    if exit_code != 0:
        v.problems.append(f"exit code {exit_code}")
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        v.problems.append(f"manifest.json unreadable: {exc}")
        return v
    if manifest.get("status") != "pass" or manifest.get("exit_code") != 0:
        v.problems.append(f"manifest status {manifest.get('status')!r}, "
                          f"exit_code {manifest.get('exit_code')!r}")
    if manifest.get("admissible") is not True:
        v.problems.append("manifest does not record admissible initial data")
    try:
        kv = read_kv(out_dir / "report.kv")
        header, rows = read_csv(out_dir / "trajectory.csv")
    except (OSError, ValueError) as exc:
        v.problems.append(f"output unreadable: {exc}")
        return v
    v.problems += _check_constants(kv, workload, reference["constants"])
    shape_problems = _check_trajectory(header, rows, workload, expected_samples(workload))
    v.problems += shape_problems
    csv_path = out_dir / "trajectory.csv"
    v.csv_bytes = csv_path.stat().st_size
    svg_path = out_dir / "energy.svg"
    if svg_path.is_file():
        v.svg_bytes = svg_path.stat().st_size
    else:
        v.problems.append("energy.svg missing")
    if compare_trajectory and not shape_problems:
        v.problems += _compare_reference(rows, reference)
        v.bitwise = csv_digest(csv_path) == reference["csv_sha256"]
    return v
