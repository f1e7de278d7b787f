"""Tests of the benchmark itself: the output checker counts corrupted runs
as failed, traced work counts repeat exactly, and BENCHMARK.json lists what
the code reports.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import COUNT_METRICS
from workloads import DEFAULT_SEED, WORKLOADS, amplitudes, config_text

INTERVAL = WORKLOADS["interval-fine"]
BENCHMARK = Path(run.__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def good_run():
    """One real run of the reference seed, kept read-only for the tests."""
    child = run.run_child(INTERVAL, DEFAULT_SEED, "plain", "test-good")
    assert child.exit_code == 0
    yield child
    shutil.rmtree(child.run_dir, ignore_errors=True)


def _edit(path, fn):
    path.write_text(fn(path.read_text()))


def _edit_energy(row, fn):
    """Edit E in data row `row` of trajectory.csv."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        cells = lines[row + 1].split(",")
        cells[1] = fn(float(cells[1]))
        lines[row + 1] = ",".join(cells)
        return "".join(lines)
    return edit


def _manifest_status(text):
    manifest = json.loads(text)
    manifest["status"] = "check_failure"
    return json.dumps(manifest)


CORRUPTIONS = {
    "exit-code": (None, None),
    "manifest-status": ("manifest.json", _manifest_status),
    "pinned-constant": ("report.kv", lambda t: t.replace("constants.P=8\n", "constants.P=8.0000001\n")),
    "trajectory-value": ("trajectory.csv", _edit_energy(100, lambda e: repr(e * (1.0 + 1e-6)))),
    "trajectory-truncated": ("trajectory.csv", lambda t: t[: t.rstrip("\n").rfind("\n") + 1]),
    "trajectory-nan": ("trajectory.csv", _edit_energy(7001, lambda e: "nan")),
}


def _attempt_on_copy(good_run, tmp_path, monkeypatch, exit_code=0, edit=None):
    run_dir = tmp_path / "run"
    shutil.copytree(good_run.run_dir, run_dir)
    if edit is not None:
        name, fn = edit
        _edit(run_dir / "out" / name, fn)
    monkeypatch.setattr(run, "run_child",
                        lambda *a: run.Child(run_dir, exit_code, good_run.result))
    return run.attempt(INTERVAL, DEFAULT_SEED, "plain", "copy",
                       run.load_reference(INTERVAL))


def test_reference_run_passes_bitwise(good_run, tmp_path, monkeypatch):
    a = _attempt_on_copy(good_run, tmp_path, monkeypatch)
    assert not a.failed, a.verdict.problems
    assert a.verdict.bitwise is True


def test_last_digit_drift_passes_but_is_not_bitwise(good_run, tmp_path, monkeypatch):
    next_float = _edit_energy(100, lambda e: repr(e + abs(e) * 2.0 ** -52))
    a = _attempt_on_copy(good_run, tmp_path, monkeypatch, edit=("trajectory.csv", next_float))
    assert not a.failed, a.verdict.problems
    assert a.verdict.bitwise is False


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_is_counted_as_failed(case, good_run, tmp_path, monkeypatch):
    name, fn = CORRUPTIONS[case]
    exit_code = 1 if name is None else 0
    bad = _attempt_on_copy(good_run, tmp_path, monkeypatch, exit_code,
                           None if name is None else (name, fn))
    assert bad.failed
    good = _attempt_on_copy(good_run, tmp_path / "good", monkeypatch)
    m = run.Measurement(INTERVAL, DEFAULT_SEED, False, [good, bad], {}, {})
    assert (m.attempted, m.failed) == (2, 1)


def test_traced_run_repeats_counts_and_reports_every_listed_metric():
    workload = WORKLOADS["square-64"]
    m = run.measure(workload, 7, seconds=0, trace=True)
    assert m.failed == 0
    traced = [a for a in m.attempts if a.mode == "trace"]
    counts = [{k: a.layers[k][0] for k in COUNT_METRICS} for a in traced]
    assert len(counts) >= 2 and all(c == counts[0] for c in counts)
    assert counts[0]["constants.eigenpair_calls"] >= 1
    assert counts[0]["assembly.coupling_vectors_calls"] > counts[0]["dynamics.step_calls"]
    listed = json.loads(BENCHMARK.read_text())["per_layer"]
    assert {k: v["unit"] for k, v in m.metrics.items()} == {p["name"]: p["unit"] for p in listed}


def test_benchmark_json_matches_the_code():
    doc = json.loads(BENCHMARK.read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(e["name"], e["unit"]) for e in doc["end_to_end"]] == list(run.END_TO_END)


def test_seed_only_moves_amplitudes_within_range():
    for w in WORKLOADS.values():
        assert config_text(w, 5) == config_text(w, 5)
        drawn = [a for seed in range(50) for a in amplitudes(w, seed)]
        assert all(w.amplitude[0] <= a <= w.amplitude[1] for a in drawn)
        assert len(set(drawn)) > 1
        lines_a = config_text(w, 1).splitlines()
        lines_b = config_text(w, 2).splitlines()
        changed = {a.split(" = ")[0] for a, b in zip(lines_a, lines_b) if a != b}
        assert changed <= {"scenario.name", "initial.u0_amplitude", "initial.v0_amplitude"}


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(1000) == 99


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "square-64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
