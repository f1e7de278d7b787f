"""A trajectory is float64 columns: the CSV, the plot and the four checks
read them and give the bytes and report fields of the row-object versions
in tests/_oracles.py, and neither record nor a default `kgwell run` builds
per-sample objects."""

import dataclasses
import math
import tracemalloc

import pytest

import kgwell.diagnostics as diag
import kgwell.dynamics
from _oracles import (
    list_line_plot,
    row_check_decay_bound,
    row_check_dissipation,
    row_check_equivalence,
    row_plot_series,
    row_well_monitor,
    row_write_trajectory_csv,
)
from conftest import interval_setup
from kgwell import CouplingSpec, FieldInit, ScenarioConfig, SimState, prepare, record, simulate
from kgwell.cli import _plot, main
from kgwell.dynamics import ROW_BATCH_BYTES, write_trajectory_csv

RUNS = {
    # 49 free nodes, so 67 coupled states a record batch: four batches.  The
    # initial velocities make eps1 psi a sizeable part of E_eps, and with
    # x0 off the clamped end, eps1 = 1/(2P) is no power of two, so E_eps
    # rounds differently if formed in another way.
    "interval-50-stride-1": ScenarioConfig(name="b", elements=50, x0=(-0.1,), dt=1e-3,
                                           t_end=0.25, stride=1,
                                           u0=FieldInit("eigenfunction", 0.1),
                                           v0=FieldInit("bump", 0.12),
                                           u1=FieldInit("bump", 0.1)),
    "square-6": ScenarioConfig(name="s", mesh_kind="rectangle", nx=6, ny=6, x0=(-0.1, -0.1),
                               dt=0.01, t_end=0.2, stride=2,
                               u0=FieldInit("eigenfunction", 0.2),
                               v0=FieldInit("polynomial", 0.1),
                               v1=FieldInit("bump", 0.1)),
    # E = 0 at every sample: every low margin and residual ties, so the
    # reports name the first of equal worst samples
    "zero": ScenarioConfig(name="z", elements=8, x0=(0.0,), dt=0.01, t_end=0.05, stride=1),
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    prep = prepare(RUNS[request.param])
    return request.param, prep, simulate(prep)


def test_interval_run_spans_three_record_batches():
    prep = prepare(RUNS["interval-50-stride-1"])
    per_state = prep.state0.evaluation(prep.operators, prep.spec).nbytes
    samples = prep.n_steps + 1
    assert samples > 3 * math.ceil(ROW_BATCH_BYTES / per_state)


def test_csv_and_plot_equal_the_row_versions_bytewise(run, tmp_path):
    _, prep, traj = run
    wc = prep.constants
    write_trajectory_csv(traj, wc, tmp_path / "columns.csv")
    row_write_trajectory_csv(traj, wc, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    _plot(traj, wc, tmp_path / "columns.svg")
    list_line_plot(tmp_path / "rows.svg", row_plot_series(traj, wc),
                   title="energy decay", xlabel="t", ylabel="log10 E")
    assert (tmp_path / "columns.svg").read_bytes() == (tmp_path / "rows.svg").read_bytes()


def test_checks_equal_the_row_versions(run):
    _, prep, traj = run
    wc, m0 = prep.constants, prep.operators.delta_min
    pairs = [
        (diag.well_monitor(traj, wc), row_well_monitor(traj, wc)),
        (diag.check_equivalence(traj, wc), row_check_equivalence(traj, wc)),
        (diag.check_dissipation(traj, m0), row_check_dissipation(traj, m0)),
        (diag.check_decay_bound(traj, wc), row_check_decay_bound(traj, wc)),
    ]
    for got, want in pairs:
        assert type(got) is type(want)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b), f.name
            assert a == b or (a != a and b != b), f.name  # nan only where the rows give nan


def test_record_holds_about_one_float_row_per_sample():
    _, _, ops = interval_setup(4)
    spec = CouplingSpec(1.0)
    record([SimState.zero(ops.n_free), SimState.zero(ops.n_free, 0.1)], ops, spec)  # warm caches
    n = 10_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = record((SimState.zero(ops.n_free, 1e-3 * k) for k in range(n)), ops, spec)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(traj.samples) == n
    assert held / n <= 200


def test_default_run_builds_no_sample_objects(tmp_path, monkeypatch):
    built = {"EnergySample": 0, "TrajectoryPoint": 0}

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    counting(diag.EnergySample)
    counting(kgwell.dynamics.TrajectoryPoint)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario.name = count\nmesh.kind = interval\nmesh.a = 0.0\nmesh.b = 1.0\n"
                   "mesh.elements = 20\ngeometry.x0 = 0.0\ntime.dt = 1e-3\ntime.t_end = 0.2\ntime.stride = 1\n"
                   "initial.u0 = eigenfunction\ninitial.u0_amplitude = 0.1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "energy.svg").exists()
    assert built == {"EnergySample": 0, "TrajectoryPoint": 0}
    # the wrappers count: indexing the samples view builds one of each
    traj = simulate(prepare(RUNS["zero"]))
    assert traj.samples[-1].energy.t == traj.times()[-1]
    assert built == {"EnergySample": 1, "TrajectoryPoint": 1}
