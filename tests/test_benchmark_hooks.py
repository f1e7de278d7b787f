"""What the benchmark in perfbench/ relies on from kgwell: every traced
name resolves, and a simulated trajectory exposes what its child process
reads.  perfbench's own tests run separately; these catch a refactor that
would break the benchmark."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from kgwell import FieldInit, ScenarioConfig, prepare, simulate
from kgwell.assembly import element_quadrature_tables

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves_to_a_callable():
    points = _tracing().TRACE_POINTS
    assert points
    for module_name, attr, _ in points:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_trajectory_exposes_what_the_benchmark_child_reads():
    cfg = ScenarioConfig(name="bench", elements=8, x0=(0.0,), dt=0.01, t_end=0.05,
                         stride=2, u0=FieldInit("eigenfunction", 0.1))
    traj = simulate(cfg)
    assert traj.meta["n_steps"] == 5
    assert len(traj.samples) == 4
    u = traj.samples[0].state.u
    assert isinstance(u, np.ndarray) and len(u) == 8


def test_element_tables_give_what_the_benchmark_child_counts():
    cfg = ScenarioConfig(name="bench", mesh_kind="rectangle", nx=3, ny=2,
                         x0=(-0.1, -0.1), u0=FieldInit("eigenfunction", 0.1))
    prep = prepare(cfg)
    pts, wdet, shapes = element_quadrature_tables(prep.mesh, prep.spec.quad_degree)
    nq = len(shapes)
    assert wdet.size == prep.mesh.n_elements * nq
    assert pts.shape == (prep.mesh.n_elements, nq, 2)


def _named_metrics(node):
    """(key, value) of every object member whose key reads workload/metric."""
    if isinstance(node, dict):
        for key, value in node.items():
            if "/" in key:
                yield key, value
            yield from _named_metrics(value)
    elif isinstance(node, list):
        for item in node:
            yield from _named_metrics(item)


def test_bench_files_name_only_declared_workloads_and_end_to_end_metrics():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        named = list(_named_metrics(json.loads(path.read_text())))
        assert named, path.name
        for key, value in named:
            workload, metric = key.split("/")
            assert workload in workloads, f"{path.name}: {key}"
            assert metric in units, f"{path.name}: {key}"
            assert value["unit"] == units[metric], f"{path.name}: {key}"


class _CountingLU:
    """An LU factor that counts its solves: one per fixed-point pass."""

    def __init__(self, lu, counter):
        self._lu, self._counter = lu, counter

    def solve(self, rhs):
        self._counter.append(1)
        return self._lu.solve(rhs)


def test_coupled_step_makes_one_coupling_pass_more_than_its_fixed_point_passes(monkeypatch):
    # perfbench reads fixed_point_iters_per_step as (coupling_vectors calls
    # inside step - steps) / steps, and the energy rows must need no pass
    import kgwell.diagnostics
    import kgwell.dynamics

    in_step, passes = [], []
    calls = {"vectors": 0, "vectors_in_step": 0, "energy": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "vectors" and in_step:
                calls["vectors_in_step"] += 1
            return fn(*args, **kwargs)
        return wrapper

    step, factors = kgwell.dynamics.step, kgwell.dynamics._step_factorizations

    def traced_step(*args, **kwargs):
        in_step.append(1)
        try:
            return step(*args, **kwargs)
        finally:
            in_step.pop()

    def counting_factors(operators, dt):
        lu, weights = factors(operators, dt)
        return _CountingLU(lu, passes), weights

    monkeypatch.setattr(kgwell.dynamics, "step", traced_step)
    monkeypatch.setattr(kgwell.dynamics, "_step_factorizations", counting_factors)
    monkeypatch.setattr(kgwell.dynamics, "coupling_vectors",
                        counted("vectors", kgwell.dynamics.coupling_vectors))
    monkeypatch.setattr(kgwell.diagnostics, "coupling_energy",
                        counted("energy", kgwell.diagnostics.coupling_energy))
    cfg = ScenarioConfig(name="count", mesh_kind="rectangle", nx=4, ny=4, x0=(-0.1, -0.1),
                         dt=0.01, t_end=0.06, stride=2, u0=FieldInit("eigenfunction", 0.4),
                         v0=FieldInit("eigenfunction", 0.4))
    traj = simulate(cfg)
    steps = traj.meta["n_steps"]
    assert steps == 6 and len(passes) > steps  # some steps take a second pass
    assert calls["vectors_in_step"] == len(passes) + steps
    assert calls["vectors"] == calls["vectors_in_step"] + 1  # the initial state
    assert calls["energy"] == 0
