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
    traj = simulate(prepare(cfg))
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


def test_coupled_step_evaluates_every_pass_its_bound_does_not_stop(monkeypatch):
    # each step solves once per fixed-point pass and evaluates the coupling
    # after every solve but one the residual bound stops on, then once for
    # the state it returns, so coupling_vectors calls inside step are
    # solves + steps - certified stops (perfbench reads
    # fixed_point_iters_per_step as (calls inside step - steps) / steps);
    # the energy rows need no pass
    import kgwell.diagnostics
    import kgwell.dynamics

    events = []  # per step: "solve", "pass" (fixed point), "state" (returned)
    calls = {"vectors": 0, "energy": 0}

    class LoggingLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            events[-1].append("solve")
            return self._lu.solve(rhs)

    step, factors = kgwell.dynamics.step, kgwell.dynamics._step_factorizations
    vectors, energy = kgwell.dynamics.coupling_vectors, kgwell.diagnostics.coupling_energy
    in_step = []

    def traced_step(*args, **kwargs):
        events.append([])
        in_step.append(1)
        try:
            return step(*args, **kwargs)
        finally:
            in_step.pop()

    def logging_factors(operators, dt):
        lu, weights = factors(operators, dt)
        return LoggingLU(lu), weights

    def counted_vectors(*args, **kwargs):
        calls["vectors"] += 1
        if in_step:
            events[-1].append("state" if kwargs.get("energy") else "pass")
        return vectors(*args, **kwargs)

    def counted_energy(*args, **kwargs):
        calls["energy"] += 1
        return energy(*args, **kwargs)

    monkeypatch.setattr(kgwell.dynamics, "step", traced_step)
    monkeypatch.setattr(kgwell.dynamics, "_step_factorizations", logging_factors)
    monkeypatch.setattr(kgwell.dynamics, "coupling_vectors", counted_vectors)
    monkeypatch.setattr(kgwell.diagnostics, "coupling_energy", counted_energy)
    # dt = 0.05 at this amplitude: the bound stops the second pass of the
    # first two steps; the later steps stop on their evaluated second pass
    cfg = ScenarioConfig(name="count", mesh_kind="rectangle", nx=4, ny=4, x0=(-0.1, -0.1),
                         dt=0.05, t_end=0.3, stride=2, u0=FieldInit("eigenfunction", 0.4),
                         v0=FieldInit("eigenfunction", 0.4))
    traj = simulate(prepare(cfg))
    steps = traj.meta["n_steps"]
    assert steps == 6 and len(events) == steps
    certified = evaluated = 0
    for log in events:
        # evaluated passes, maybe a last one stopped by its bound, the state
        *passes, returned = log
        assert returned == "state"
        if passes[-1] == "solve":
            certified += 1
            passes.pop()
        else:
            evaluated += 1
        assert passes == ["solve", "pass"] * (len(passes) // 2)
    assert certified > 0 and evaluated > 0
    solves = sum(log.count("solve") for log in events)
    in_step_calls = sum(log.count("pass") + log.count("state") for log in events)
    assert solves > steps  # some steps take a second pass
    assert in_step_calls == solves + steps - certified
    assert calls["vectors"] == in_step_calls + 1  # the initial state
    assert calls["energy"] == 0
