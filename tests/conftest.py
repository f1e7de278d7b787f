import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from kgwell import (
    FieldInit,
    ScenarioConfig,
    Trajectory,
    assemble_operators,
    build_interval_mesh,
    build_rectangle_mesh,
    classify_boundary,
    prepare,
    simulate,
)
from kgwell.dynamics import Prepared


def interval_setup(elements=4, a=0.0, b=1.0, x0=0.0, delta=None):
    """Mesh, partition, operators for an interval with the radial damping."""
    mesh = build_interval_mesh(a, b, elements)
    part = classify_boundary(mesh, x0)
    ops = assemble_operators(part, delta=delta)
    return mesh, part, ops


def square_setup(n=4, x0=(-0.1, -0.1)):
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), n, n)
    part = classify_boundary(mesh, x0)
    ops = assemble_operators(part)
    return mesh, part, ops


def unconstrained_interval(elements=4):
    """Interval with the star point inside: every facet damped, no clamped
    nodes (test fixture for partition-of-unity style identities)."""
    mesh = build_interval_mesh(0.0, 1.0, elements)
    part = classify_boundary(mesh, 0.4)
    ops = assemble_operators(part)
    return mesh, part, ops


class CountingLU:
    """An LU factor that appends to counter on each solve."""

    def __init__(self, lu, counter):
        self._lu, self._counter = lu, counter

    def solve(self, rhs):
        self._counter.append(1)
        return self._lu.solve(rhs)


ACCEPT_1D = ScenarioConfig(
    name="accept-1d",
    mesh_kind="interval",
    interval=(0.0, 1.0),
    elements=50,
    x0=(0.0,),
    rho=1.0,
    dt=1e-3,
    t_end=50.0,
    stride=10,
    u0=FieldInit("eigenfunction", 0.1),
    v0=FieldInit("eigenfunction", 0.1),
    u1=FieldInit("zero"),
    v1=FieldInit("zero"),
)

ACCEPT_2D = ScenarioConfig(
    name="accept-2d",
    mesh_kind="rectangle",
    rect_lo=(0.0, 0.0),
    rect_hi=(1.0, 1.0),
    nx=8,
    ny=8,
    x0=(-0.1, -0.1),
    rho=1.0,
    dt=0.01,
    t_end=5.0,
    stride=2,
    u0=FieldInit("eigenfunction", 0.1),
    v0=FieldInit("eigenfunction", 0.1),
)


class Run(NamedTuple):
    """A simulated scenario: its setup, its trajectory and the wall time of
    both."""

    prep: Prepared
    traj: Trajectory
    wall_time: float


def run_scenario(cfg):
    t0 = time.perf_counter()
    prep = prepare(cfg)
    traj = simulate(prep)
    return Run(prep, traj, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def accept_1d_run():
    return run_scenario(ACCEPT_1D)


@pytest.fixture(scope="session")
def accept_1d_residual_pair():
    """Same scenario over a short horizon at dt and dt/2, for the
    dissipation-identity refinement check."""
    import dataclasses
    short = dataclasses.replace(ACCEPT_1D, t_end=5.0)
    return (run_scenario(short), run_scenario(dataclasses.replace(short, dt=5e-4)))


@pytest.fixture(scope="session")
def accept_2d_run():
    return run_scenario(ACCEPT_2D)


@pytest.fixture(scope="module")
def short_admissible_run():
    """Small, fast admissible 1D run shared by diagnostics tests."""
    cfg = ScenarioConfig(
        name="short", elements=40, x0=(0.0,), dt=2e-3, t_end=3.0, stride=5,
        u0=FieldInit("eigenfunction", 0.1), v0=FieldInit("eigenfunction", 0.1),
    )
    return run_scenario(cfg)
