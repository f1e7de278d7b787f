"""Benchmark workloads and the seeded config generator.

Each workload is a fixed `kgwell run` configuration; the seed only draws the
two initial displacement amplitudes (relative to the well threshold) from a
per-workload range. The ranges sit inside the admissible set (relative
amplitude below about 0.49 for rho = 1) and are narrow enough that the
number of midpoint fixed-point iterations per step does not change with the
seed, so seeds vary the inputs without changing how much work a run does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

#: The seed whose trajectory is compared against the recorded reference.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    #: Range of the seeded relative amplitudes of u0 and v0.
    amplitude: tuple[float, float]
    #: Pinned constants checked exactly (analytic values), beyond the
    #: recorded ones checked to a relative tolerance.
    exact: dict = field(default_factory=dict)


_COMMON = {
    "coupling.rho": "1.0",
    "coupling.enabled": "true",
    "delta.kind": "mdotnu",
    "initial.u0": "eigenfunction",
    "initial.v0": "eigenfunction",
    "initial.u1": "zero",
    "initial.v1": "zero",
    "constants.safety": "1.1",
    "solver.tol": "1e-10",
    "solver.max_iter": "50",
}

_SQUARE = {
    "mesh.kind": "rectangle",
    "mesh.lo": "0.0 0.0",
    "mesh.hi": "1.0 1.0",
    "geometry.x0": "-0.1 -0.1",
    "time.dt": "0.01",
}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="interval-fine",
            why=("1D, 50 elements, x0=0, dt=1e-3, stride=1, 10k steps: per-call Python "
                 "overhead in step and coupling_vectors, a sample every step, large CSV and SVG"),
            params={"mesh.kind": "interval", "mesh.a": "0.0", "mesh.b": "1.0",
                    "mesh.elements": "50", "geometry.x0": "0.0", "time.dt": "1e-3",
                    "time.t_end": "10.0", "time.stride": "1"},
            # one fixed-point iteration per step throughout this range
            amplitude=(0.08, 0.14),
            exact={"R": 1.0, "m0": 1.0, "P": 8.0, "D": 2.0, "tau": 1.0 / 16.0},
        ),
        Workload(
            name="square-64",
            why=("2D 64x64 (4096 free dofs), x0=(-0.1,-0.1), dt=0.01, stride=10, 200 steps: "
                 "bulk quadrature gather/scatter and sparse LU solves dominate each step"),
            params={**_SQUARE, "mesh.nx": "64", "mesh.ny": "64",
                    "time.t_end": "2.0", "time.stride": "10"},
            # two fixed-point iterations per step throughout this range
            # (below about 0.3 later steps need only one)
            amplitude=(0.33, 0.45),
        ),
        Workload(
            name="square-128-setup",
            why=("2D 128x128 (16384 free dofs), same geometry, stride=2, 10 steps: setup "
                 "dominates (quadratic mesh build, six eigenpair solves, first LU factorizations)"),
            params={**_SQUARE, "mesh.nx": "128", "mesh.ny": "128",
                    "time.t_end": "0.1", "time.stride": "2"},
            amplitude=(0.33, 0.45),
        ),
    )
}


def amplitudes(workload: Workload, seed: int) -> tuple[float, float]:
    """The (u0, v0) relative amplitudes drawn for `seed`, rounded to six
    decimals so the config text carries them exactly."""
    rng = random.Random(f"{workload.name}:{seed}")
    lo, hi = workload.amplitude
    return round(rng.uniform(lo, hi), 6), round(rng.uniform(lo, hi), 6)


def config_text(workload: Workload, seed: int) -> str:
    a_u, a_v = amplitudes(workload, seed)
    cfg = {
        "scenario.name": f"{workload.name}-seed{seed}",
        **workload.params,
        **_COMMON,
        "initial.u0_amplitude": repr(a_u),
        "initial.v0_amplitude": repr(a_v),
    }
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def write_config(workload: Workload, seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(config_text(workload, seed))
    return path


def expected_samples(workload: Workload) -> int:
    """Rows the trajectory CSV must have: t = 0, every stride-th step and
    the last step (the same rule as kgwell.dynamics.simulate)."""
    dt = float(workload.params["time.dt"])
    steps = max(1, round(float(workload.params["time.t_end"]) / dt))
    stride = int(workload.params["time.stride"])
    return 1 + sum(1 for k in range(1, steps + 1) if k % stride == 0 or k == steps)
