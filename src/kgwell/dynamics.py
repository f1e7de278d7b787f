"""Time integration of the semi-discrete system

    M u'' + K u + B u' + F_u(u, v) = 0
    M v'' + K v + B v' + F_v(u, v) = 0

by the implicit midpoint rule on the first-order form.  The scheme is
symmetric and A-stable and conserves quadratic invariants of the linear
problem exactly, so every energy loss along a trajectory is attributable
to the boundary damping B (plus an O(dt^3) per-step defect from the
nonlinear coupling).

What the time loop holds: the operators' matrices, the LU factors of the
step matrix A = M + (dt/2) B + (dt^2/4) K and of M, the coupling's
quadrature table, the first eigenpair, the GAMMA1 table, and per sample an
energy row (the first and the last sample also keep their state).  Setup's
K factor and embedding tables are gone by then (see constants), and the
coupling integrals run in cell blocks (see assembly), so their temporaries
are block-sized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from . import diagnostics
from .assembly import (CouplingSpec, DiscreteOperators, _element_geometry,
                       assemble_operators, coupling_vectors, gamma1_table)
from .constants import WellConstants, admissibility, compute_well_constants, first_eigenpair
from .geometry import build_interval_mesh, build_rectangle_mesh, classify_boundary


class NonlinearSolveFailure(Exception):
    """The midpoint fixed-point solve did not converge; dt is too large."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class SimState:
    """Coefficient vectors over free nodes at one time instant."""

    t: float
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        n = len(self.u)
        if not (len(self.v) == len(self.du) == len(self.dv) == n):
            raise ValueError("state vectors must have equal lengths")
        for name in ("u", "v", "du", "dv"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite entries in {name}")

    @staticmethod
    def zero(n: int, t: float = 0.0) -> "SimState":
        z = np.zeros(n)
        return SimState(t, z, z.copy(), z.copy(), z.copy())


@dataclass
class StepOptions:
    tol: float = 1e-10
    max_iter: int = 50


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sample: its energy row, the damped-boundary flux
    diagnostics.pair_flux of the sample pair that ends here (0.0 at t = 0),
    and its state, which only the first and the last sample keep."""

    energy: "diagnostics.EnergySample"
    flux: float
    state: SimState | None = None


@dataclass
class Trajectory:
    """Sampled run: per sample an energy row and the Gamma1 flux of the pair
    ending there, the states of the first and the last sample, and metadata.
    record() builds one from any sequence of states; simulate() sets meta to
    dt, n_steps, t_final (the last sample's time), eps1 = 1/(2P), constants,
    operators and admissible (whether the initial data were)."""

    samples: list[TrajectoryPoint]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = self.times()
        if len(times) == 0:
            raise ValueError("trajectory must contain at least one sample")
        if times[0] != 0.0:
            raise ValueError("first sample must be at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def times(self) -> np.ndarray:
        return np.array([p.energy.t for p in self.samples])

    def energies(self) -> np.ndarray:
        return np.array([p.energy.E for p in self.samples])


def record(states, operators: DiscreteOperators, spec: CouplingSpec | None,
           eps: float, threshold: float, meta: dict | None = None) -> Trajectory:
    """Trajectory of an iterable of states, read one state at a time: each
    gets its diagnostics.full_sample row (with eps and threshold) and the
    pair flux from the state before it, and only the first and the last
    state are kept."""
    points = []
    prev = None
    for state in states:
        energy = diagnostics.full_sample(state, operators, spec, eps=eps, threshold=threshold)
        if prev is None:
            points.append(TrajectoryPoint(energy, 0.0, state))
        else:
            points.append(TrajectoryPoint(energy, diagnostics.pair_flux(prev, state, operators)))
        prev = state
    if len(points) > 1:
        points[-1] = replace(points[-1], state=prev)
    return Trajectory(points, meta or {})


def _step_factorizations(operators: DiscreteOperators, dt: float):
    def build():
        A = (operators.M + (dt / 2.0) * operators.B
             + (dt * dt / 4.0) * operators.K).tocsc()
        return spla.splu(A)
    A_lu = operators.cache(("step_A", dt), build)
    M_lu = operators.cache(("lu_M",), lambda: spla.splu(operators.M.tocsc()))
    return A_lu, M_lu


def step(state: SimState, dt: float, operators: DiscreteOperators,
         spec: CouplingSpec | None, opts: StepOptions | None = None) -> SimState:
    """One implicit-midpoint step; spec=None switches the coupling off and
    makes the step one linear solve.

    u and v share M, K and B, so they advance as the two columns of one
    (n, 2) block.  The midpoint coupling is resolved by fixed-point
    iteration; each pass makes one two-column linear solve, one coupling
    evaluation and one M^-1 residual solve.  Converged when the residual in
    the M^-1 inner product (an M-norm of the velocity defect) is below opts.tol.
    """
    if opts is None:
        opts = StepOptions()
    if dt <= 0:
        raise ValueError("dt must be positive")
    A_lu, M_lu = _step_factorizations(operators, dt)
    x0 = np.column_stack([state.u, state.v])
    p0 = np.column_stack([state.du, state.dv])
    rhs = operators.M @ p0 - (dt / 2.0) * (operators.K @ x0)

    f = None if spec is None else np.column_stack(coupling_vectors(x0.T, spec, operators))

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(opts.max_iter):
            p_mid = A_lu.solve(rhs if f is None else rhs - (dt / 2.0) * f)
            if f is None:
                break
            x_mid = x0 + (dt / 2.0) * p_mid
            f_new = np.column_stack(coupling_vectors(x_mid.T, spec, operators))
            r = (dt / 2.0) * (f_new - f)
            f = f_new
            res_sq = float(np.sum(r * M_lu.solve(r)))
            if not np.isfinite(res_sq):
                raise NonlinearSolveFailure(
                    f"midpoint solve diverged at t = {state.t:.6g} (dt = {dt:g} too large)",
                    time=state.t,
                )
            if math.sqrt(res_sq) < opts.tol:
                break
        else:
            raise NonlinearSolveFailure(
                f"midpoint solve needed more than {opts.max_iter} iterations at "
                f"t = {state.t:.6g} (dt = {dt:g} too large)",
                time=state.t,
            )

    # separate contiguous copies: with strided views of the (n, 2) block the
    # products downstream round differently, and trajectory.csv, report.kv
    # and manifest.json of the 1D and 2D demo configs change in their last bits
    x1 = x0 + dt * p_mid
    p1 = 2.0 * p_mid - p0
    return SimState(state.t + dt, x1[:, 0].copy(), x1[:, 1].copy(),
                    p1[:, 0].copy(), p1[:, 1].copy())


# ---------------------------------------------------------------------------
# scenario configuration and the full simulation pipeline
# ---------------------------------------------------------------------------

FIELD_PRESETS = ("zero", "eigenfunction", "bump", "polynomial", "file")


@dataclass
class FieldInit:
    """Closed-form initial field: preset name, amplitude, and whether the
    amplitude is relative to the active well threshold or absolute."""

    preset: str = "zero"
    amplitude: float = 0.1
    relative: bool = True
    path: str | None = None

    def __post_init__(self):
        if self.preset not in FIELD_PRESETS:
            raise ValueError(f"unknown initial preset '{self.preset}'")
        if self.preset == "file" and not self.path:
            raise ValueError("preset 'file' needs a path")


@dataclass
class ScenarioConfig:
    """Declarative description of one simulation run."""

    name: str = "scenario"
    mesh_kind: str = "interval"
    interval: tuple[float, float] = (0.0, 1.0)
    elements: int = 200
    rect_lo: tuple[float, float] = (0.0, 0.0)
    rect_hi: tuple[float, float] = (1.0, 1.0)
    nx: int = 8
    ny: int = 8
    x0: tuple[float, ...] = (0.0,)
    rho: float = 1.0
    quad_degree: int | None = None
    delta_kind: str = "mdotnu"  # mdotnu | constant
    delta_value: float = 1.0
    delta_floor: float = 0.0
    coupling_enabled: bool = True
    u0: FieldInit = field(default_factory=FieldInit)
    v0: FieldInit = field(default_factory=FieldInit)
    u1: FieldInit = field(default_factory=lambda: FieldInit("zero"))
    v1: FieldInit = field(default_factory=lambda: FieldInit("zero"))
    dt: float | None = None
    t_end: float = 1.0
    stride: int = 10
    solver_tol: float = 1e-10
    solver_max_iter: int = 50
    safety: float = 1.1

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt is not None and self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        if self.mesh_kind not in ("interval", "rectangle"):
            raise ValueError(f"unknown mesh kind '{self.mesh_kind}'")
        dim = 1 if self.mesh_kind == "interval" else 2
        if len(self.x0) != dim:
            raise ValueError(f"x0 needs {dim} coordinate(s) for a {self.mesh_kind} mesh, "
                             f"got {len(self.x0)}")
        if dim == 2 and (len(self.rect_lo) != 2 or len(self.rect_hi) != 2):
            raise ValueError("rect_lo and rect_hi must each hold two numbers")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.delta_kind not in ("mdotnu", "constant"):
            raise ValueError(f"unknown delta kind '{self.delta_kind}'")
        if self.delta_kind == "constant" and self.delta_value <= 0:
            raise ValueError("constant delta must be positive")


@dataclass
class Prepared:
    """Everything simulate() needs, exposed for tests and notebooks: the
    config, the mesh, the operators (which hold the boundary partition), the
    coupling spec, the constants (whose threshold() is the active well), the
    initial state, its admissibility report, the time step, and the
    boundary compatibility residuals of (u0, u1) and (v0, v1)."""

    config: ScenarioConfig
    mesh: object
    operators: DiscreteOperators
    spec: CouplingSpec
    constants: WellConstants
    state0: SimState
    admissibility: object
    dt: float
    compat_residual_u: float
    compat_residual_v: float


def _build_field(init: FieldInit, operators: DiscreteOperators, threshold: float,
                 velocity: bool) -> np.ndarray:
    n = operators.n_free
    if init.preset == "zero":
        return np.zeros(n)
    mesh = operators.mesh
    if init.preset == "eigenfunction":
        _, vec = first_eigenpair(operators)
    elif init.preset == "bump":
        center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
        width = np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)) / 6.0
        r2 = np.sum((mesh.vertices - center) ** 2, axis=1)
        vec = np.exp(-r2 / (2.0 * width ** 2))[operators.free]
    elif init.preset == "polynomial":
        lo = mesh.vertices.min(axis=0)
        vec = np.prod(mesh.vertices - lo, axis=1)[operators.free]
    else:  # file
        full = np.loadtxt(init.path, dtype=float).ravel()
        if len(full) != operators.n_nodes:
            raise ValueError(
                f"coefficient file has {len(full)} values, mesh has {operators.n_nodes} nodes"
            )
        return full[operators.free]
    quad = operators.M if velocity else operators.K
    nrm = math.sqrt(max(float(vec @ (quad @ vec)), 0.0))
    if nrm == 0.0:
        raise ValueError(f"initial preset '{init.preset}' vanished after constraints")
    amp = init.amplitude * threshold if init.relative else init.amplitude
    return (amp / nrm) * vec


def _compat_residual(operators: DiscreteOperators, disp: np.ndarray,
                     vel: np.ndarray) -> float:
    """L2(Gamma1) residual of the boundary compatibility
    d(disp)/dnu + delta * vel = 0, reported as a diagnostic only."""
    mesh = operators.mesh
    g1 = operators.partition.gamma1_facets
    if len(g1) == 0:
        return 0.0
    owners = mesh.elements[mesh.facet_owner()[g1]]
    grads, _ = _element_geometry(mesh.vertices[owners])
    grad_u = np.einsum("fk,fkd->fd", operators.embed(disp)[owners], grads)
    dn = np.einsum("fd,fd->f", grad_u, mesh.facet_normals[g1])
    q = gamma1_table(operators)
    resid = dn[:, None] + operators.delta_gamma1 * q.values(vel)
    return math.sqrt(float(np.sum(resid ** 2 * q.w)))


def prepare(config: ScenarioConfig) -> Prepared:
    """Build mesh, operators, constants and initial data for a scenario."""
    if config.mesh_kind == "interval":
        a, b = config.interval
        mesh = build_interval_mesh(a, b, config.elements)
    else:
        mesh = build_rectangle_mesh(config.rect_lo, config.rect_hi, config.nx, config.ny)
    partition = classify_boundary(mesh, config.x0)
    delta = None if config.delta_kind == "mdotnu" else config.delta_value
    operators = assemble_operators(mesh, partition, delta=delta,
                                   delta_floor=config.delta_floor)
    spec = CouplingSpec(rho=config.rho, quad_degree=config.quad_degree)
    constants = compute_well_constants(operators, config.rho, safety=config.safety)
    threshold, _ = constants.threshold()
    u0 = _build_field(config.u0, operators, threshold, velocity=False)
    v0 = _build_field(config.v0, operators, threshold, velocity=False)
    u1 = _build_field(config.u1, operators, threshold, velocity=True)
    v1 = _build_field(config.v1, operators, threshold, velocity=True)
    state0 = SimState(0.0, u0, v0, u1, v1)
    report = admissibility(u0, v0, u1, v1, constants, operators)
    dt = config.dt if config.dt is not None else min(mesh.min_diameter() / 2.0, 0.01)
    return Prepared(
        config=config, mesh=mesh, operators=operators, spec=spec,
        constants=constants, state0=state0, admissibility=report, dt=dt,
        compat_residual_u=_compat_residual(operators, u0, u1),
        compat_residual_v=_compat_residual(operators, v0, v1),
    )


def simulate(config: ScenarioConfig | Prepared, check_spacing: bool = False) -> Trajectory:
    """Run a scenario and sample it every `stride` steps (plus t = 0 and the
    final instant).  Proceeds even for inadmissible data; meta["admissible"]
    says whether they were.  With check_spacing, a sample pair too far apart
    for the dissipation check raises ValueError
    (diagnostics.require_fine_sampling) as soon as it is sampled, before the
    rest of the horizon is simulated."""
    prep = config if isinstance(config, Prepared) else prepare(config)
    cfg = prep.config
    dt = prep.dt
    n_steps = max(1, round(cfg.t_end / dt))
    opts = StepOptions(tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    eps1 = 1.0 / (2.0 * prep.constants.P)
    spec = prep.spec if cfg.coupling_enabled else None

    def sampled_states():
        state = sampled = prep.state0
        yield state
        for k in range(1, n_steps + 1):
            state = step(state, dt, prep.operators, spec, opts)
            if k % cfg.stride == 0 or k == n_steps:
                if check_spacing:
                    diagnostics.require_fine_sampling(state.t - sampled.t)
                yield state
                sampled = state

    threshold, _ = prep.constants.threshold()
    trajectory = record(sampled_states(), prep.operators, spec, eps1, threshold)
    trajectory.meta = {
        "dt": dt,
        "n_steps": n_steps,
        "t_final": trajectory.samples[-1].energy.t,
        "eps1": eps1,
        "constants": prep.constants,
        "operators": prep.operators,
        "admissible": prep.admissibility.admissible,
    }
    return trajectory


CSV_COLUMNS = (
    "t", "E", "E_eps", "norm_u_V", "norm_v_V", "norm_du_L2", "norm_dv_L2",
    "coupling_energy", "gamma1_flux_u", "gamma1_flux_v", "well_margin",
)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Fixed-column CSV at full double precision (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for p in trajectory.samples:
            e = p.energy
            row = (
                e.t, e.E, e.E_eps, e.norm_u_V, e.norm_v_V, e.norm_du_L2,
                e.norm_dv_L2, e.coupling, e.flux_u, e.flux_v,
                min(e.well_margin_u, e.well_margin_v),
            )
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
