"""Time integration of the semi-discrete system

    M u'' + K u + B u' + F_u(u, v) = 0
    M v'' + K v + B v' + F_v(u, v) = 0

by the implicit midpoint rule on the first-order form.  The scheme is
symmetric and A-stable and conserves quadratic invariants of the linear
problem exactly, so every energy loss along a trajectory is attributable
to the boundary damping B (plus an O(dt^3) per-step defect from the
nonlinear coupling).

What the time loop holds: the operators' matrices, the LU factors of the
step matrix A = M + (dt/2) B + (dt^2/4) K, the fixed-point residual weights
(d+2)/l from the row sums l of M, the coupling's quadrature table, the first
eigenpair, the Evaluation of the newest state (its blocks [u v] and
[u' v'], K and M times them, and its coupling vectors and energy from one
quadrature pass, shared by the state's energy row and the next step, which
drops it), and per sample an energy row of the state alone (the first and
the last sample also keep their state).  Setup's K factor, embedding tables
and GAMMA1 table are gone by then (see constants), and the coupling
integrals run in cell blocks (see assembly), so their temporaries are
block-sized.  The columns that also need the run's constants, E + eps1 psi
and the well margin, are formed by write_trajectory_csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from . import diagnostics
from .assembly import CouplingSpec, DiscreteOperators, assemble_operators, coupling_vectors
from .constants import WellConstants, admissibility, compute_well_constants, first_eigenpair
from .geometry import build_interval_mesh, build_rectangle_mesh, classify_boundary


class NonlinearSolveFailure(Exception):
    """The midpoint fixed-point solve did not converge; dt is too large."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True, eq=False)
class Evaluation:
    """What a state's sample and the next step both read, for one set of
    operators and one coupling spec: the blocks X = [u v] and P = [u' v'],
    the products K X and M P, and, with a spec, F = [F_u F_v] and the
    coupling energy from one coupling_vectors pass (None and 0.0 without)."""

    operators: DiscreteOperators
    spec_key: tuple | None
    X: np.ndarray
    P: np.ndarray
    KX: np.ndarray
    MP: np.ndarray
    F: np.ndarray | None
    energy: float

    @staticmethod
    def of(X: np.ndarray, P: np.ndarray, operators: DiscreteOperators,
           spec: CouplingSpec | None) -> "Evaluation":
        F, energy = None, 0.0
        if spec is not None:
            fu, fv, energy = coupling_vectors(X.T, spec, operators, energy=True)
            F = np.column_stack([fu, fv])
        return Evaluation(operators, _spec_key(spec), X, P, operators.K @ X,
                          operators.M @ P, F, energy)


def _spec_key(spec: CouplingSpec | None):
    # by value, so a spec changed in place after the evaluation is not matched
    return None if spec is None else (spec.rho, spec.quad_degree)


@dataclass(frozen=True)
class SimState:
    """Coefficient vectors over free nodes at one time instant.

    A state keeps the Evaluation of its last evaluation() (step leaves the
    one of the state it returns) until it is stepped, in a slot that is
    neither an __init__ argument nor compared, so dataclasses.replace starts
    without one."""

    t: float
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    _evaluation: Evaluation | None = field(default=None, init=False, repr=False,
                                           compare=False)

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

    def evaluation(self, operators: DiscreteOperators,
                   spec: CouplingSpec | None) -> Evaluation:
        """The state's Evaluation under operators and spec: the kept one if
        it was made with these operators and an equal spec, else a new one,
        which the state keeps."""
        ev = self._evaluation
        if ev is None or ev.operators is not operators or ev.spec_key != _spec_key(spec):
            ev = Evaluation.of(np.column_stack([self.u, self.v]),
                               np.column_stack([self.du, self.dv]), operators, spec)
            object.__setattr__(self, "_evaluation", ev)
        return ev


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
    dt, n_steps, t_final (the last sample's time), constants, operators and
    admissible (whether the initial data were)."""

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
           meta: dict | None = None) -> Trajectory:
    """Trajectory of an iterable of states, read one state at a time: each
    gets its diagnostics.full_sample row and the pair flux from the state
    before it, and only the first and the last state are kept."""
    points = []
    prev = None
    for state in states:
        energy = diagnostics.full_sample(state, operators, spec)
        if prev is None:
            points.append(TrajectoryPoint(energy, 0.0, state))
        else:
            points.append(TrajectoryPoint(energy, diagnostics.pair_flux(prev, state, operators)))
        prev = state
    if len(points) > 1:
        points[-1] = replace(points[-1], state=prev)
    return Trajectory(points, meta or {})


def _step_factorizations(operators: DiscreteOperators, dt: float):
    """(LU of the step matrix A, residual weights w) with r^T M^-1 r <= sum(w r^2).

    On a P1 d-simplex the consistent mass is at least 1/(d+2) times the
    row-sum-lumped mass (its local eigenvalues relative to the lumped one are
    1 and 1/(d+2)), and restricting to free nodes only lowers the row sums l,
    so M^-1 <= (d+2) diag(l)^-1 and w = (d+2)/l."""
    def build():
        A = (operators.M + (dt / 2.0) * operators.B
             + (dt * dt / 4.0) * operators.K).tocsc()
        return spla.splu(A)
    A_lu = operators.cache(("step_A", dt), build)
    weights = operators.cache(
        ("residual_weights",),
        lambda: (operators.mesh.dim + 2.0) / np.asarray(operators.M.sum(axis=1)).ravel())
    return A_lu, weights


def step(state: SimState, dt: float, operators: DiscreteOperators,
         spec: CouplingSpec | None, opts: StepOptions | None = None) -> SimState:
    """One implicit-midpoint step; spec=None switches the coupling off and
    makes the step one linear solve.

    u and v share M, K and B, so they advance as the two columns of one
    (n, 2) block.  The right-hand side M P - (dt/2) K X and the first guess F
    of the midpoint coupling come from the state's evaluation(operators,
    spec), which the state then drops: a state is sampled before it is
    stepped, so only the newest state holds one.  The midpoint coupling is
    resolved by fixed-point iteration; each pass makes one two-column linear
    solve, one coupling evaluation and one diagonal scaling of the residual.
    Converged when the lumped bound sqrt(sum(w r^2)) of _step_factorizations
    is below opts.tol, so the residual in the M^-1 inner product (an M-norm of
    the velocity defect) is below opts.tol too.  The returned state carries
    its own Evaluation, made with one more coupling pass that also yields its
    coupling energy, which its sample and the next step read.
    """
    if opts is None:
        opts = StepOptions()
    if dt <= 0:
        raise ValueError("dt must be positive")
    x1, p1 = _advance(state, dt, operators, spec, opts)
    # separate contiguous copies: with strided views of the (n, 2) block the
    # products downstream round differently, and trajectory.csv, report.kv
    # and manifest.json of the 1D and 2D demo configs change in their last bits
    out = SimState(state.t + dt, x1[:, 0].copy(), x1[:, 1].copy(),
                   p1[:, 0].copy(), p1[:, 1].copy())
    object.__setattr__(out, "_evaluation", Evaluation.of(x1, p1, operators, spec))
    return out


def _advance(state: SimState, dt: float, operators: DiscreteOperators,
             spec: CouplingSpec | None, opts: StepOptions):
    """The blocks (X, P) one step after the state: step's fixed-point solve.
    Its temporaries and the dropped evaluation's products are freed on
    return, before step evaluates the new state."""
    A_lu, weights = _step_factorizations(operators, dt)
    ev = state.evaluation(operators, spec)
    object.__setattr__(state, "_evaluation", None)
    x0, p0, f = ev.X, ev.P, ev.F
    rhs = ev.MP - (dt / 2.0) * ev.KX

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(opts.max_iter):
            p_mid = A_lu.solve(rhs if f is None else rhs - (dt / 2.0) * f)
            if f is None:
                break
            x_mid = x0 + (dt / 2.0) * p_mid
            f_new = np.column_stack(coupling_vectors(x_mid.T, spec, operators))
            r = (dt / 2.0) * (f_new - f)
            f = f_new
            res_sq = float(np.sum(r * (weights[:, None] * r)))
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
    return x0 + dt * p_mid, 2.0 * p_mid - p0


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
    initial state, its admissibility report and the time step."""

    config: ScenarioConfig
    mesh: object
    operators: DiscreteOperators
    spec: CouplingSpec
    constants: WellConstants
    state0: SimState
    admissibility: object
    dt: float


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

    trajectory = record(sampled_states(), prep.operators, spec)
    trajectory.meta = {
        "dt": dt,
        "n_steps": n_steps,
        "t_final": trajectory.samples[-1].energy.t,
        "constants": prep.constants,
        "operators": prep.operators,
        "admissible": prep.admissibility.admissible,
    }
    return trajectory


CSV_COLUMNS = (
    "t", "E", "E_eps", "norm_u_V", "norm_v_V", "norm_du_L2", "norm_dv_L2",
    "coupling_energy", "gamma1_flux_u", "gamma1_flux_v", "well_margin",
)


def write_trajectory_csv(trajectory: Trajectory, constants: WellConstants, path) -> None:
    """Fixed-column CSV at full double precision (17 significant digits).
    E_eps is the perturbed energy E + eps1 psi with eps1 = 1/(2P), and
    well_margin the active threshold minus the larger of the two V-norms
    (positive while the state sits inside the well)."""
    eps1 = 1.0 / (2.0 * constants.P)
    thr, _ = constants.threshold()
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for p in trajectory.samples:
            e = p.energy
            row = (
                e.t, e.E, e.E + eps1 * e.psi, e.norm_u_V, e.norm_v_V, e.norm_du_L2,
                e.norm_dv_L2, e.coupling, e.flux_u, e.flux_v,
                min(thr - e.norm_u_V, thr - e.norm_v_V),
            )
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
