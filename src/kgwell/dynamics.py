"""Time integration of the semi-discrete system

    M u'' + K u + B u' + F_u(u, v) = 0
    M v'' + K v + B v' + F_v(u, v) = 0

by the implicit midpoint rule on the first-order form.  The scheme is
symmetric and A-stable and conserves quadratic invariants of the linear
problem exactly, so every energy loss along a trajectory is attributable
to the boundary damping B (plus an O(dt^3) per-step defect from the
nonlinear coupling).  The midpoint coupling is resolved by fixed-point
passes; a pass whose residual bound (the coupling's Lipschitz constant at
the iterates' amplitude times the iterate's change, _residual_bound) is
already below the solver tolerance stops without its coupling evaluation,
and that stop is the one the evaluated residual test would make, so every
output is that of evaluating every pass.

What the time loop holds: the operators' matrices, the sparse LU of the
step matrix A = M + (dt/2) B + (dt^2/4) K (symmetric positive definite, so
assembly.factor_spd orders it by minimum degree on A + A^T and pivots on
the diagonal, with less fill than a general column order), the fixed-point
residual weights (d+2)/l from the row sums l of M, the coupling's
quadrature table, the first eigenpair, the Evaluation of the newest state
(its blocks [u v] and [u' v'], K and M times them, and its coupling vectors
and energy from one quadrature pass, shared by the state's energy row and
the next step, which drops it), the pending row batch (the times and
Evaluations of sampled states whose rows are not formed yet, up to
ROW_BATCH_BYTES of blocks: tens of states in 1D, none across a step on a
64^2 square and up), and the trajectory's float64 columns (record), 104
bytes a sample: the time, the energy row of the state alone and the flux
of the sample pair ending there; no per-sample object is built, and only
the first and the last sample keep their state.  Setup's K factor,
embedding tables and GAMMA1 table are gone by then (see constants), and the
coupling integrals run in cell blocks (see assembly), so their temporaries
are block-sized.  The columns that also need the run's constants, E + eps1
psi and the well margin, are formed by write_trajectory_csv.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .assembly import (CouplingSpec, DiscreteOperators, assemble_operators, coupling_vectors,
                       factor_spd)
from .constants import WellConstants, admissibility, compute_well_constants, first_eigenpair
from .geometry import Mesh, build_interval_mesh, build_rectangle_mesh, classify_boundary


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
    spec: CouplingSpec | None
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
        return Evaluation(operators, spec, X, P, operators.K @ X,
                          operators.M @ P, F, energy)

    @property
    def nbytes(self) -> int:
        """Bytes of the blocks it holds."""
        return sum(b.nbytes for b in (self.X, self.P, self.KX, self.MP, self.F)
                   if b is not None)


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
        if ev is None or ev.operators is not operators or ev.spec != spec:
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
    """One sample as objects: its energy row, the damped-boundary flux of
    the sample pair that ends here (diagnostics.energy_rows; 0.0 at t = 0),
    and its state, which only the first and the last sample keep.
    Trajectory.samples builds them on indexing."""

    energy: "diagnostics.EnergySample"
    flux: float
    state: SimState | None = None


class Samples(Sequence):
    """Read-only view of a trajectory as TrajectoryPoints, each built when
    it is indexed (a slice gives a list of them)."""

    def __init__(self, trajectory: "Trajectory"):
        self._trajectory = trajectory

    def __len__(self) -> int:
        return self._trajectory.columns.shape[1]

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        i = range(n)[index]  # normalised, IndexError out of range
        traj = self._trajectory
        *row, flux = traj.columns[:, i].tolist()
        state = traj.first if i == 0 else traj.last if i == n - 1 else None
        return TrajectoryPoint(diagnostics.EnergySample(*row), flux, state)


@dataclass(eq=False)
class Trajectory:
    """Sampled run as float64 columns, one entry per sample: columns[j] is
    diagnostics.COLUMNS[j] (the time, the energy row's fields and the Gamma1
    flux of the sample pair ending there), plus the states of the first and
    the last sample (the same state for a single sample) and metadata.
    record() builds one from any sequence of states; simulate() sets meta
    to what the time loop made, dt and n_steps (the run's setup is the
    Prepared's).  The columns are read-only; samples is a view that builds
    per-sample objects on indexing, for inspection."""

    columns: np.ndarray
    first: SimState | None = None
    last: SimState | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim != 2 or len(self.columns) != len(diagnostics.COLUMNS):
            raise ValueError(f"columns must be a ({len(diagnostics.COLUMNS)}, n) array")
        self.columns.setflags(write=False)
        times = self.times()
        if len(times) == 0:
            raise ValueError("trajectory must contain at least one sample")
        if times[0] != 0.0:
            raise ValueError("first sample must be at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        """The named column (one of diagnostics.COLUMNS), read-only."""
        return self.columns[diagnostics.COLUMNS.index(name)]

    def times(self) -> np.ndarray:
        return self.column("t")

    def energies(self) -> np.ndarray:
        return self.column("E")

    @property
    def samples(self) -> Samples:
        return Samples(self)


#: Bytes of Evaluation blocks that record keeps pending before it forms
#: their states' rows in one diagnostics.energy_rows call.  A coupled state
#: holds 80 bytes a free node, so a 50-element interval batches 67 states,
#: while one state of a 64^2 square (4096 free nodes) already reaches the
#: budget: from there up a batch is a single state, whose row is formed
#: before the next step.
ROW_BATCH_BYTES = 256 * 1024


def record(states, operators: DiscreteOperators, spec: CouplingSpec | None) -> Trajectory:
    """Trajectory of an iterable of states, read one state at a time.  Each
    state's time and Evaluation wait in a batch until ROW_BATCH_BYTES of
    Evaluation blocks are pending; diagnostics.energy_rows then forms the
    batch's column block (energy rows and pair fluxes) at once, the first
    flux of a batch from the velocities of the sample before it, and the
    block is appended to the trajectory's columns, 104 bytes a sample.
    Only the first and the last state are kept.
    Nothing here holds an Evaluation past its batch, so where one state
    fills a batch, its Evaluation is freed when the next step drops it, as
    without batches."""
    times, batch = [], []
    pending = 0
    first = before = None
    # one row per sample, grown in place (ndarray.resize reallocates), so
    # the rows never exist twice, as they would when joining the blocks
    rows = np.empty((0, len(diagnostics.COLUMNS)))

    def flush(last):
        nonlocal pending, before
        previous = None if before is None else (before.du, before.dv)
        block = diagnostics.energy_rows(times, batch, operators, previous)
        n = len(rows)
        rows.resize((n + block.shape[1], rows.shape[1]), refcheck=False)
        rows[n:] = block.T
        times.clear()
        batch.clear()
        pending, before = 0, last

    for state in states:
        if first is None:
            first = state
        times.append(state.t)
        batch.append(state.evaluation(operators, spec))
        pending += batch[-1].nbytes
        if pending >= ROW_BATCH_BYTES:
            flush(state)
    if batch:
        flush(state)
    return Trajectory(rows.T, first, before)


def _step_factorizations(operators: DiscreteOperators, dt: float):
    """(LU of the step matrix A, residual weights w) with r^T M^-1 r <= sum(w r^2),
    both cached on the operators.

    A = M + (dt/2) B + (dt^2/4) K is symmetric positive definite (M and K
    are, B is symmetric positive semidefinite), so assembly.factor_spd
    factors it.
    On a P1 d-simplex the consistent mass is at least 1/(d+2) times the
    row-sum-lumped mass (its local eigenvalues relative to the lumped one are
    1 and 1/(d+2)), and restricting to free nodes only lowers the row sums l,
    so M^-1 <= (d+2) diag(l)^-1 and w = (d+2)/l."""
    A_lu = operators.cache(("step_A", dt), lambda: factor_spd(
        operators.M + (dt / 2.0) * operators.B + (dt * dt / 4.0) * operators.K))
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
    solve, then one coupling evaluation and one diagonal scaling of the
    residual.  Converged when the lumped bound sqrt(sum(w r^2)) of
    _step_factorizations is below opts.tol, so the residual in the M^-1 inner
    product (an M-norm of the velocity defect) is below opts.tol too.  A pass
    whose residual bound (see _advance) is already below opts.tol stops
    without its coupling evaluation; the evaluated test would stop there
    too, so the result is that of evaluating every pass.  The returned state
    carries its own Evaluation, made with one more coupling pass that also
    yields its coupling energy, which its sample and the next step read.
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


def _residual_bound(x_prev: np.ndarray, x_mid: np.ndarray, dt: float, dim: int,
                    spec: CouplingSpec, weights: np.ndarray) -> float:
    """_advance's bound of the lumped residual of the pass from x_prev to
    x_mid on a mesh of dimension d, formed without a coupling evaluation.
    inf or nan where G is inf or delta is not finite."""
    a = max(np.abs(x_prev).max(initial=0.0), np.abs(x_mid).max(initial=0.0))
    delta = x_mid - x_prev
    return (dim + 2.0) * (dt / 2.0) * spec.lipschitz(a) * math.sqrt(
        float(np.sum(delta * delta / weights[:, None])))


def _advance(state: SimState, dt: float, operators: DiscreteOperators,
             spec: CouplingSpec | None, opts: StepOptions):
    """The blocks (X, P) one step after the state: step's fixed-point solve.
    Its temporaries and the dropped evaluation's products are freed on
    return, before step evaluates the new state.

    Pass k solves for p_mid with f = F(x_prev) (x_prev is the state's X on
    the first pass, the previous pass's x_mid after) and forms
    x_mid = X + (dt/2) p_mid.  Before evaluating F(x_mid), it forms
    _residual_bound,

        bound = (d+2) (dt/2) G sqrt(sum(delta^2 / w)),  delta = x_mid - x_prev,

    with G = spec.lipschitz(a) and a the largest nodal |x| of x_prev and
    x_mid, and stops with this p_mid when bound < opts.tol.  Otherwise it
    evaluates F(x_mid) and stops when res = sqrt(sum(w r^2)) < opts.tol,
    with r = (dt/2) (F(x_mid) - f).  The bound holds, res <= bound, with
    l = (d+2)/w the row sums of M:
    * M <= diag(l), since diag(l) - M is symmetric, diagonally dominant and
      has a nonnegative diagonal (M has no negative entry).  So
      sum(w r^2) = (d+2) r^T diag(l)^-1 r <= (d+2) r^T M^-1 r, and
      ||delta||_M^2 <= sum(l delta^2) = (d+2) sum(delta^2 / w).
    * ||F(x) - F(y)||_{M^-1} <= G ||x - y||_M: for any z, z . (F(x) - F(y))
      is a sum over the coupling rule, whose weights are positive, of z_h
      times the pointwise coupling difference.  The P1 values at the points
      are convex combinations of nodal ones, so |u_h|, |v_h| <= a there and
      the difference is at most G |x_h - y_h|; Cauchy-Schwarz over the rule,
      which is exact at degree 2, gives ||z||_M G ||x - y||_M.
    Chained: res <= sqrt(d+2) ||r||_{M^-1} <= sqrt(d+2) (dt/2) G ||delta||_M
    <= bound.
    So a pass that the bound stops is one that the evaluated test would
    also stop, up to the round-off of res itself, with the same p_mid: the
    result, the pass count that max_iter limits and every
    NonlinearSolveFailure are those of the evaluated test alone.  For
    rho < 1, G is inf and every pass is evaluated; a non-finite x_mid makes
    the bound inf or nan, so its pass is evaluated too, and fails there.
    """
    A_lu, weights = _step_factorizations(operators, dt)
    ev = state.evaluation(operators, spec)
    object.__setattr__(state, "_evaluation", None)
    x0, p0, f = ev.X, ev.P, ev.F
    rhs = ev.MP - (dt / 2.0) * ev.KX
    dim, x_prev = operators.mesh.dim, x0

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(opts.max_iter):
            p_mid = A_lu.solve(rhs if f is None else rhs - (dt / 2.0) * f)
            if f is None:
                break
            x_mid = x0 + (dt / 2.0) * p_mid
            if _residual_bound(x_prev, x_mid, dt, dim, spec, weights) < opts.tol:
                break
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
            x_prev = x_mid
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

FIELD_PRESETS = ("zero", "eigenfunction", "bump", "polynomial")


@dataclass
class FieldInit:
    """Closed-form initial field: a preset name of FIELD_PRESETS, amplitude,
    and whether the amplitude is relative to the active well threshold or
    absolute."""

    preset: str = "zero"
    amplitude: float = 0.1
    relative: bool = True

    def __post_init__(self):
        if self.preset not in FIELD_PRESETS:
            raise ValueError(f"unknown initial preset '{self.preset}'")


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
    delta_kind: str = "mdotnu"  # mdotnu | constant
    delta_value: float = 1.0
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
    config, the operators (which hold the boundary partition and, through
    it, the mesh), the coupling spec, the constants (whose threshold() is
    the active well), the initial state, its admissibility report and the
    time step."""

    config: ScenarioConfig
    operators: DiscreteOperators
    spec: CouplingSpec
    constants: WellConstants
    state0: SimState
    admissibility: object
    dt: float

    @property
    def mesh(self) -> Mesh:
        return self.operators.mesh


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
    else:  # polynomial
        lo = mesh.vertices.min(axis=0)
        vec = np.prod(mesh.vertices - lo, axis=1)[operators.free]
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
    operators = assemble_operators(partition, delta=delta)
    spec = CouplingSpec(rho=config.rho)
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
        config=config, operators=operators, spec=spec,
        constants=constants, state0=state0, admissibility=report, dt=dt,
    )


def simulate(config: ScenarioConfig | Prepared, check_spacing: bool = False) -> Trajectory:
    """Run a scenario and sample it every `stride` steps (plus t = 0 and the
    final instant).  Proceeds even for inadmissible data; the Prepared's
    admissibility report says whether they were.  With check_spacing, a
    sample pair too far apart for the dissipation check raises ValueError
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
    trajectory.meta = {"dt": dt, "n_steps": n_steps}
    return trajectory


CSV_COLUMNS = (
    "t", "E", "E_eps", "norm_u_V", "norm_v_V", "norm_du_L2", "norm_dv_L2",
    "coupling_energy", "gamma1_flux_u", "gamma1_flux_v", "well_margin",
)


#: Rows write_trajectory_csv formats from one block of the columns.
CSV_BLOCK_ROWS = 512


def write_trajectory_csv(trajectory: Trajectory, constants: WellConstants, path) -> None:
    """Fixed-column CSV at full double precision (17 significant digits).
    E_eps is the perturbed energy E + eps1 psi with eps1 = 1/(2P), and
    well_margin the active threshold minus the larger of the two V-norms
    (positive while the state sits inside the well)."""
    eps1 = 1.0 / (2.0 * constants.P)
    thr, _ = constants.threshold()
    col = trajectory.column
    E, norm_u, norm_v = col("E"), col("norm_u_V"), col("norm_v_V")
    columns = (col("t"), E, E + eps1 * col("psi"), norm_u, norm_v, col("norm_du_L2"),
               col("norm_dv_L2"), col("coupling"), col("flux_u"), col("flux_v"),
               np.minimum(thr - norm_u, thr - norm_v))
    line = ",".join(["{:.17g}"] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        # CSV_BLOCK_ROWS rows at a time, so no row list of the whole run is built
        for lo in range(0, len(E), CSV_BLOCK_ROWS):
            block = np.column_stack([c[lo:lo + CSV_BLOCK_ROWS] for c in columns])
            fh.writelines(line.format(*row) for row in block.tolist())
