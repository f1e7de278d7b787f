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

What the time loop holds: the operators' matrices (with dense copies of K
and M on the smallest meshes; see assembly.DENSE_ENTRIES), the factor of
the step matrix A = M + (dt/2) B + (dt^2/4) K (assembly.factor_spd), the
residual weights (d+2)/l from the row sums l of M, the coupling's
quadrature table, the first eigenpair, and the newest state, which is its
blocks X = [u v] and P = [u' v'] and their Evaluation (K X, M P, and the
coupling vectors and energy from one quadrature pass), which its energy row
and the next step share; u, v, u' and v' exist only as the contiguous
copies of their columns that each read makes.  Beside them: the pending
row batch (the times and Evaluations of sampled states whose rows are not
formed yet, up to ROW_BATCH_BYTES: tens of states in 1D, none across a step
on a 64^2 square and up) and the trajectory's float64 columns (record), 104
bytes a sample, of which only the first and the last keep their state.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .assembly import (CouplingSpec, DiscreteOperators, assemble_operators, coupling_vectors,
                       factor_spd)
from .constants import (SAFETY, WellConstants, admissibility, compute_well_constants,
                        first_eigenpair, quadratic_norm)
from .geometry import Mesh, build_interval_mesh, build_rectangle_mesh, classify_boundary


class NonlinearSolveFailure(Exception):
    """The midpoint fixed-point solve did not converge; dt is too large."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class Evaluation:
    """What a state's sample and the next step both read, for one set of
    operators and one coupling spec: the blocks X = [u v] and P = [u' v'],
    K X and M P (with operators.KM()), and, with a spec, F = [F_u F_v] (the
    transpose of a coupling_vectors pass's (2, n) block) and the coupling
    energy of that pass (None and 0.0 without).  Read only."""

    __slots__ = ("operators", "spec", "X", "P", "KX", "MP", "F", "energy")

    def __init__(self, X: np.ndarray, P: np.ndarray, operators: DiscreteOperators,
                 spec: CouplingSpec | None):
        F, energy = None, 0.0
        if spec is not None:
            F, energy = coupling_vectors(X.T, spec, operators, energy=True)
            F = F.T
        K, M = operators.KM()
        self.operators, self.spec, self.X, self.P = operators, spec, X, P
        self.KX, self.MP, self.F, self.energy = K @ X, M @ P, F, energy

    @property
    def nbytes(self) -> int:
        """Bytes of the blocks it holds."""
        return sum(b.nbytes for b in (self.X, self.P, self.KX, self.MP, self.F)
                   if b is not None)


def _require_finite(X: np.ndarray, P: np.ndarray) -> None:
    """Raise ValueError naming the first of u, v, du, dv (the columns of
    X = [u v] and P = [u' v']) with a non-finite entry."""
    if not (np.isfinite(X).all() and np.isfinite(P).all()):
        bad = next(name for name, column in zip(("u", "v", "du", "dv"), (*X.T, *P.T))
                   if not np.isfinite(column).all())
        raise ValueError(f"non-finite entries in {bad}")


class SimState:
    """Coefficient vectors over free nodes at one time instant, held as the
    (n, 2) blocks X = [u v] and P = [u' v'].  u, v, du and dv are read-only
    and each read returns a contiguous copy of its column.  The constructor
    copies its four vectors into the blocks.

    A state keeps the Evaluation of its last evaluation() (step leaves the
    one of the state it returns) until it is stepped; a constructed state
    starts without one."""

    __slots__ = ("t", "X", "P", "_evaluation")

    def __init__(self, t: float, u, v, du, dv):
        if not (len(v) == len(du) == len(dv) == len(u)):
            raise ValueError("state vectors must have equal lengths")
        self._hold(t, np.column_stack([u, v]), np.column_stack([du, dv]))

    @classmethod
    def _stepped(cls, t: float, X: np.ndarray, P: np.ndarray, operators: DiscreteOperators,
                 spec: CouplingSpec | None) -> "SimState":
        """The state at time t of step's new blocks, evaluated once they are
        checked finite."""
        state = cls.__new__(cls)
        state._hold(t, X, P)
        state._evaluation = Evaluation(X, P, operators, spec)
        return state

    def _hold(self, t: float, X: np.ndarray, P: np.ndarray) -> None:
        _require_finite(X, P)
        self.t, self.X, self.P, self._evaluation = t, X, P, None

    u = property(lambda self: self.X[:, 0].copy())
    v = property(lambda self: self.X[:, 1].copy())
    du = property(lambda self: self.P[:, 0].copy())
    dv = property(lambda self: self.P[:, 1].copy())

    @staticmethod
    def zero(n: int, t: float = 0.0) -> "SimState":
        z = np.zeros(n)
        return SimState(t, z, z, z, z)

    def evaluation(self, operators: DiscreteOperators,
                   spec: CouplingSpec | None) -> Evaluation:
        """The state's Evaluation under operators and spec: the kept one if
        it was made with these operators and an equal spec, else a new one,
        which the state keeps."""
        ev = self._evaluation
        if (ev is None or ev.operators is not operators
                or ev.spec is not spec and ev.spec != spec):
            ev = self._evaluation = Evaluation(self.X, self.P, operators, spec)
        return ev


@dataclass(frozen=True)
class StepOptions:
    """The midpoint fixed-point solve's stopping rule: a pass stops once its
    residual is below tol, and a step that needs more than max_iter passes
    raises NonlinearSolveFailure.  tol must be positive and finite and
    max_iter at least 1 (ValueError otherwise).  A scenario's options
    (ScenarioConfig.solver) are the config keys solver.tol and
    solver.max_iter."""

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"solver tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"solver max_iter must be at least 1, got {self.max_iter}")


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
    Evaluation blocks are pending (all of one record are the same size);
    diagnostics.energy_rows then forms the batch's energy rows and pair
    fluxes at once, the first flux from the velocities of the sample before
    the batch, and appends them to the columns, 104 bytes a sample.  Only
    the first and the last state are kept, and no Evaluation outlives its
    batch."""
    times, batch = [], []
    first = before = None
    # one row per sample, grown in place (ndarray.resize reallocates), so
    # the rows never exist twice, as they would when joining the blocks
    rows = np.empty((0, len(diagnostics.COLUMNS)))

    def flush(last):
        nonlocal before
        previous = None if before is None else (before.du, before.dv)
        block = diagnostics.energy_rows(times, batch, operators, previous)
        n = len(rows)
        rows.resize((n + block.shape[1], rows.shape[1]), refcheck=False)
        rows[n:] = block.T
        times.clear()
        batch.clear()
        before = last

    for state in states:
        times.append(state.t)
        batch.append(state.evaluation(operators, spec))
        if first is None:
            first, size = state, -(-ROW_BATCH_BYTES // max(batch[0].nbytes, 1))
        if len(batch) == size:
            flush(state)
    if batch:
        flush(state)
    return Trajectory(rows.T, first, before)


def _step_factorizations(operators: DiscreteOperators, dt: float):
    """(factor of the step matrix A, residual weights w) with
    r^T M^-1 r <= sum(w r^2), both cached on the operators; w holds the
    weights once for u and once for v, an (n, 2) block without broadcasts.

    A = M + (dt/2) B + (dt^2/4) K is symmetric positive definite (M and K
    are, B is symmetric positive semidefinite), so assembly.factor_spd
    factors it.
    On a P1 d-simplex the consistent mass is at least 1/(d+2) times the
    row-sum-lumped mass (its local eigenvalues relative to the lumped one are
    1 and 1/(d+2)), and restricting to free nodes only lowers the row sums l,
    so M^-1 <= (d+2) diag(l)^-1 and w = (d+2)/l."""
    A_lu = operators.cache(("step_A", dt), lambda: factor_spd(
        operators.M + (dt / 2.0) * operators.B + (dt * dt / 4.0) * operators.K))
    weights = operators.cache(("residual_weights",), lambda: np.repeat(
        (operators.mesh.dim + 2.0) / np.asarray(operators.M.sum(axis=1)), 2, axis=1))
    return A_lu, weights


def step(state: SimState, dt: float, operators: DiscreteOperators,
         spec: CouplingSpec | None, opts: StepOptions | None = None) -> SimState:
    """One implicit-midpoint step; spec=None switches the coupling off and
    makes the step one linear solve.

    u and v advance as the two columns of the state's block X.  The state's
    evaluation(operators, spec), which it then drops (a state is sampled
    before it is stepped), gives the right-hand side M P - (dt/2) K X and
    the first guess F of the midpoint coupling, which _advance resolves by
    fixed-point passes.  The returned state holds the new blocks X = [u v]
    and P = [u' v'] themselves, with no copy: they are checked finite by
    the constructor's check (_require_finite, whose ValueError names the
    first bad vector) and then evaluated by one more coupling pass, which
    also yields the coupling energy.  That Evaluation stays with the state
    for its sample and the next step.
    """
    if opts is None:
        opts = StepOptions()
    if dt <= 0:
        raise ValueError("dt must be positive")
    X, P = _advance(state, dt, operators, spec, opts)
    return SimState._stepped(state.t + dt, X, P, operators, spec)


def _residual_bound(x_prev: np.ndarray, x_mid: np.ndarray, dt: float, dim: int,
                    spec: CouplingSpec, weights: np.ndarray) -> float:
    """_advance's bound of the lumped residual of the pass from x_prev to
    x_mid on a mesh of dimension d, formed without a coupling evaluation.
    inf or nan where G is inf or delta is not finite."""
    # the reductions of ndarray.max and np.sum, without their Python wrappers
    a = max(np.maximum.reduce(np.abs(x_prev), axis=None, initial=0.0),
            np.maximum.reduce(np.abs(x_mid), axis=None, initial=0.0))
    delta = x_mid - x_prev
    return (dim + 2.0) * (dt / 2.0) * spec.lipschitz(a) * math.sqrt(
        float(np.add.reduce(delta * delta / weights, axis=None)))


# a decorator: a with block would build the error state a step
@np.errstate(over="ignore", invalid="ignore")
def _advance(state: SimState, dt: float, operators: DiscreteOperators,
             spec: CouplingSpec | None, opts: StepOptions):
    """The new blocks (X, P) one step after the state's: step's fixed-point
    solve.  It drops the state's kept Evaluation, so its temporaries and
    that evaluation's products are freed on return, before step evaluates
    the new blocks.

    Pass k makes one two-column solve for p_mid with f = F(x_prev) (x_prev
    is the state's X on the first pass, the previous pass's x_mid after) and
    forms x_mid = X + (dt/2) p_mid.  Before evaluating F(x_mid), it forms
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
    Overflow raises no warning here: a non-finite pass fails the residual
    test, and non-finite new blocks step's check.
    """
    A_lu, weights = _step_factorizations(operators, dt)
    ev = state.evaluation(operators, spec)
    state._evaluation = None
    x0, p0, f = ev.X, ev.P, ev.F
    rhs = ev.MP - (dt / 2.0) * ev.KX
    dim, x_prev = operators.mesh.dim, x0

    for _ in range(opts.max_iter):
        # the factors return column-major blocks: arithmetic that mixes them
        # with row-major ones is 2 (n = 49) to 7 (n = 16384) times slower
        p_mid = np.ascontiguousarray(
            A_lu.solve(rhs if f is None else rhs - (dt / 2.0) * f))
        if f is None:
            break
        x_mid = x0 + (dt / 2.0) * p_mid
        if _residual_bound(x_prev, x_mid, dt, dim, spec, weights) < opts.tol:
            break
        f_new = coupling_vectors(x_mid.T, spec, operators).T
        r = (dt / 2.0) * (f_new - f)
        f = f_new
        res_sq = float(np.add.reduce(r * (weights * r), axis=None))
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
        if not math.isfinite(self.amplitude):
            raise ValueError(f"initial amplitude must be finite, got {self.amplitude}")


@dataclass
class ScenarioConfig:
    """Declarative description of one simulation run.  A non-finite number
    raises ValueError: here, or for the mesh ends and x0 in prepare's mesh
    builders and boundary split."""

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
    solver: StepOptions = field(default_factory=StepOptions)
    safety: float = SAFETY

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt is not None and self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        if not (math.isfinite(self.safety) and self.safety >= 1):
            raise ValueError(f"safety must be finite and at least 1 (it inflates the discrete "
                             f"best constants), got {self.safety}")
        if self.mesh_kind not in ("interval", "rectangle"):
            raise ValueError(f"unknown mesh kind '{self.mesh_kind}'")
        if len(self.x0) != self.dim:
            raise ValueError(f"x0 needs {self.dim} coordinate(s) for a {self.mesh_kind} mesh, "
                             f"got {len(self.x0)}")
        if self.dim == 2 and (len(self.rect_lo) != 2 or len(self.rect_hi) != 2):
            raise ValueError("rect_lo and rect_hi must each hold two numbers")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if self.delta_kind not in ("mdotnu", "constant"):
            raise ValueError(f"unknown delta kind '{self.delta_kind}'")
        if self.delta_kind == "constant" and not (math.isfinite(self.delta_value)
                                                  and self.delta_value > 0):
            raise ValueError(f"constant delta must be positive and finite, "
                             f"got {self.delta_value}")

    @property
    def dim(self) -> int:
        """Space dimension of the mesh kind."""
        return 1 if self.mesh_kind == "interval" else 2


@dataclass
class Prepared:
    """A scenario made ready to run: every number simulate() reads.  The
    config (its stride and solver options), the operators (which hold the
    boundary partition and, through it, the mesh), the coupling spec (None
    when the config switches the coupling off), the constants (whose
    threshold() is the active well), the initial state, its admissibility
    report, the time step and, from it, n_steps."""

    config: ScenarioConfig
    operators: DiscreteOperators
    spec: CouplingSpec | None
    constants: WellConstants
    state0: SimState
    admissibility: object
    dt: float

    @property
    def mesh(self) -> Mesh:
        return self.operators.mesh

    @property
    def n_steps(self) -> int:
        """Steps to the horizon: t_end / dt rounded, at least one."""
        return max(1, round(self.config.t_end / self.dt))


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
    nrm = quadratic_norm(operators.M if velocity else operators.K, vec)
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
    spec = CouplingSpec(rho=config.rho) if config.coupling_enabled else None
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


def simulate(prep: Prepared) -> Trajectory:
    """Step a prepared run prep.n_steps times from prep.state0 and sample it
    every config.stride steps (plus t = 0 and the final instant).  Proceeds
    even for inadmissible data; prep.admissibility says whether they were."""
    cfg, dt, n_steps = prep.config, prep.dt, prep.n_steps

    def sampled_states():
        state = prep.state0
        yield state
        for k in range(1, n_steps + 1):
            state = step(state, dt, prep.operators, prep.spec, cfg.solver)
            if k % cfg.stride == 0 or k == n_steps:
                yield state

    trajectory = record(sampled_states(), prep.operators, prep.spec)
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
