"""Energy functionals along trajectories and the verification checks:
well invariance, perturbed-energy equivalence, boundary dissipation, and
the exponential decay bound E(t) <= 3 E(0) exp(-tau t / 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import CouplingSpec, DiscreteOperators
# no sample calls it (a state's evaluation carries the coupling energy); the
# name stays here, where perfbench/tracing.py counts its calls
from .assembly import coupling_energy  # noqa: F401
from .constants import WellConstants

#: Ratio checks switch to this absolute slack once E drops below
#: 1e-12 * E(0); relative statements are meaningless in the roundoff floor.
NEAR_ZERO_SLACK = 1e-12

#: Widest sample spacing (stride * dt) the finite-difference dissipation
#: check accepts.
MAX_SAMPLE_SPACING = 0.1


@dataclass(frozen=True)
class EnergySample:
    """Energy breakdown at one instant, a function of the state alone.

    E = kinetic + potential + coupling holds by construction; psi is the
    multiplier functional 2(u', m.grad u) + (n-1)(u', u) + (same in v).
    Quantities that also need the run's constants (the perturbed energy
    E + eps1 psi, the well margins) are formed by their readers.
    """

    t: float
    kinetic: float
    potential: float
    coupling: float
    E: float
    psi: float
    norm_u_V: float
    norm_v_V: float
    norm_du_L2: float
    norm_dv_L2: float
    flux_u: float
    flux_v: float


def energy_rows(times, evaluations, operators: DiscreteOperators, previous=None):
    """EnergySample rows and damped-boundary pair fluxes of a batch of
    states, given in time order by their times and their Evaluations under
    the operators (dynamics.Evaluation: the blocks X = [u v] and P = [u' v'],
    K X, M P and the coupling energy).

    The flux of a state is the trace form ||mid u'||_T^2 + ||mid v'||_T^2
    of the sample pair that ends there, mid being the average of the two
    velocities.  previous is the velocity pair (u', v') of the sample before
    the batch, or None when the batch starts the trajectory; the first
    flux is 0.0 then.

    The batch's blocks stand side by side as the columns of one (n, 2k)
    block (a batch of one uses its own blocks), so each of G X, B P, T mid
    and, in 2D and up, M X is one sparse product, which rounds every column
    as a product of that column alone.  Each product's dots are one
    np.vecdot over C-contiguous rows, which rounds as x @ y (on strided rows
    it does not).
    """
    k = len(evaluations)
    X = _side_by_side([ev.X for ev in evaluations])
    P = _side_by_side([ev.P for ev in evaluations])
    x, p = _rows([X]), _rows([P])
    ku_kv = np.vecdot(x, _rows([ev.KX for ev in evaluations]))
    mu_mv = np.vecdot(p, _rows([ev.MP for ev in evaluations]))
    bu_bv = np.vecdot(p, _rows([operators.B @ P]))
    psi = _psi(p, X, operators)
    # midpoint velocities of the sample pairs that end in the batch
    mid = np.empty((2 * k if previous is not None else 2 * k - 2, p.shape[1]))
    if previous is not None:
        np.add(previous[0], p[0], out=mid[0])
        np.add(previous[1], p[1], out=mid[1])
    np.add(p[:-2], p[2:], out=mid[len(mid) - (2 * k - 2):])
    mid *= 0.5
    fluxes = [] if previous is not None else [0.0]
    if len(mid):
        tu_tv = np.vecdot(mid, _rows([operators.T @ mid.T]))
        fluxes += (tu_tv[0::2] + tu_tv[1::2]).tolist()

    ku, kv, mu, mv = ku_kv[0::2], ku_kv[1::2], mu_mv[0::2], mu_mv[1::2]
    kinetic = 0.5 * (mu + mv)
    potential = 0.5 * (ku + kv)
    coupling = np.array([ev.energy for ev in evaluations])
    columns = np.vstack([
        kinetic, potential, coupling, kinetic + potential + coupling, psi,
        np.sqrt(np.maximum([ku, kv, mu, mv], 0.0)), bu_bv[0::2], bu_bv[1::2],
    ])
    rows = [EnergySample(t, *values) for t, values in zip(times, columns.T.tolist())]
    return rows, fluxes


def _side_by_side(blocks) -> np.ndarray:
    """The (n, 2) blocks as the columns of one C-ordered (n, 2k) block."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def _rows(blocks) -> np.ndarray:
    """The columns of the (n, m_j) blocks as the C-contiguous rows of one
    (sum m_j, n) array (concatenate follows its inputs' layout, and the
    transposed blocks are F-ordered, so the output is given)."""
    out = np.empty((sum(b.shape[1] for b in blocks), blocks[0].shape[0]))
    return np.concatenate([b.T for b in blocks], out=out)


def _psi(p: np.ndarray, X: np.ndarray, operators: DiscreteOperators) -> np.ndarray:
    """The multiplier functional 2 u'.(G u) + 2 v'.(G v) plus, in 2D and up,
    (n-1) (u'.(M u) + v'.(M v)) per state, for the velocity rows p and the
    side-by-side displacement block X."""
    dim = operators.mesh.dim
    g = np.vecdot(p, _rows([operators.G @ X]))
    psi = 2.0 * g[0::2] + 2.0 * g[1::2]
    if dim != 1:
        m = np.vecdot(p, _rows([operators.M @ X]))
        psi += (dim - 1) * (m[0::2] + m[1::2])
    return psi


def full_sample(state, operators: DiscreteOperators,
                spec: CouplingSpec | None) -> EnergySample:
    """Complete energy record of one state (its energy_rows row); spec=None
    means the coupling is switched off and its energy contribution is zero.

    K X, M P and the coupling energy come from state.evaluation(operators,
    spec), which a state returned by dynamics.step already holds (any other
    state is evaluated here, once, and keeps the evaluation)."""
    rows, _ = energy_rows([state.t], [state.evaluation(operators, spec)], operators)
    return rows[0]


def multiplier_functional(state, operators: DiscreteOperators) -> float:
    """psi = 2 u'.(G u) + (n-1) u'.(M u) + 2 v'.(G v) + (n-1) v'.(M v) with
    n the dimension of the operators' mesh: full_sample's psi, formed from
    the state's vectors alone (its Evaluation is neither read nor replaced)."""
    p = np.array([state.du, state.dv])
    return float(_psi(p, np.column_stack([state.u, state.v]), operators)[0])


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    eps1: float
    worst_low: float   # min of E_eps - E/2  (should be >= -slack)
    worst_high: float  # max of E_eps - 3E/2 (should be <= slack)
    worst_t: float     # time of worst_low


def check_equivalence(trajectory, constants: WellConstants) -> EquivalenceReport:
    """Verify E/2 <= E + eps1 psi <= 3E/2 with eps1 = 1/(2P) at every sample
    (absolute slack near E = 0)."""
    eps1 = 1.0 / (2.0 * constants.P)
    worst_low = math.inf
    worst_high = -math.inf
    worst_t = 0.0
    ok = True
    for p in trajectory.samples:
        e = p.energy
        e_eps = e.E + eps1 * e.psi
        low = e_eps - 0.5 * e.E
        high = e_eps - 1.5 * e.E
        if low < worst_low:
            worst_low, worst_t = low, e.t
        if high > worst_high:
            worst_high = high
        if low < -NEAR_ZERO_SLACK or high > NEAR_ZERO_SLACK:
            ok = False
    return EquivalenceReport(ok=ok, eps1=eps1, worst_low=worst_low,
                             worst_high=worst_high, worst_t=worst_t)


@dataclass(frozen=True)
class DissipationReport:
    ok: bool
    worst_residual: float   # max of dE/dt + delta_min * trace forms (<= slack)
    worst_t: float
    slack: float


def require_fine_sampling(gap: float) -> None:
    """Reject a sample spacing wider than MAX_SAMPLE_SPACING, which the
    finite-difference dissipation check cannot use."""
    if gap > MAX_SAMPLE_SPACING + 1e-12:
        raise ValueError(
            f"sample spacing {gap:g} too coarse for a finite-difference "
            f"derivative; need stride * dt <= {MAX_SAMPLE_SPACING:g}"
        )


def check_dissipation(trajectory, m0: float, slack: float | None = None) -> DissipationReport:
    """Finite-difference check of dE/dt <= -m0 (||u'||^2 + ||v'||^2 on the
    damped boundary), the trace forms being the flux of each sample pair at
    its midpoint velocities (energy_rows), which the trajectory recorded.
    Pass the smallest damping the run assembled
    (operators.delta_min, which equals the geometric m0 for delta = m . nu)
    as m0.  Sample spacing must not exceed MAX_SAMPLE_SPACING."""
    samples = trajectory.samples
    if len(samples) < 2:
        raise ValueError("need at least two samples for a dissipation check")
    gaps = np.diff(trajectory.times())
    require_fine_sampling(np.max(gaps))
    if slack is None:
        dt = trajectory.meta.get("dt", float(np.min(gaps)))
        slack = 10.0 * dt * samples[0].energy.E
    worst = -math.inf
    worst_t = 0.0
    for a, b in zip(samples[:-1], samples[1:]):
        dt_ab = b.energy.t - a.energy.t
        dE = (b.energy.E - a.energy.E) / dt_ab
        residual = dE + m0 * b.flux
        if residual > worst:
            worst, worst_t = residual, a.energy.t
    return DissipationReport(ok=worst <= slack, worst_residual=worst,
                             worst_t=worst_t, slack=slack)


@dataclass(frozen=True)
class DecayReport:
    """Exponential decay verdict for one trajectory.

    bound_satisfied means E(t) <= 3 E(0) exp(-tau t/3) at every sample, up
    to a relative 1e-12; fitted_rate is the least-squares slope of log E
    (expected to be at least tau/3, reported, never asserted).
    """

    E0: float
    tau: float
    fitted_rate: float
    bound_satisfied: bool
    max_violation_ratio: float


def check_decay_bound(trajectory, constants: WellConstants) -> DecayReport:
    """DecayReport of the trajectory against the constants' tau.  The
    perturbed-energy equivalence the bound rests on is check_equivalence's
    to report."""
    times = trajectory.times()
    energies = trajectory.energies()
    E0 = float(energies[0])
    rate = constants.tau / 3.0
    if E0 <= 0.0:
        ratio = 0.0 if np.all(energies <= NEAR_ZERO_SLACK) else math.inf
    else:
        bound = 3.0 * E0 * np.exp(-rate * times)
        ratio = float(np.max(energies / bound))
    window = energies > 1e-12 * max(E0, 0.0)
    if E0 > 0 and np.count_nonzero(window) >= 2:
        slope = np.polyfit(times[window], np.log(energies[window]), 1)[0]
        fitted = -float(slope)
    else:
        fitted = math.nan
    return DecayReport(
        E0=E0, tau=constants.tau, fitted_rate=fitted,
        bound_satisfied=bool(ratio <= 1.0 + 1e-12),
        max_violation_ratio=ratio,
    )


@dataclass(frozen=True)
class WellReport:
    max_norm_u: float
    max_norm_v: float
    threshold: float
    threshold_kind: str
    invariant_held: bool


def well_monitor(trajectory, constants: WellConstants) -> WellReport:
    """Did both V-norms stay strictly below the active well threshold?"""
    threshold, kind = constants.threshold()
    mu = max(p.energy.norm_u_V for p in trajectory.samples)
    mv = max(p.energy.norm_v_V for p in trajectory.samples)
    return WellReport(
        max_norm_u=mu, max_norm_v=mv, threshold=threshold,
        threshold_kind=kind, invariant_held=bool(mu < threshold and mv < threshold),
    )


# ---------------------------------------------------------------------------
# report rendering: human block + machine key=value lines
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def report_lines(constants: WellConstants, results: dict) -> list[str]:
    """Flatten constants and check results into sorted group.key=value lines."""
    out = {}
    for group, rep in {"constants": constants, **results}.items():
        if rep is None:
            continue
        for key, val in (rep if isinstance(rep, dict) else vars(rep)).items():
            out[f"{group}.{key}"] = val
    return [f"{k}={_fmt(v)}" for k, v in sorted(out.items())]


def render_report(constants: WellConstants, results: dict, header: str = "") -> str:
    lines = []
    if header:
        lines += [header, "-" * len(header)]
    thr, kind = constants.threshold()
    lines.append(
        f"well thresholds: general lambda* = {constants.lambda_star:.6g}, "
        f"regular lambda1* = {constants.lambda1_star:.6g} (active: {kind})"
    )
    lines.append(
        f"decay constants: P = {constants.P:.6g}, D = {constants.D:.6g}, "
        f"m0 = {constants.m0:.6g}, tau = {constants.tau:.6g}"
    )
    if "premises" in results:
        held = "holds" if results["premises"]["delta_mdotnu"] else "does NOT hold"
        lines.append(f"premise delta = m.nu (assumed by m0, tau and the decay bound): {held}")
    well = results.get("well")
    if well is not None:
        lines.append(
            f"well invariant: {'held' if well.invariant_held else 'VIOLATED'} "
            f"(max |u|_V = {well.max_norm_u:.6g}, max |v|_V = {well.max_norm_v:.6g}, "
            f"threshold {well.threshold:.6g})"
        )
    eq = results.get("equivalence")
    if eq is not None:
        lines.append(
            f"perturbed-energy equivalence: {'holds' if eq.ok else 'FAILS'} "
            f"(eps1 = {eq.eps1:.6g}, worst low margin {eq.worst_low:.3e}, "
            f"worst high margin {eq.worst_high:.3e})"
        )
    di = results.get("dissipation")
    if di is not None:
        lines.append(
            f"dissipation inequality: {'holds' if di.ok else 'FAILS'} "
            f"(worst residual {di.worst_residual:.3e} vs slack {di.slack:.3e})"
        )
    de = results.get("decay")
    if de is not None:
        lines.append(
            f"decay bound E(t) <= 3 E0 exp(-tau t/3): "
            f"{'holds' if de.bound_satisfied else 'FAILS'} "
            f"(max ratio {de.max_violation_ratio:.6g}, fitted rate "
            f"{de.fitted_rate:.6g} vs tau/3 = {de.tau / 3.0:.6g})"
        )
    return "\n".join(lines)
