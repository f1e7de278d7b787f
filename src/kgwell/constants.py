"""Constants controlling the potential well and the decay estimate.

Everything here reduces to linear algebra on the assembled operators:

* lambda1: smallest eigenvalue of K x = lambda M x (clamped nodes removed);
* c0, c1: discrete best constants of the volume embeddings
  ||v||_{L^p(Omega)} <= c ||v||_V for p = 2(rho+1) and p = 4;
* c2, c3: discrete best constants of the boundary traces
  ||w||_{L^p(Gamma1)} <= c ||w||_V for p = 4 and p = 2;
* the derived well thresholds (N, lambda_star) and (N1, lambda1_star),
  the perturbation bound P, the boundary flux coefficient D and the decay
  rate tau = min(1/(2P), m0/D).

The L^p norms of the embedding constants are integrated by a volume table
of degree embedding_degree(p): p itself when p is an even integer, since
|v|^p is then a polynomial of degree p on P1 elements (c1 takes the
symmetric 6-point triangle rule of degree 4), and max(4, ceil(p) + 2)
otherwise.

The best constants are maximized over the finite-element space only, so
they are lower bounds for their continuum counterparts; callers inflate
them by a safety factor (default SAFETY) before forming thresholds, which
shrinks the admissible ball and keeps the well test conservative.

Setup-only state ends with setup: compute_well_constants factors K once
(assembly.factor_spd: K is symmetric positive definite once the clamped
nodes are removed), as a local that the eigenpair's shift-invert solve
(above _DENSE_EIG_LIMIT free nodes) and every best-constant iteration share,
and the volume tables of the embedding constants and the GAMMA1 table of the
trace constants are built per call, so none of them outlives the
computation.  The operators keep only the first eigenpair, not the K factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import (DiscreteOperators, QuadratureTable, factor_spd, gamma1_table,
                       volume_table)

_DENSE_EIG_LIMIT = 400

#: Largest normwise backward error of an accepted first eigenpair.  The
#: solvers' own pairs measure 1.2e-16 to 1.3e-15 (1D with 20 to 6400 elements,
#: squares 6^2 to 256^2); a random 1e-8 relative perturbation of the vector
#: measures 4.3e-9 to 6.5e-9 on the same meshes.
EIGENPAIR_BACKWARD_ERROR = 1e-12

#: A best-constant iteration stops once its quotient moves less than
#: BEST_CONSTANT_TOL, and fails after BEST_CONSTANT_MAX_ITER K-solves.
BEST_CONSTANT_TOL = 1e-9
BEST_CONSTANT_MAX_ITER = 500

#: Default inflation of the discrete best constants c0..c3.
SAFETY = 1.1


class SetupError(Exception):
    """Numerical setup failed (singular operators, eigensolver trouble, a
    best-constant iteration that does not settle within its cap)."""


def _require_constrained(operators: DiscreteOperators):
    if len(operators.partition.gamma0_facets) == 0:
        raise SetupError(
            "no clamped boundary part: the gradient form is only a seminorm, "
            "so eigenvalues and embedding constants are not defined"
        )


def _factor_K(operators: DiscreteOperators, lu_K=None):
    """lu_K, or a new factor_spd of K when it is None; SetupError without a
    clamped part, or for an exactly singular K."""
    _require_constrained(operators)
    if lu_K is not None:
        return lu_K
    try:
        return factor_spd(operators.K)
    except RuntimeError as exc:  # exactly singular
        raise SetupError(f"eigensolver failed: {exc}") from exc


def first_eigenpair(operators: DiscreteOperators, lu_K=None) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of K x = lambda M x, checked by its backward error,
    solved once per operators and cached (the vector is read-only).  lu_K is
    a factor_spd factor of K for the shift-invert solves; without it, K is
    factored for them and the factor dropped.  The dense path needs no
    factor and makes none."""
    return operators.cache(("eigenpair",), lambda: _solve_first_eigenpair(operators, lu_K))


def _solve_first_eigenpair(operators: DiscreteOperators, lu_K) -> tuple[float, np.ndarray]:
    """The solver's own pair (dense eigh up to _DENSE_EIG_LIMIT free nodes,
    shift-invert eigsh above, with lu_K or a factor made for it), accepted by
    _require_accurate_eigenpair."""
    K, M = operators.K, operators.M
    n = operators.n_free
    dense = n <= _DENSE_EIG_LIMIT
    _require_constrained(operators)
    lu = None if dense else _factor_K(operators, lu_K)
    try:
        if dense:
            vals, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
        else:
            # shift-invert at sigma = 0 with the K factor, so eigsh does not
            # factor K again
            OPinv = spla.LinearOperator(K.shape, matvec=lu.solve, dtype=float)
            vals, vecs = spla.eigsh(K, k=1, M=M, sigma=0.0, which="LM",
                                    v0=np.ones(n), OPinv=OPinv)
        lam, x = float(vals[0]), vecs[:, 0]
    except Exception as exc:  # singular mass/stiffness surfaces here
        raise SetupError(f"eigensolver failed: {exc}") from exc
    if not (np.isfinite(lam) and lam > 0):
        raise SetupError(f"first eigenvalue {lam} is not positive")
    _require_accurate_eigenpair(K, M, lam, x)
    # deterministic sign: largest |entry| positive; copy drops the eigh matrix
    x = -x if x[np.argmax(np.abs(x))] < 0 else x.copy()
    x.setflags(write=False)
    return lam, x


def _require_accurate_eigenpair(K, M, lam: float, x: np.ndarray) -> None:
    """Reject (lam, x) unless its normwise backward error
    ||K x - lam M x|| / ((||K||_1 + |lam| ||M||_1) ||x||) (Higham & Higham,
    SIAM J. Matrix Anal. Appl. 20, 1998) is below EIGENPAIR_BACKWARD_ERROR.
    Unlike ||K x - lam M x|| / ||M x||, it has no roundoff floor that grows
    as the mesh is refined."""
    scale = (spla.norm(K, 1) + abs(lam) * spla.norm(M, 1)) * np.linalg.norm(x)
    error = float(np.linalg.norm(K @ x - lam * (M @ x)) / scale)
    if not error < EIGENPAIR_BACKWARD_ERROR:
        raise SetupError(f"eigenpair backward error {error:.3e} exceeds "
                         f"{EIGENPAIR_BACKWARD_ERROR:g}")


def quadratic_norm(A, x: np.ndarray) -> float:
    """sqrt(x A x) for a symmetric positive semidefinite A (K gives the
    V-norm, M the L2 norm), with a round-off negative x A x read as 0."""
    return math.sqrt(max(float(x @ (A @ x)), 0.0))


def _lp(table: QuadratureTable, x: np.ndarray, p: float):
    """(||v_h||_{L^p} over the table's cells, gradient of ||.||_p^p / p wrt
    coefficients)."""
    def kernel(vq):
        return (np.abs(vq) ** p,), (np.abs(vq) ** (p - 2.0) * vq,)

    (total,), (grad,) = table.reduce((x,), kernel)
    return float(total) ** (1.0 / p), grad


def _best_constant(operators: DiscreteOperators, norm_and_grad, lu_K):
    """Maximize ||v||_X / ||v||_V over the FE space by inverse iteration on
    the optimality system K v = mu * grad(||v||_X^p / p); one K-solve per
    iterate (with lu_K, or a factor made for this call), stopping when the
    quotient moves less than BEST_CONSTANT_TOL."""
    lu = _factor_K(operators, lu_K)
    _, v = first_eigenpair(operators, lu)
    v = v / quadratic_norm(operators.K, v)
    quotient, g = norm_and_grad(v)
    for _ in range(BEST_CONSTANT_MAX_ITER):
        gnorm = np.linalg.norm(g)
        if gnorm == 0.0:
            raise SetupError("optimality gradient vanished; trivial trace?")
        w = lu.solve(g)
        nv = quadratic_norm(operators.K, w)
        if not np.isfinite(nv) or nv == 0.0:
            raise SetupError("iteration produced a degenerate iterate")
        v = w / nv
        new_quotient, g = norm_and_grad(v)
        done = abs(new_quotient - quotient) < BEST_CONSTANT_TOL
        quotient = new_quotient
        if done:
            return quotient, v
    raise SetupError(
        f"best-constant iteration did not converge within {BEST_CONSTANT_MAX_ITER} iterations")


def embedding_degree(p: float) -> int:
    """Quadrature degree of the L^p norm in embedding_constant.  For an even
    integer p, |v|^p and |v|^(p-2) v phi_i are polynomials of degree p on P1
    elements, and that degree is exact; any other p takes max(4, ceil(p) + 2)."""
    if p % 2 == 0:
        return int(p)
    return max(4, math.ceil(p) + 2)


def embedding_constant(operators: DiscreteOperators, p: float, lu_K=None) -> float:
    """Discrete best constant of ||v||_{L^p(Omega)} <= c ||v||_V, with the
    factor_spd factor lu_K of K if given.

    Lower bound for the continuum constant (the maximum runs over the FE
    space only); inflate before deriving thresholds from it.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    table = volume_table(operators, embedding_degree(p))
    c, _ = _best_constant(operators, lambda x: _lp(table, x, p), lu_K)
    return c


def trace_constant(operators: DiscreteOperators, p: float, lu_K=None) -> float:
    """Discrete best constant of ||w||_{L^p(Gamma1)} <= c ||w||_V, with the
    factor_spd factor lu_K of K if given."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if len(operators.partition.gamma1_facets) == 0:
        raise ValueError("damped boundary part is empty")
    table = gamma1_table(operators)
    c, _ = _best_constant(operators, lambda x: _lp(table, x, p), lu_K)
    return c


@dataclass(frozen=True)
class WellConstants:
    """Every constant of the well and decay machinery for one configuration.

    c0..c3 are the embedding/trace constants as used in the formulas (already
    inflated when a safety factor was requested); N/lambda_star gate the
    general-exponent well, N1/lambda1_star the quadratic-coupling (rho = 1)
    well; tau is the guaranteed exponential decay rate of the energy bound
    E(t) <= 3 E(0) exp(-tau t / 3).
    """

    rho: float
    dim: int
    c0: float
    c1: float
    c2: float
    c3: float
    lambda1: float
    R: float
    m0: float
    N: float
    lambda_star: float
    N1: float
    lambda1_star: float
    P: float
    D: float
    tau: float
    safety: float = 1.0

    def threshold(self) -> tuple[float, str]:
        """(threshold, kind) of the active well: the rho = 1 (regular) set
        for the regular/decay harness, the general set otherwise.  The one
        place that choice is made; admissibility, initial amplitudes, the
        well margins of trajectory.csv and the well monitor all take it from
        here."""
        if self.rho == 1.0:
            return self.lambda1_star, "regular"
        return self.lambda_star, "general"


def well_constants(rho: float, n: int, c0: float, c1: float, c2: float,
                   c3: float, lambda1: float, R: float, m0: float,
                   safety: float = 1.0) -> WellConstants:
    """Evaluate the threshold and decay formulas.

    N       = c0^(2(rho+1)) / (2(rho+1))
    lambda* = (1/(4N))^(1/(2 rho))
    N1      = (c1^4/2)(n + 1/4) + R c2^4 / 2 + c1^4 (n - 1)
    lambda1*= (1/(4 N1))^(1/2)
    P       = 4 (2R + (n-1)/2 + (n-1)/(2 lambda1))
    D       = R^3 + R + R^2 (n-1)^2 c3^2
    tau     = min(1/(2P), m0/D)
    """
    inputs = dict(rho=rho, c0=c0, c1=c1, c2=c2, c3=c3, lambda1=lambda1, R=R, m0=m0)
    for name, val in inputs.items():
        if not (np.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    if n < 1:
        raise ValueError("n must be at least 1")
    N = c0 ** (2 * (rho + 1)) / (2 * (rho + 1))
    lambda_star = (1.0 / (4.0 * N)) ** (1.0 / (2.0 * rho))
    N1 = (c1 ** 4 / 2.0) * (n + 0.25) + R * c2 ** 4 / 2.0 + c1 ** 4 * (n - 1)
    lambda1_star = (1.0 / (4.0 * N1)) ** 0.5
    P = 4.0 * (2.0 * R + (n - 1) / 2.0 + (n - 1) / (2.0 * lambda1))
    D = R ** 3 + R + R ** 2 * (n - 1) ** 2 * c3 ** 2
    tau = min(1.0 / (2.0 * P), m0 / D)
    return WellConstants(
        rho=rho, dim=n, c0=c0, c1=c1, c2=c2, c3=c3, lambda1=lambda1, R=R,
        m0=m0, N=N, lambda_star=lambda_star, N1=N1,
        lambda1_star=lambda1_star, P=P, D=D, tau=tau, safety=safety,
    )


def compute_well_constants(operators: DiscreteOperators, rho: float,
                           safety: float = SAFETY) -> WellConstants:
    """Full pipeline: eigenvalue, embedding/trace constants (inflated by
    `safety`), then the threshold formulas; dimension, R and m0 come from
    the operators' mesh and boundary partition.  K is factored once here, by
    _factor_K (assembly.factor_spd), and the factor is freed on return; the
    eigenpair's shift-invert solves and every best-constant iterate use it."""
    lu = _factor_K(operators)
    lam1, _ = first_eigenpair(operators, lu)
    p0 = 2.0 * (rho + 1.0)
    c1 = embedding_constant(operators, 4.0, lu_K=lu)
    c0 = c1 if p0 == 4.0 else embedding_constant(operators, p0, lu_K=lu)
    c2 = trace_constant(operators, 4.0, lu_K=lu)
    c3 = trace_constant(operators, 2.0, lu_K=lu)
    part = operators.partition
    return well_constants(
        rho, operators.mesh.dim, safety * c0, safety * c1, safety * c2, safety * c3,
        lam1, part.R, part.m0, safety=safety,
    )


def well_function(lam: float, N: float, rho: float) -> float:
    """Well profile J(lambda) = lambda^2 / 4 - N lambda^(2(rho+1)).

    Positive on (0, lambda_star), zero at lambda_star, negative beyond.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return 0.25 * lam ** 2 - N * lam ** (2.0 * (rho + 1.0))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Smallness check on initial data: both displacement norms below the
    threshold and the energy-like functional L below threshold^2 / 4."""

    L: float
    norm_u0: float
    norm_v0: float
    vel_u1: float
    vel_v1: float
    threshold: float
    threshold_kind: str
    norms_below_threshold: bool
    L_below_quarter_threshold_sq: bool

    @property
    def admissible(self) -> bool:
        return self.norms_below_threshold and self.L_below_quarter_threshold_sq


def admissibility(u0, v0, u1, v1, constants: WellConstants,
                  operators: DiscreteOperators) -> AdmissibilityReport:
    """Evaluate the well-entry conditions for the given coefficient data in
    the active well (WellConstants.threshold): L takes N1 and fourth powers
    in the regular set, N and 2(rho+1)-th powers in the general set.

    The V-norm is sqrt(x K x) and the L2 norm sqrt(x M x).
    """
    lam, kind = constants.threshold()
    K, M = operators.K, operators.M
    nu0, nv0 = quadratic_norm(K, u0), quadratic_norm(K, v0)
    au1, av1 = quadratic_norm(M, u1), quadratic_norm(M, v1)
    kinetic = 0.5 * (au1 ** 2 + av1 ** 2)
    potential = 0.5 * (nu0 ** 2 + nv0 ** 2)
    if kind == "regular":
        L = kinetic + potential + constants.N1 * (nu0 ** 4 + nv0 ** 4)
    else:
        q = 2.0 * (constants.rho + 1.0)
        L = kinetic + potential + constants.N * (nu0 ** q + nv0 ** q)
    return AdmissibilityReport(
        L=L, norm_u0=nu0, norm_v0=nv0, vel_u1=au1, vel_v1=av1,
        threshold=lam, threshold_kind=kind,
        norms_below_threshold=bool(nu0 < lam and nv0 < lam),
        L_below_quarter_threshold_sq=bool(L < 0.25 * lam ** 2),
    )


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    applies: bool
    satisfied: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    rho: float
    n: int
    theta: float | None
    regimes: tuple[RegimeCheck, ...]

    @property
    def valid(self) -> bool:
        return any(r.satisfied for r in self.regimes)

    def lines(self):
        out = [f"rho={self.rho:g} n={self.n} theta="
               + ("none" if self.theta is None else f"{self.theta:g}")]
        for r in self.regimes:
            status = "ok" if r.satisfied else ("fails" if r.applies else "n/a")
            out.append(f"  {r.name:26s} {status:5s} {r.detail}")
        out.append(f"  overall: {'valid' if self.valid else 'no regime satisfied'}")
        return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def validate_hypotheses(rho: float, n: int, theta: float | None = None) -> ValidationReport:
    """Arithmetic check of which existence/regularity regime (rho, n, theta)
    falls in.  Out-of-range pairs yield 'no regime', not an error."""
    if n < 1:
        raise ValueError("n must be at least 1")
    regimes = []

    applies = n <= 2
    if not applies:
        sat, detail = False, "needs n <= 2"
    elif rho <= 0:
        sat, detail = False, "needs rho > 0"
    elif theta is None:
        sat = True
        detail = f"any theta > max(1, 1/(4 rho)) = {max(1.0, 1.0 / (4 * rho)):g} works"
    else:
        sat = theta > 1.0 and 4.0 * rho * theta >= 1.0
        detail = f"needs theta > 1 and 4 rho theta >= 1; got 4 rho theta = {4 * rho * theta:g}"
    regimes.append(RegimeCheck("low_dimension", applies, applies and sat, detail))

    applies = 3 <= n <= 6
    if applies:
        lo, hi = (n + 2) / (8 * n), (n + 2) / (4 * (n - 2))
        sat = lo <= rho <= hi
        detail = f"needs {lo:g} <= rho <= {hi:g}"
    else:
        sat, detail = False, "needs 3 <= n <= 6"
    regimes.append(RegimeCheck("intermediate_dimension", applies, applies and sat, detail))

    applies = 7 <= n <= 11
    if applies:
        rho_req, theta_req = 2.0 / (n - 2), n / (n - 2)
        sat = _close(rho, rho_req) and (theta is None or _close(theta, theta_req))
        detail = f"requires rho = {rho_req:g} and theta = {theta_req:g}"
    else:
        sat, detail = False, "needs 7 <= n <= 11"
    regimes.append(RegimeCheck("high_dimension", applies, applies and sat, detail))

    applies = n <= 3
    sat = (_close(rho, 1.0) and n <= 3) or (rho > 1.0 and n <= 2)
    detail = "regular solutions and decay: rho = 1 with n <= 3, or rho > 1 with n <= 2"
    regimes.append(RegimeCheck("regular_decay", applies, sat, detail))

    return ValidationReport(rho=rho, n=n, theta=theta, regimes=tuple(regimes))
