"""Independent dense-quadrature oracles for the coupling integrals.

These deliberately avoid the library's assembly path: plain per-element
Python loops over a subdivided quadrature grid, with P1 interpolants
evaluated from barycentric coordinates directly.
"""

from __future__ import annotations

import math

import numpy as np


def _segment_grid(nsub: int, npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts, wts = [], []
    for k in range(nsub):
        pts.append((k + x) / nsub)
        wts.append(w / nsub)
    return np.concatenate(pts), np.concatenate(wts)


def _triangle_grid(nsub: int, npts: int):
    """Reference-triangle quadrature on a uniform nsub^2 sub-triangulation."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    S, T = np.meshgrid(x, x, indexing="ij")
    base_pts = np.column_stack([S.ravel(), (T * (1.0 - S)).ravel()])
    base_wts = (np.outer(w, w) * (1.0 - S)).ravel()  # area 1/2 total
    pts, wts = [], []
    h = 1.0 / nsub
    for i in range(nsub):
        for j in range(nsub - i):
            v0 = np.array([i, j]) * h
            pts.append(v0 + h * base_pts)
            wts.append(base_wts * h * h)
            if j < nsub - i - 1:
                # downward triangle (i+1,j), (i+1,j+1), (i,j+1)
                v0 = np.array([(i + 1) * h, j * h])
                e1 = np.array([0.0, h])
                e2 = np.array([-h, h])
                pts.append(v0 + np.outer(base_pts[:, 0], e1) + np.outer(base_pts[:, 1], e2))
                wts.append(base_wts * h * h)
    return np.vstack(pts), np.concatenate(wts)


def _element_eval(mesh, full_values, nsub, npts):
    """Yield per element: (shape values (nq, nloc), nodal values, weights*jac,
    global points, constant P1 gradients (nloc, dim))."""
    if mesh.dim == 1:
        ref, wts = _segment_grid(nsub, npts)
        shapes = np.column_stack([1.0 - ref, ref])
    else:
        refpts, wts = _triangle_grid(nsub, npts)
        shapes = np.column_stack([1.0 - refpts[:, 0] - refpts[:, 1],
                                  refpts[:, 0], refpts[:, 1]])
    for conn in mesh.elements:
        coords = mesh.vertices[conn]
        if mesh.dim == 1:
            jac = coords[1, 0] - coords[0, 0]
            grads = np.array([[-1.0 / jac], [1.0 / jac]])
            pts = coords[0] + np.outer(ref, coords[1] - coords[0])
        else:
            e1, e2 = coords[1] - coords[0], coords[2] - coords[0]
            jac = e1[0] * e2[1] - e1[1] * e2[0]
            inv = np.array([[e2[1], -e2[0]], [-e1[1], e1[0]]]) / jac
            g1, g2 = inv[0], inv[1]
            grads = np.vstack([-(g1 + g2), g1, g2])
            pts = coords[0] + np.outer(refpts[:, 0], e1) + np.outer(refpts[:, 1], e2)
        yield conn, shapes, full_values[conn] if full_values is not None else None, \
            wts * abs(jac), pts, grads


def dense_coupling_energy(mesh, u_full, v_full, rho, nsub=40, npts=10) -> float:
    total = 0.0
    for conn, shapes, _, w, _, _ in _element_eval(mesh, None, nsub, npts):
        uq = shapes @ u_full[conn]
        vq = shapes @ v_full[conn]
        total += np.sum((np.abs(uq) ** rho * uq) * (np.abs(vq) ** rho * vq) * w)
    return total / (rho + 1.0)


def dense_coupling_vectors(mesh, u_full, v_full, rho, nsub=40, npts=10):
    fu = np.zeros(mesh.n_vertices)
    fv = np.zeros(mesh.n_vertices)
    for conn, shapes, _, w, _, _ in _element_eval(mesh, None, nsub, npts):
        uq = shapes @ u_full[conn]
        vq = shapes @ v_full[conn]
        au, av = np.abs(uq) ** rho, np.abs(vq) ** rho
        fu[conn] += ((au * av * vq) * w) @ shapes
        fv[conn] += ((au * uq * av) * w) @ shapes
    return fu, fv


def dense_multiplier_form(mesh, a_full, b_full, x0, nsub=40, npts=10) -> float:
    """int a_h (m . grad b_h) dx with m = x - x0, by dense quadrature."""
    x0 = np.atleast_1d(np.asarray(x0, float))
    total = 0.0
    for conn, shapes, _, w, pts, grads in _element_eval(mesh, None, nsub, npts):
        aq = shapes @ a_full[conn]
        grad_b = b_full[conn] @ grads  # constant per element, shape (dim,)
        mdotgrad = (pts - x0) @ grad_b
        total += np.sum(aq * mdotgrad * w)
    return total


def dense_lp_norm(mesh, v_full, p, nsub=40, npts=10) -> float:
    total = 0.0
    for conn, shapes, _, w, _, _ in _element_eval(mesh, None, nsub, npts):
        vq = shapes @ v_full[conn]
        total += np.sum(np.abs(vq) ** p * w)
    return total ** (1.0 / p)


# -- scatter-add reference for the quadrature tables --------------------------
# The gather / np.add.at formula over full nodes, restricted to free nodes at
# the end, as the library evaluated it before the tables existed.  The tables
# do the same arithmetic in the same order, so results must agree bitwise.

def scatter_add_coupling(conn, shapes, wdet, ops, u, v, rho):
    """(F_u, F_v, coupling energy) for cells `conn` (full-node indices)."""
    uq = ops.embed(u)[conn] @ shapes.T
    vq = ops.embed(v)[conn] @ shapes.T
    au = np.abs(uq) ** rho
    av = np.abs(vq) ** rho
    fu = np.zeros(ops.n_nodes)
    fv = np.zeros(ops.n_nodes)
    np.add.at(fu, conn, ((au * av * vq) * wdet) @ shapes)
    np.add.at(fv, conn, ((au * uq * av) * wdet) @ shapes)
    integrand = (np.abs(uq) ** rho * uq) * (np.abs(vq) ** rho * vq)
    energy = float(np.sum(integrand * wdet) / (rho + 1.0))
    return fu[ops.free], fv[ops.free], energy


def table_values(table, x):
    """Values (ncells, nq) of the free-node field x at the points of a
    QuadratureTable, gathered through its connectivity (clamped vertices
    sit in slot n_free, which reads as zero) and its shape table."""
    return np.append(x, 0.0)[table.conn] @ table.shapes.T


def scatter_add_lp(conn, shapes, w, ops, x, p):
    """(||x||_{L^p}, gradient of ||.||_p^p / p) over cells `conn`."""
    vq = ops.embed(x)[conn] @ shapes.T
    norm = float(np.sum(np.abs(vq) ** p * w)) ** (1.0 / p)
    g = np.zeros(ops.n_nodes)
    np.add.at(g, conn, (np.abs(vq) ** (p - 2.0) * vq * w) @ shapes)
    return norm, g[ops.free]


# -- per-field reference for the block midpoint step --------------------------
# The implicit-midpoint step as the library wrote it before u and v were
# advanced as one (n, 2) block: two A solves, two coupling vectors and two
# lumped-mass residual scalings per pass.  Same arithmetic per column, so the
# block step must agree bitwise.

def two_solve_step(state, dt, operators, spec, opts):
    from kgwell.assembly import coupling_vectors
    from kgwell.dynamics import SimState, _step_factorizations

    A_lu, weights = _step_factorizations(operators, dt)
    weights = weights[:, 0]  # the weights of u, which v shares
    K, M = operators.KM()

    def apply(mat, x):
        # a column of a two-column product or solve: dense ones round a
        # vector (BLAS level 2) apart from a block (level 3)
        pair = np.column_stack([x, x])
        return (mat.solve(pair) if hasattr(mat, "solve") else mat @ pair)[:, 0]

    u0, v0, p0, q0 = state.u, state.v, state.du, state.dv
    rhs_u = apply(M, p0) - (dt / 2.0) * apply(K, u0)
    rhs_v = apply(M, q0) - (dt / 2.0) * apply(K, v0)

    fu = fv = None
    if spec is not None:
        fu, fv = coupling_vectors((u0, v0), spec, operators)
    for _ in range(opts.max_iter):
        bu = rhs_u if fu is None else rhs_u - (dt / 2.0) * fu
        bv = rhs_v if fv is None else rhs_v - (dt / 2.0) * fv
        p_mid = apply(A_lu, bu)
        q_mid = apply(A_lu, bv)
        if spec is None:
            break
        u_mid = u0 + (dt / 2.0) * p_mid
        v_mid = v0 + (dt / 2.0) * q_mid
        fu_new, fv_new = coupling_vectors((u_mid, v_mid), spec, operators)
        ru = (dt / 2.0) * (fu_new - fu)
        rv = (dt / 2.0) * (fv_new - fv)
        fu, fv = fu_new, fv_new
        res_sq = float(ru @ (weights * ru) + rv @ (weights * rv))
        if np.sqrt(res_sq) < opts.tol:
            break
    else:
        raise RuntimeError("reference midpoint solve did not converge")
    return SimState(state.t + dt, u0 + dt * p_mid, v0 + dt * q_mid,
                    2.0 * p_mid - p0, 2.0 * q_mid - q0)


# -- stored-state reference for the dissipation check -------------------------
# The dissipation loop as the library wrote it when a trajectory kept the
# state of every sample: the midpoint velocities of each pair are formed from
# the two stored states.  The streamed check must agree bitwise.

def stored_state_dissipation(states, operators, m0):
    """(worst residual, worst_t) of dE/dt + m0 (||mid u'||_T^2 + ||mid v'||_T^2)
    over consecutive (SimState, EnergySample) pairs in `states`."""
    def quad(mat, x):
        return float(x @ (mat @ x))

    T = operators.T
    worst = -np.inf
    worst_t = 0.0
    for (sa, ea), (sb, eb) in zip(states[:-1], states[1:]):
        dt_ab = eb.t - ea.t
        dE = (eb.E - ea.E) / dt_ab
        du_mid = 0.5 * (sa.du + sb.du)
        dv_mid = 0.5 * (sa.dv + sb.dv)
        flux = quad(T, du_mid) + quad(T, dv_mid)
        residual = dE + m0 * flux
        if residual > worst:
            worst, worst_t = residual, ea.t
    return worst, worst_t


# -- per-dimension references for the simplex geometry ------------------------
# The segment and triangle rules and the hand-written 1D / 2D cell formulas
# as the library wrote them before one simplex path served every dimension;
# triangles up to degree 6 take Dunavant's symmetric rules, written point by
# point.  The simplex path does the same arithmetic in the same order, so results
# must agree bitwise; the one exception is the 2D facet points, formed here
# as a + t (b - a) and in the library as (1 - t) a + t b.

def segment_rule(degree):
    npts = (degree + 2) // 2
    x, w = np.polynomial.legendre.leggauss(max(npts, 1))
    return 0.5 * (x + 1.0), 0.5 * w


def _s3(w):
    t = 1.0 / 3.0
    return [((t, t), w)]


def _s21(w, a, b):
    """Barycentric (a, b, b) and its permutations, as reference points."""
    return [((b, b), w), ((a, b), w), ((b, a), w)]


def _s111(w, a, b, c):
    """Barycentric (a, b, c) and its permutations, as reference points."""
    return [((b, c), w), ((c, b), w), ((a, c), w), ((c, a), w), ((a, b), w), ((b, a), w)]


# Dunavant's triangle rules (IJNME 21, 1985) point by point, with the
# library's 17-digit orbit values
_DUNAVANT = {
    1: _s3(0.5),
    2: _s21(1 / 6, 0.66666666666666663, 0.16666666666666666),
    4: (_s21(0.11169079483900574, 0.10810301816807023, 0.44594849091596489)
        + _s21(0.054975871827660935, 0.81684757298045851, 0.091576213509770743)),
    5: (_s3(0.1125)
        + _s21(0.066197076394253096, 0.059715871789769823, 0.47014206410511511)
        + _s21(0.06296959027241357, 0.79742698535308731, 0.10128650732345634)),
    6: (_s21(0.058393137863189684, 0.50142650965817914, 0.24928674517091043)
        + _s21(0.025422453185103409, 0.87382197101699555, 0.063089014491502227)
        + _s111(0.041425537809186785, 0.63650249912139867, 0.053145049844816945,
                0.31035245103378439)),
}


def triangle_rule(degree):
    """Dunavant's rule of the lowest tabulated degree >= `degree` up to 6,
    the collapsed Gauss rule above."""
    if degree <= 6:
        rule = _DUNAVANT[min(d for d in _DUNAVANT if d >= degree)]
        return np.array([p for p, _ in rule]), np.array([w for _, w in rule])
    return collapsed_triangle_rule(degree)


def collapsed_triangle_rule(degree):
    q = (degree + 3) // 2
    x, w = np.polynomial.legendre.leggauss(max(q, 1))
    s = 0.5 * (x + 1.0)
    ws = 0.5 * w
    S, T = np.meshgrid(s, s, indexing="ij")
    WS, WT = np.meshgrid(ws, ws, indexing="ij")
    pts = np.column_stack([S.ravel(), (T * (1.0 - S)).ravel()])
    return pts, (WS * WT * (1.0 - S)).ravel()


def p1_shape_segment(pts):
    return np.column_stack([1.0 - pts, pts])


def p1_shape_triangle(pts):
    return np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])


def branched_element_volumes(mesh):
    coords = mesh.vertices[mesh.elements]
    if mesh.dim == 1:
        return coords[:, 1, 0] - coords[:, 0, 0]
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def branched_facet_measures(mesh):
    if mesh.dim == 1:
        return np.ones(mesh.n_facets)
    coords = mesh.vertices[mesh.facets]
    return np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1)


def branched_facet_quadrature(mesh, degree):
    if mesh.dim == 1:
        pts = mesh.vertices[mesh.facets[:, 0]][:, None, :]
        return pts, np.ones((mesh.n_facets, 1)), np.ones((1, 1))
    ref, w = segment_rule(degree)
    a = mesh.vertices[mesh.facets[:, 0]]
    b = mesh.vertices[mesh.facets[:, 1]]
    pts = a[:, None, :] + ref[None, :, None] * (b - a)[:, None, :]
    wts = w[None, :] * branched_facet_measures(mesh)[:, None]
    return pts, wts, np.column_stack([1.0 - ref, ref])


def branched_min_diameter(mesh):
    coords = mesh.vertices[mesh.elements]
    if mesh.dim == 1:
        return float(np.min(coords[:, 1, 0] - coords[:, 0, 0]))
    d01 = np.linalg.norm(coords[:, 0] - coords[:, 1], axis=1)
    d12 = np.linalg.norm(coords[:, 1] - coords[:, 2], axis=1)
    d20 = np.linalg.norm(coords[:, 2] - coords[:, 0], axis=1)
    return float(np.min(np.maximum(np.maximum(d01, d12), d20)))


def branched_element_geometry(mesh):
    """P1 gradients (ne, nloc, dim) and volumes (ne,)."""
    coords = mesh.vertices[mesh.elements]
    vol = branched_element_volumes(mesh)
    if mesh.dim == 1:
        h = vol[:, None, None]
        return np.concatenate([-1.0 / h, 1.0 / h], axis=1), vol
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    det = 2.0 * vol
    g1 = np.column_stack([e2[:, 1], -e2[:, 0]]) / det[:, None]
    g2 = np.column_stack([-e1[:, 1], e1[:, 0]]) / det[:, None]
    return np.stack([-(g1 + g2), g1, g2], axis=1), vol


def branched_element_tables(mesh, degree):
    """(points, wdet, shapes) of the element quadrature."""
    if mesh.dim == 1:
        ref, wts = segment_rule(degree)
        shapes = p1_shape_segment(ref)
    else:
        ref, wts = triangle_rule(degree)
        shapes = p1_shape_triangle(ref)
    coords = mesh.vertices[mesh.elements]
    pts = np.einsum("qk,ekd->eqd", shapes, coords)
    vol = branched_element_volumes(mesh)
    jac = vol if mesh.dim == 1 else 2.0 * vol
    return pts, wts[None, :] * jac[:, None], shapes


# -- the mass and multiplier matrices by volume quadrature -------------------
# The library forms the P1 element matrices in closed form.  Degree-4
# quadrature integrates the quadratic mass and cubic multiplier integrands
# exactly too, so the two agree up to round-off.

#: Degree of the quadrature oracle, exact for the P1 mass and multiplier forms.
VOLUME_ORACLE_DEGREE = 4


def quadrature_volume_matrices(mesh, partition, free):
    """Free-node (M, G) assembled by degree-4 quadrature over the elements."""
    from kgwell.assembly import _element_geometry, _scatter, element_quadrature_tables
    from kgwell.geometry import radial_field

    grads, _ = _element_geometry(mesh.vertices[mesh.elements])
    pts, wdet, shapes = element_quadrature_tables(mesh, VOLUME_ORACLE_DEGREE)
    mfield = np.einsum("eqd,ejd->eqj", radial_field(pts, partition.x0), grads)
    m_local = np.einsum("eq,qi,qj->eij", wdet, shapes, shapes)
    g_local = np.einsum("eq,qi,eqj->eij", wdet, shapes, mfield)

    def restrict(local):
        full = _scatter(mesh.n_vertices, mesh.elements, local)
        return full.tocsc()[:, free].tocsr()[free, :]

    return restrict(m_local), restrict(g_local)


# -- the rectangle mesh as the library built it with a per-cell loop ----------
# The vectorized mesh build must give identical vertex, element, facet and
# normal arrays.

def loop_rectangle_arrays(corner_lo, corner_hi, nx, ny):
    """(vertices, elements, facets, normals) of the structured triangulation,
    each cell split along its lo-to-hi diagonal, cells visited row by row."""
    lo = np.asarray(corner_lo, float)
    hi = np.asarray(corner_hi, float)
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    elems = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            elems.append([v00, v10, v11])
            elems.append([v00, v11, v01])
    facets, normals = [], []
    for i in range(nx):
        facets.append([vid(i, 0), vid(i + 1, 0)])
        normals.append([0.0, -1.0])
        facets.append([vid(i, ny), vid(i + 1, ny)])
        normals.append([0.0, 1.0])
    for j in range(ny):
        facets.append([vid(0, j), vid(0, j + 1)])
        normals.append([-1.0, 0.0])
        facets.append([vid(nx, j), vid(nx, j + 1)])
        normals.append([1.0, 0.0])
    return verts, np.array(elems), np.array(facets), np.array(normals)


# -- energy rows one state at a time, with plain `x @ y` dots -----------------
# The rows as the library formed them before rows were formed for a batch of
# states: each dot on separate contiguous vectors.  Batched rows must agree
# bitwise.

def per_state_row(state, operators, spec, before=None):
    """(t, kinetic, potential, coupling, E, psi, |u|_V, |v|_V, |u'|, |v'|,
    u'.B u', v'.B v') of one state, and the T form of the velocities'
    average with those of the state `before` (0.0 without one)."""
    from kgwell.assembly import coupling_energy

    def dot(mat, x, y):
        return float(x @ np.ascontiguousarray((mat @ np.column_stack([y, y]))[:, 0]))

    ops = operators
    u, v, du, dv = state.u, state.v, state.du, state.dv
    K, M = ops.KM()  # as the state's Evaluation applies them
    ku, kv = dot(K, u, u), dot(K, v, v)
    mu, mv = dot(M, du, du), dot(M, dv, dv)
    coup = 0.0 if spec is None else coupling_energy((u, v), spec, ops)
    psi = 2.0 * dot(ops.G, du, u) + 2.0 * dot(ops.G, dv, v)
    if ops.mesh.dim != 1:
        psi += (ops.mesh.dim - 1) * (dot(ops.M, du, u) + dot(ops.M, dv, v))
    kinetic, potential = 0.5 * (mu + mv), 0.5 * (ku + kv)
    row = (state.t, kinetic, potential, coup, kinetic + potential + coup, psi,
           np.sqrt(max(ku, 0.0)), np.sqrt(max(kv, 0.0)),
           np.sqrt(max(mu, 0.0)), np.sqrt(max(mv, 0.0)),
           dot(ops.B, du, du), dot(ops.B, dv, dv))
    flux = 0.0
    if before is not None:
        mid_u, mid_v = 0.5 * (before.du + du), 0.5 * (before.dv + dv)
        flux = dot(ops.T, mid_u, mid_u) + dot(ops.T, mid_v, mid_v)
    return row, flux


# -- trajectory outputs one row object at a time ------------------------------
# The CSV writer, the four checks and the plot as the library wrote them
# when a trajectory was a list of TrajectoryPoint rows: Python floats, one
# sample per loop pass.  Columnar outputs must agree byte for byte.

def row_write_trajectory_csv(trajectory, constants, path) -> None:
    from kgwell.dynamics import CSV_COLUMNS

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


def _row_times(trajectory):
    return np.array([p.energy.t for p in trajectory.samples])


def _row_energies(trajectory):
    return np.array([p.energy.E for p in trajectory.samples])


def row_check_equivalence(trajectory, constants):
    from kgwell.diagnostics import NEAR_ZERO_SLACK, EquivalenceReport

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


def row_check_dissipation(trajectory, m0, slack=None):
    from kgwell.diagnostics import DissipationReport, require_fine_sampling

    samples = trajectory.samples
    if len(samples) < 2:
        raise ValueError("need at least two samples for a dissipation check")
    gaps = np.diff(_row_times(trajectory))
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


def row_check_decay_bound(trajectory, constants):
    from kgwell.diagnostics import NEAR_ZERO_SLACK, DecayReport

    times = _row_times(trajectory)
    energies = _row_energies(trajectory)
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


def row_well_monitor(trajectory, constants):
    from kgwell.diagnostics import WellReport

    threshold, kind = constants.threshold()
    mu = max(p.energy.norm_u_V for p in trajectory.samples)
    mv = max(p.energy.norm_v_V for p in trajectory.samples)
    return WellReport(
        max_norm_u=mu, max_norm_v=mv, threshold=threshold,
        threshold_kind=kind, invariant_held=bool(mu < threshold and mv < threshold),
    )


def row_plot_series(trajectory, wc):
    """The (xs, ys, label) lists kgwell run plotted."""
    times = _row_times(trajectory)
    energies = _row_energies(trajectory)
    floor = 1e-300
    log_e = [math.log10(max(e, floor)) for e in energies]
    series = [(times.tolist(), log_e, "log10 E(t)")]
    e0 = energies[0]
    if e0 > 0:
        rate = wc.tau / 3.0
        bound = [math.log10(3.0 * e0) - rate * t / math.log(10.0) for t in times]
        series.append((times.tolist(), bound, "log10 bound"))
    return series


def list_line_plot(path, series, title="", xlabel="", ylabel="") -> None:
    """svgplot.line_plot over Python lists, the polylines joined in memory."""
    from kgwell.svgplot import _COLORS, HEIGHT, WIDTH, _ticks

    margin = 64
    xs_all = [x for xs, _, _ in series for x in xs]
    ys_all = [y for _, ys, _ in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * margin)

    def py(y):
        return HEIGHT - margin - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{WIDTH - 2 * margin}" '
        f'height="{HEIGHT - 2 * margin}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="{margin / 2}" text-anchor="middle" '
                     f'font-size="16">{title}</text>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{HEIGHT - margin}" '
                     f'x2="{px(tx):.1f}" y2="{HEIGHT - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{HEIGHT - margin + 18}" '
                     f'text-anchor="middle" font-size="11">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{margin - 5}" y1="{py(ty):.1f}" '
                     f'x2="{margin}" y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{py(ty):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-size="11">{ty:g}</text>')
    if xlabel:
        parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
                     f'font-size="13">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" '
                     f'font-size="13" transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>')
    for idx, (xs, ys, label) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y)
        )
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        if label:
            ly = margin + 18 + 16 * idx
            parts.append(f'<line x1="{WIDTH - margin - 120}" y1="{ly - 4}" '
                         f'x2="{WIDTH - margin - 96}" y2="{ly - 4}" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            parts.append(f'<text x="{WIDTH - margin - 90}" y="{ly}" '
                         f'font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
