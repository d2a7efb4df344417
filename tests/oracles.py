"""Independent reference implementations used to check the solvers.

Everything here is deliberately written from the textbook definitions and
shares no solver code with the package: a finite-horizon Riccati recursion, a
linear/quadratic problem wrapper for the iLQR interface, brute-force
geometric helpers, the ellipse's center and shape-matrix form, a copy of a
trajectory with one entry moved (for finite differences), the consensus
blocks of a trajectory, the iLQR backward and forward passes written
stamp by stamp on small arrays (they borrow only the package's result and
error types and its fixed regularization constants), the bicycle step and a
trajectory's one-step dynamics residual, and the worst constraint value of a
trajectory from a constraint set's inputs. The exceptions are
`keepout_at` and `keepout_gradient_at`, a constraint set's keep-out values and
gradients at any time indices: they borrow the set's ellipse-frame offsets
(`ConstraintSet._offsets`) and are the per-stamp reference that the stacked
evaluator must equal bit for bit; `frame_project_timestep`, the cyclic
keep-out projection on numpy ellipse frames: it is the array form of
`project_timestep` and borrows its single-ellipse boundary solve and
`keepout_at`; and `column_barrier_values` and `column_barrier_expansion`,
the log barrier's terms formed one constraint column at a time, which read
the barrier cost's base cost and constraint set.
`closure_nearest_boundary_point` is a frozen copy of the single-ellipse
boundary solve as it was first written, with its Newton step in a closure,
kept so that rewrites of the solve can be checked against it bit for bit.
"""

import functools
import math
import warnings

import numpy as np

from admmplan.constraints import (
    AXIS_TOL,
    FEASIBILITY_TOL,
    MAX_PROJECTION_SWEEPS,
    PROJECTION_TOL,
    _nearest_boundary_point,
)
from admmplan.errors import DegenerateProjection, NonConvergence, RegularizationExhausted
from admmplan.ilqr import MU_GROWTH, MU_MAX, Trajectory


class LinearDynamics:
    """x' = A x + B u, exposing the solver's dynamics protocol."""

    def __init__(self, A, B):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)

    def step(self, x, u):
        return (self.A @ x + self.B @ u).tolist()

    def jacobians(self, X, U):
        T = len(X)
        return np.tile(self.A, (T, 1, 1)), np.tile(self.B, (T, 1, 1))


class QuadraticCost:
    """Stage cost x'Qx + u'Ru with terminal x'Qf x, over whole trajectories."""

    def __init__(self, Q, R, Qf):
        self.Q = np.asarray(Q, dtype=float)
        self.R = np.asarray(R, dtype=float)
        self.Qf = np.asarray(Qf, dtype=float)

    def values(self, traj):
        X, U = traj.states, traj.controls
        stages = [float(x @ self.Q @ x + u @ self.R @ u) for x, u in zip(X, U)]
        return np.array(stages + [float(X[-1] @ self.Qf @ X[-1])])

    def expand(self, traj):
        X, U = traj.states, traj.controls
        T = len(U)
        weights = np.concatenate([np.tile(self.Q, (T, 1, 1)), self.Qf[None]])
        l_xx = 2.0 * weights
        l_x = np.einsum("tij,tj->ti", l_xx, X)
        l_uu = 2.0 * np.tile(self.R, (T, 1, 1))
        l_u = np.einsum("tij,tj->ti", l_uu, U)
        return l_x, l_u, l_xx, l_uu


def nudged(traj: Trajectory, part: int, index, delta: float) -> Trajectory:
    """A new trajectory with entry `index` of traj's states (part 0) or
    controls (part 1) moved by delta."""
    arrays = [traj.states.copy(), traj.controls.copy()]
    arrays[part][index] += delta
    return Trajectory(*arrays)


def gain_rows(k, K):
    """The solver's float gain rows (K[0], k[0], K[1], k[1]) of (T, 2) k and (T, 2, 4) K."""
    k, K = np.asarray(k, dtype=float), np.asarray(K, dtype=float)
    return np.concatenate([K, k[:, :, None]], axis=2).reshape(len(k), -1).tolist()


def gain_arrays(rows):
    """The (T, 2) k and (T, 2, 4) K of the solver's float gain rows."""
    G = np.array(rows, dtype=float).reshape(-1, 2, 5)
    return G[:, :, 4], G[:, :, :4]


def riccati_optimal(A, B, Q, R, Qf, x0, horizon):
    """Finite-horizon LQR solution by backward Riccati recursion.

    Conventions match QuadraticCost (no 1/2 factors). Returns the optimal
    cost, the per-stamp feedback gains (u = -K x), and the optimal
    state/control trajectories from x0.
    """
    A, B = np.asarray(A, float), np.asarray(B, float)
    Q, R, Qf = np.asarray(Q, float), np.asarray(R, float), np.asarray(Qf, float)
    P = Qf.copy()
    gains = []
    for _ in range(horizon):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P = Q + A.T @ P @ (A - B @ K)
        P = 0.5 * (P + P.T)
        gains.append(K)
    gains.reverse()
    xs = [np.asarray(x0, float)]
    us = []
    for K in gains:
        us.append(-K @ xs[-1])
        xs.append(A @ xs[-1] + B @ us[-1])
    cost = float(xs[0] @ P @ xs[0])
    return cost, gains, np.array(xs), np.array(us)


def random_lqr_instance(rng, n=4, m=2, spectral_radius=0.95):
    """A random controllable-ish stable LQR instance with SPD weights."""
    A = rng.normal(size=(n, n))
    A *= spectral_radius / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, m))
    L = rng.normal(size=(n, n))
    Q = L @ L.T / n + 0.1 * np.eye(n)
    Lr = rng.normal(size=(m, m))
    R = Lr @ Lr.T / m + 0.2 * np.eye(m)
    Lf = rng.normal(size=(n, n))
    Qf = Lf @ Lf.T / n + 0.1 * np.eye(n)
    x0 = rng.normal(size=n)
    return A, B, Q, R, Qf, x0


def dense_ellipse_boundary(center, heading, semi_major, semi_minor, samples):
    """Uniformly sampled boundary points of a rotated ellipse."""
    phi = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    pts = np.column_stack([semi_major * np.cos(phi), semi_minor * np.sin(phi)])
    c, s = np.cos(heading), np.sin(heading)
    rot = np.array([[c, -s], [s, c]])
    return pts @ rot.T + np.asarray(center, dtype=float)


def nearest_on_boundary(point, boundary):
    """Closest point among a dense boundary sample."""
    d = boundary - np.asarray(point, dtype=float)
    return boundary[np.argmin(np.einsum("ij,ij->i", d, d))]


def center_at(obstacle, tau: int, timestep: float) -> np.ndarray:
    """Center of a keep-out obstacle at time index tau."""
    return np.array(obstacle.center0) + tau * timestep * np.array(obstacle.velocity)


def _rotation(heading: float) -> np.ndarray:
    c, s = math.cos(heading), math.sin(heading)
    return np.array([[c, -s], [s, c]])


def ellipse_shape(heading: float, semi_major: float, semi_minor: float) -> np.ndarray:
    """Symmetric positive-definite quadratic form of a rotated ellipse.

    The returned 2x2 matrix A satisfies (p - c)' A (p - c) = 1 on the
    boundary of the ellipse with the given semi-axes rotated by `heading`.
    """
    if semi_major <= 0 or semi_minor <= 0:
        raise ValueError("semi-axes must be positive")
    rot = _rotation(heading)
    return rot @ np.diag([semi_major**-2, semi_minor**-2]) @ rot.T


def _stamp_offsets(constraints, tau, p, heading):
    """`ConstraintSet._offsets` at time indices tau (...), with the obstacle
    centers moved to each stamp from the obstacles' own fields."""
    t = (np.asarray(tau) * constraints.timestep)[..., None]
    center0 = np.array([obs.center0 for obs in constraints.obstacles]).reshape(-1, 2)
    velocity = np.array([obs.velocity for obs in constraints.obstacles]).reshape(-1, 2)
    centers = center0[:, 0] + t * velocity[:, 0], center0[:, 1] + t * velocity[:, 1]
    return constraints._offsets(centers, p, heading)


def keepout_at(constraints, tau, p, heading=0.0) -> np.ndarray:
    """Keep-out values g (..., obstacles) of a constraint set at time indices
    tau (...), positions p (..., 2) and headings (...)."""
    along, across = _stamp_offsets(constraints, tau, p, heading)[:2]
    return 1.0 - along**2 - across**2


def keepout_gradient_at(constraints, tau, p, heading=0.0) -> np.ndarray:
    """Position gradients dg/dp (..., obstacles, 2) of `keepout_at`; with the
    ego heading, which turns the ellipse frame, dg/dheading in a third column."""
    along, across, c, s = _stamp_offsets(constraints, tau, p, heading)
    a = np.array([obs.semi_major for obs in constraints.obstacles])
    b = np.array([obs.semi_minor for obs in constraints.obstacles])
    ga, gb = -2.0 * along / a, -2.0 * across / b
    columns = [c * ga - s * gb, s * ga + c * gb]
    if constraints.use_ego_heading:
        columns.append(2.0 * along * across * (a / b - b / a))
    return np.stack(columns, axis=-1)


def consensus_blocks(traj: Trajectory) -> np.ndarray:
    """Consensus blocks (px, py, steer, accel) per stamp, (T+1, 4), with
    zeros in the final stamp's control slots; a fresh, writable array."""
    controls = np.vstack([traj.controls, np.zeros((1, 2))])
    return np.hstack([traj.states[:, :2], controls])


def _project_with_frame(p, center, rot, a, b) -> np.ndarray:
    """Nearest boundary point for an interior p, in a known ellipse frame."""
    # Elementwise products, not a matmul, which may fuse multiply-adds: on a
    # target whose cyclic projection amplifies rounding noise (one on the line
    # of centers of two overlapping circles), any rounding that differs from
    # project_timestep's grows into a different answer.
    q = (rot.T * (p - center)).sum(axis=1)
    if abs(q[0]) <= AXIS_TOL * a and abs(q[1]) <= AXIS_TOL * b:
        warnings.warn(
            "projection target is the ellipse center; returning the "
            "minor-axis boundary point",
            DegenerateProjection,
        )
        return center + b * rot[:, 1]
    # Fold into the closed first quadrant, solve, unfold.
    sx = 1.0 if q[0] >= 0.0 else -1.0
    sy = 1.0 if q[1] >= 0.0 else -1.0
    nx, ny = _nearest_boundary_point(sx * q[0], sy * q[1], a, b)
    return center + (rot * [sx * nx, sy * ny]).sum(axis=1)


def closure_nearest_boundary_point(qx, qy, a, b):
    """`admmplan.constraints._nearest_boundary_point` with its value and
    slope F(t), F'(t) in a closure, operation for operation."""
    if abs(qy) <= AXIS_TOL * b:
        cusp = (a * a - b * b) / a
        if abs(qx) >= cusp:
            return math.copysign(a, qx), 0.0
        x = a * a * qx / (a * a - b * b)
        return x, b * math.sqrt(max(0.0, 1.0 - (x / a) ** 2))

    fa2 = (a * qx) ** 2
    fb2 = (b * qy) ** 2

    def value_slope(t):
        ga, gb = a * a + t, b * b + t
        val = fa2 / (ga * ga) + fb2 / (gb * gb) - 1.0
        slope = -2.0 * (fa2 / (ga**3) + fb2 / (gb**3))
        return val, slope

    lo, hi = -b * b, 0.0
    t = -b * b + b * abs(qy)
    for _ in range(200):
        val, slope = value_slope(t)
        if abs(val) < PROJECTION_TOL:
            break
        if val > 0.0:
            lo = t
        else:
            hi = t
        t_new = t - val / slope
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        t = t_new
    return a * a * qx / (a * a + t), b * b * qy / (b * b + t)


def frame_project_timestep(position, constraints, tau: int,
                           ego_heading: float = 0.0) -> np.ndarray:
    """`project_timestep` on numpy ellipse frames: the obstacle's center at
    tau and a 2x2 rotation map the point into and out of each ellipse's
    frame, and every move is re-checked with `keepout_at`."""
    p = np.array(position, dtype=float)
    g = keepout_at(constraints, tau, p, ego_heading)
    for _ in range(MAX_PROJECTION_SWEEPS + 1):
        clean = True
        for k, obs in enumerate(constraints.obstacles):
            if g[k] > FEASIBILITY_TOL:
                rot = _rotation(ego_heading if constraints.use_ego_heading else obs.heading)
                p = _project_with_frame(p, center_at(obs, tau, constraints.timestep), rot,
                                        obs.semi_major, obs.semi_minor)
                g = keepout_at(constraints, tau, p, ego_heading)
                clean = False
        if clean:
            return p
    raise NonConvergence(
        f"cyclic ellipse projection did not converge at time index {tau}", tau=tau
    )


def reference_backward_pass(traj: Trajectory, cost, dynamics, mu: float):
    """The iLQR backward pass in plain (x, u) coordinates, one stamp at a time.

    Same contract as `admmplan.ilqr.backward_pass`, which writes the same
    recursion out on plain floats; this is its array form, kept as its
    reference.

    The Jacobians and cost expansions are built once; whenever a regularized
    Q_uu fails its positive definiteness check, only the recursion restarts,
    at a larger mu. Per stamp, one product F' V_xx F with F = [f_x f_u]
    gives the Q_xx, Q_ux and Q_uu blocks together.

    Returns:
        (gains, value, mu): the float gain rows; the value model at the first
        stamp as (V_x, V_xx, dV), where dV is the predicted total cost change
        sum(-1/2 k' Q_uu k), nonpositive; and the mu actually used.

    Raises:
        RegularizationExhausted: mu grew past MU_MAX.
    """
    T, n = traj.horizon, traj.states.shape[1]
    f_x, f_u = dynamics.jacobians(traj.states[:-1], traj.controls)
    l_x, l_u, l_xx, l_uu = cost.expand(traj)
    F = np.concatenate([f_x, f_u], axis=2)
    H = np.zeros((T, n + 2, n + 2))
    H[:, :n, :n] = l_xx[:T]
    H[:, n:, n:] = l_uu
    # Per-stamp views, listed once for every restart of the recursion. The
    # gradient terms keep their own matrix-vector products: folded into the
    # block product they round differently, which moves long solves.
    stamps = list(zip(F, F.transpose(0, 2, 1), H, f_x.transpose(0, 2, 1),
                      f_u.transpose(0, 2, 1), l_x, l_u))[::-1]
    ks = np.empty((T, 2))
    Ks = np.empty((T, 2, n))

    while True:
        if mu > MU_MAX:
            raise RegularizationExhausted(
                f"backward pass found no positive-definite Q_uu below mu={MU_MAX}"
            )
        V_x, V_xx, dV = l_x[T], l_xx[T], 0.0
        for tau, (F_t, Ft, H_t, At, Bt, lx, lu) in zip(range(T - 1, -1, -1), stamps):
            Q = Ft @ V_xx @ F_t
            Q += H_t
            Q_uu = Q[n:, n:]
            # Closed-form solve of the regularized 2x2 system.
            (a, b), (_, d) = Q_uu.tolist()
            a, d = a + mu, d + mu
            det = a * d - b * b
            if a <= 0.0 or det <= 0.0:
                break  # not positive definite: restart at a larger mu
            gain = np.array([[-d, b], [b, -a]]) / det
            ks[tau] = k = gain @ (lu + Bt @ V_x)
            Ks[tau] = K = gain @ Q[n:, :n]
            KtQ = K.T @ Q_uu
            dV += -0.5 * k @ Q_uu @ k
            V_x = lx + At @ V_x - KtQ @ k
            V_xx = Q[:n, :n] - KtQ @ K
            V_xx = 0.5 * (V_xx + V_xx.T)
        else:
            return gain_rows(ks, Ks), (V_x, V_xx, dV), mu
        mu *= MU_GROWTH


def reference_forward_pass(traj: Trajectory, gains: list, alpha: float, dynamics):
    """The iLQR forward pass on arrays: u = u_nom + (alpha k + K (x - x_nom)).

    Same contract as `admmplan.ilqr.forward_pass`, which runs the policy on
    plain floats; this is the array formula it replaced, with K (x - x_nom)
    summed over the states in index order, as the float pass sums it, so
    the two agree bit for bit.

    The feedforward term is scaled by alpha; feedback is applied at full
    strength against the deviation from the nominal states.
    """
    states = np.empty_like(traj.states)
    controls = np.empty_like(traj.controls)
    states[0] = x = traj.states[0]
    k, K = gain_arrays(gains)
    rows = zip(alpha * k, K, traj.states, traj.controls)
    for tau, (k, K, x_nom, u_nom) in enumerate(rows):
        products = (K * (x - x_nom)).T  # one (controls,) column per state
        controls[tau] = u = u_nom + (k + functools.reduce(np.add, products))
        states[tau + 1] = x = np.asarray(dynamics.step(x, u))
    return Trajectory(states, controls)


def _column_sum(columns, shape):
    """Per-column arrays of `shape` summed over the columns the way the
    penalty kernel sums its stacked columns: stacked on axis 1, summed there."""
    return np.stack(columns, axis=1).sum(axis=1) if columns else np.zeros(shape)


def column_barrier_values(cost, traj):
    """`BarrierCost.values` with each constraint column's terms -log(-g)/t
    formed in turn: box faces in face order, then obstacles."""
    box, keepout = cost.constraints.values(traj)
    outside = (-keepout <= cost.margin).any(axis=1)
    outside[:-1] |= (-box <= cost.margin).any(axis=1)
    inv_t = 1.0 / cost.sharpness
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = _column_sum([np.log(-g) * -inv_t for g in keepout.T], len(keepout))
        terms[:-1] += _column_sum([np.log(-g) * -inv_t for g in box.T], len(box))
    values = cost.base.values(traj) + terms
    values[outside] = math.inf
    return values


def column_barrier_expansion(cost, traj):
    """`BarrierCost.expand` on a trajectory inside the barrier domain, with
    each constraint column's terms, from phi'(g) = -1/(t g) and phi''(g) =
    1/(t g^2), formed in turn and box-face terms added in face order;
    keep-out terms in (px, py) or, with the ego heading, (px, py, theta)."""
    l_x, l_u, l_xx, l_uu = cost.base.expand(traj)
    box, keepout = cost.constraints.values(traj)
    grad = cost.constraints.trajectory_gradient(traj).transpose(1, 0, 2)
    k = grad.shape[-1]
    inv_t = 1.0 / cost.sharpness
    for i, sign, g in zip(cost.constraints.face_index, cost.constraints.face_signs, box.T):
        l_u[:, i] += -inv_t / g * sign
        l_uu[:, i, i] += inv_t / g**2
    l_x[:, :k] += _column_sum([(-inv_t / g)[:, None] * dg for g, dg in zip(keepout.T, grad)],
                              (len(l_x), k))
    outer = [dg[:, :, None] * dg[:, None, :] for dg in grad]
    l_xx[:, :k, :k] += _column_sum([(inv_t / g**2)[:, None, None] * o
                                    for g, o in zip(keepout.T, outer)], (len(l_x), k, k))
    return l_x, l_u, l_xx, l_uu


def bicycle_step(x, u, wheelbase: float, timestep: float) -> tuple:
    """One kinematic bicycle step from the documented rolling geometry of
    `admmplan.vehicle`, on plain floats; ValueError outside its domain."""
    px, py, theta, v = (float(c) for c in x)
    w, a = float(u[0]), float(u[1])
    front = timestep * v
    back = wheelbase + front * math.cos(w) - math.sqrt(wheelbase**2 - (front * math.sin(w)) ** 2)
    return (px + back * math.cos(theta), py + back * math.sin(theta),
            theta + math.asin(front * math.sin(w) / wheelbase), v + timestep * a)


def dynamics_gap(traj: Trajectory, x0, params) -> float:
    """Largest one-step residual of the bicycle recursion along a trajectory,
    its first state against x0 included; inf where a step leaves the domain."""
    gap = float(np.max(np.abs(traj.states[0] - np.asarray(x0, dtype=float))))
    for tau, u in enumerate(traj.controls):
        try:
            step = bicycle_step(traj.states[tau], u, params.wheelbase, params.timestep)
        except ValueError:
            return math.inf
        gap = max(gap, float(np.max(np.abs(np.subtract(step, traj.states[tau + 1])))))
    return gap


def worst_constraint(traj: Trajectory, constraints) -> float:
    """Largest constraint value g along a trajectory (below 0 when strictly
    feasible), stamp by stamp from the definitions of a constraint set's
    limits (`control_box`) and obstacles: |steer| - max_steer, accel -
    max_accel and min_accel - accel per control, and 1 - d'Ad per keep-out
    ellipse, A its shape matrix under the obstacle's heading (or the ego's,
    with `use_ego_heading`) and d the offset from its center at the stamp. A
    box limit that the set treats as absent gives values far below 0 here,
    which change no comparison made with this value."""
    (_, min_accel), (max_steer, max_accel) = (limits.tolist() for limits in
                                              constraints.control_box)
    worst = -math.inf
    for steer, accel in traj.controls.tolist():
        worst = max(worst, abs(steer) - max_steer, accel - max_accel, min_accel - accel)
    for tau, (px, py, theta, _) in enumerate(traj.states.tolist()):
        for obs in constraints.obstacles:
            heading = theta if constraints.use_ego_heading else obs.heading
            d = np.array([px, py]) - center_at(obs, tau, constraints.timestep)
            shape = ellipse_shape(heading, obs.semi_major, obs.semi_minor)
            worst = max(worst, float(1.0 - d @ shape @ d))
    return worst
