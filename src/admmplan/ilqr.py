"""Gauss-Newton iterative LQR over a nonlinear dynamics model.

Each iteration quadraticizes the cost and linearizes the dynamics around the
nominal trajectory, runs the backward Riccati-style recursion for affine
control updates, and rolls the updated policy through the true dynamics with
a backtracking line search on the feedforward term. Second-order dynamics
terms are dropped (Gauss-Newton), and no cost couples state and control
(l_ux = 0), so the per-step model is

    Q_x  = l_x  + f_x' V_x          Q_u  = l_u  + f_u' V_x
    Q_xx = l_xx + f_x' V_xx f_x     Q_ux = f_u' V_xx f_x
    Q_uu = l_uu + f_u' V_xx f_u

with gains k = -(Q_uu + mu I)^-1 Q_u and K = -(Q_uu + mu I)^-1 Q_ux, and the
value recursion

    dV    = -1/2 k' Q_uu k
    V_x   = Q_x  - K' Q_uu k
    V_xx  = Q_xx - K' Q_uu K.

The Levenberg-style mu keeps Q_uu positive definite near flat or indefinite
regions; it grows on failed line searches and shrinks after accepted steps.

The engine reads its models over whole trajectories: `dynamics.jacobians(X,
U)` gives the stacked (T, 4, 4) and (T, 4, 2) Jacobians, `cost.values(traj)`
the T stage costs and the terminal cost (inf outside the cost's domain), and
`cost.expand(traj)` the stacked (l_x, l_u, l_xx, l_uu), terminal terms in row
T. Only the Riccati recursion and the rollouts run stamp by stamp, on plain
Python floats written out for four states and two controls: on blocks this
small a float operation costs far less than a numpy call. Between those
loops the data stay floats: `dynamics.step` returns a list of four, the gains
are one float row per stamp, and a solve starts from the nominal trajectory
it is handed, such as the previous solve's, without rolling it out again.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RegularizationExhausted

# Solve statuses of an iLQR result and of the constrained solvers' reports;
# only a constrained solve reports "failed".
STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_FAILED = "failed"


def is_count(value) -> bool:
    """Whether value is an integer of at least 1: False for 2.5, NaN and True."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


@dataclass
class ILQRSettings:
    max_iters: int = 100
    cost_tolerance: float = 1e-4  # absolute change of the objective
    mu_init: float = 1e-6
    mu_growth: float = 10.0
    mu_shrink: float = 0.5
    mu_max: float = 1e10
    line_search_steps: int = 11  # alpha = 1, 1/2, ..., 2**-10

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not is_count(self.max_iters):
            raise ValueError("max_iters must be an integer of at least 1")
        if not self.cost_tolerance > 0:
            raise ValueError("cost_tolerance must be positive")
        if not self.mu_init > 0:
            raise ValueError("mu_init must be positive")
        if not self.mu_growth > 1:
            raise ValueError("mu_growth must exceed 1")
        if not 0 < self.mu_shrink <= 1:
            raise ValueError("need 0 < mu_shrink <= 1")
        if not self.mu_max >= self.mu_init:
            raise ValueError("mu_max must be at least mu_init")
        if not is_count(self.line_search_steps):
            raise ValueError("line_search_steps must be an integer of at least 1")

    def alphas(self):
        return [0.5**i for i in range(self.line_search_steps)]


@dataclass
class Trajectory:
    """Paired state/control sequences: states has one more row than controls."""

    states: np.ndarray  # (T+1, 4)
    controls: np.ndarray  # (T, 2)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.controls = np.asarray(self.controls, dtype=float)
        if len(self.states) != len(self.controls) + 1:
            raise ValueError("states must be one longer than controls")

    @property
    def horizon(self) -> int:
        return len(self.controls)

    def dynamics_break(self, dynamics, tol: float = 1e-10) -> int | None:
        """First time index whose step misses the next state by more than tol, or by NaN."""
        states = self.states.tolist()
        for tau, u in enumerate(self.controls.tolist()):
            nxt = dynamics.step(states[tau], u)
            if not all(abs(a - b) <= tol for a, b in zip(nxt, states[tau + 1])):
                return tau
        return None


@dataclass
class GainSchedule:
    """The update u = u_nom + (k + K (x - x_nom)) as one float row (K[0], k[0],
    K[1], k[1]) per stamp; `k` (T, 2) and `K` (T, 2, 4) build arrays of it."""

    rows: list

    k = property(lambda self: np.array(self.rows).reshape(-1, 2, 5)[:, :, 4])
    K = property(lambda self: np.array(self.rows).reshape(-1, 2, 5)[:, :, :4])


@dataclass
class ILQRResult:
    trajectory: Trajectory
    cost_history: list = field(default_factory=list)
    iterations: int = 0
    status: str = STATUS_MAX_ITERS

    @property
    def cost(self) -> float:
        return self.cost_history[-1]


def rollout(dynamics, x0, controls) -> Trajectory:
    """Integrate an open-loop control sequence through the dynamics; a
    DomainError from a step that leaves the kinematic domain names its stamp."""
    controls = np.array(controls, dtype=float)
    states = [np.asarray(x0, dtype=float).tolist()]
    try:
        for u in controls.tolist():
            states.append(dynamics.step(states[-1], u))
    except DomainError as exc:
        tau = len(states) - 1
        raise DomainError(f"rollout step at time index {tau}: {exc}", tau=tau) from exc
    return Trajectory(np.array(states), controls)


def total_cost(cost, traj: Trajectory) -> float:
    """Per-stamp costs summed in stamp order; inf outside the cost's domain."""
    value = float(np.cumsum(cost.values(traj))[-1])
    return value if math.isfinite(value) else math.inf


def _riccati_sweep(rows, terminal, mu):
    """One sweep of the float recursion at regularization mu, latest stamp first.

    Each row holds one stamp's f_x, f_u, l_x, l_u, l_xx and l_uu flattened
    row-major, `terminal` the final l_xx and l_x. Returns the gain rows
    (K[0], k[0], K[1], k[1]) per stamp, latest first, and the value (V_x,
    V_xx, c) at the first stamp; or None as soon as a regularized Q_uu is not
    positive definite.
    """
    v00, v01, v02, v03, _, v11, v12, v13, _, _, v22, v23, _, _, _, v33, x0, x1, x2, x3 = terminal
    corner, gains = 0.0, []
    # Columns a..d of f_x and e, f of f_u; only the upper triangles of the
    # symmetric l_xx (h) and l_uu (n) are read.
    for (a0, b0, c0, d0, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3,
         e0, f0, e1, f1, e2, f2, e3, f3, l0, l1, l2, l3, m0, m1,
         h00, h01, h02, h03, _, h11, h12, h13, _, _, h22, h23, _, _, _, h33,
         n00, n01, _, n11) in rows:
        # W = V_xx F, one column of F = [f_x f_u] at a time.
        wa0, wa1, wa2, wa3 = (v00*a0 + v01*a1 + v02*a2 + v03*a3, v01*a0 + v11*a1 + v12*a2 + v13*a3,
                              v02*a0 + v12*a1 + v22*a2 + v23*a3, v03*a0 + v13*a1 + v23*a2 + v33*a3)
        wb0, wb1, wb2, wb3 = (v00*b0 + v01*b1 + v02*b2 + v03*b3, v01*b0 + v11*b1 + v12*b2 + v13*b3,
                              v02*b0 + v12*b1 + v22*b2 + v23*b3, v03*b0 + v13*b1 + v23*b2 + v33*b3)
        wc0, wc1, wc2, wc3 = (v00*c0 + v01*c1 + v02*c2 + v03*c3, v01*c0 + v11*c1 + v12*c2 + v13*c3,
                              v02*c0 + v12*c1 + v22*c2 + v23*c3, v03*c0 + v13*c1 + v23*c2 + v33*c3)
        wd0, wd1, wd2, wd3 = (v00*d0 + v01*d1 + v02*d2 + v03*d3, v01*d0 + v11*d1 + v12*d2 + v13*d3,
                              v02*d0 + v12*d1 + v22*d2 + v23*d3, v03*d0 + v13*d1 + v23*d2 + v33*d3)
        we0, we1, we2, we3 = (v00*e0 + v01*e1 + v02*e2 + v03*e3, v01*e0 + v11*e1 + v12*e2 + v13*e3,
                              v02*e0 + v12*e1 + v22*e2 + v23*e3, v03*e0 + v13*e1 + v23*e2 + v33*e3)
        wf0, wf1, wf2, wf3 = (v00*f0 + v01*f1 + v02*f2 + v03*f3, v01*f0 + v11*f1 + v12*f2 + v13*f3,
                              v02*f0 + v12*f1 + v22*f2 + v23*f3, v03*f0 + v13*f1 + v23*f2 + v33*f3)
        # Q = F' W + blockdiag(l_xx, l_uu): q + l_xx = Q_xx (upper triangle),
        # r = Q_ux, u = Q_uu; y + l_x = Q_x and g = Q_u. l_xx and l_x join q
        # and y in the value update.
        q00, q01 = a0*wa0 + a1*wa1 + a2*wa2 + a3*wa3, a0*wb0 + a1*wb1 + a2*wb2 + a3*wb3
        q02, q03 = a0*wc0 + a1*wc1 + a2*wc2 + a3*wc3, a0*wd0 + a1*wd1 + a2*wd2 + a3*wd3
        q11, q12 = b0*wb0 + b1*wb1 + b2*wb2 + b3*wb3, b0*wc0 + b1*wc1 + b2*wc2 + b3*wc3
        q13, q22 = b0*wd0 + b1*wd1 + b2*wd2 + b3*wd3, c0*wc0 + c1*wc1 + c2*wc2 + c3*wc3
        q23, q33 = c0*wd0 + c1*wd1 + c2*wd2 + c3*wd3, d0*wd0 + d1*wd1 + d2*wd2 + d3*wd3
        r00, r10 = e0*wa0 + e1*wa1 + e2*wa2 + e3*wa3, f0*wa0 + f1*wa1 + f2*wa2 + f3*wa3
        r01, r11 = e0*wb0 + e1*wb1 + e2*wb2 + e3*wb3, f0*wb0 + f1*wb1 + f2*wb2 + f3*wb3
        r02, r12 = e0*wc0 + e1*wc1 + e2*wc2 + e3*wc3, f0*wc0 + f1*wc1 + f2*wc2 + f3*wc3
        r03, r13 = e0*wd0 + e1*wd1 + e2*wd2 + e3*wd3, f0*wd0 + f1*wd1 + f2*wd2 + f3*wd3
        u00 = n00 + (e0*we0 + e1*we1 + e2*we2 + e3*we3)
        u01 = n01 + (e0*wf0 + e1*wf1 + e2*wf2 + e3*wf3)
        u11 = n11 + (f0*wf0 + f1*wf1 + f2*wf2 + f3*wf3)
        y0, y1 = a0*x0 + a1*x1 + a2*x2 + a3*x3, b0*x0 + b1*x1 + b2*x2 + b3*x3
        y2, y3 = c0*x0 + c1*x1 + c2*x2 + c3*x3, d0*x0 + d1*x1 + d2*x2 + d3*x3
        g0, g1 = m0 + (e0*x0 + e1*x1 + e2*x2 + e3*x3), m1 + (f0*x0 + f1*x1 + f2*x2 + f3*x3)
        # Closed-form solve of the regularized 2x2 system.
        ra, rd = u00 + mu, u11 + mu
        det = ra * rd - u01 * u01
        if ra <= 0.0 or det <= 0.0:
            return None  # not positive definite
        i00, i01, i11 = -rd / det, u01 / det, -ra / det  # -(Q_uu + mu I)^-1
        # Gains G = [K | k] (rows k0., k1.) and P = Q_uu G (rows p0., p1.).
        k00, k01, k02, k03, k04 = (i00*r00 + i01*r10, i00*r01 + i01*r11, i00*r02 + i01*r12,
                                   i00*r03 + i01*r13, i00*g0 + i01*g1)
        k10, k11, k12, k13, k14 = (i01*r00 + i11*r10, i01*r01 + i11*r11, i01*r02 + i11*r12,
                                   i01*r03 + i11*r13, i01*g0 + i11*g1)
        gains.append((k00, k01, k02, k03, k04, k10, k11, k12, k13, k14))
        p00, p01, p02, p03, p04 = (u00*k00 + u01*k10, u00*k01 + u01*k11, u00*k02 + u01*k12,
                                   u00*k03 + u01*k13, u00*k04 + u01*k14)
        p10, p11, p12, p13, p14 = (u01*k00 + u11*k10, u01*k01 + u11*k11, u01*k02 + u11*k12,
                                   u01*k03 + u11*k13, u01*k04 + u11*k14)
        # [[V_xx, V_x], [V_x', corner]] = [[Q_xx, Q_x], [Q_x', corner]] - G' P.
        v00, v01 = (h00 + q00) - (k00*p00 + k10*p10), (h01 + q01) - (k00*p01 + k10*p11)
        v02, v03 = (h02 + q02) - (k00*p02 + k10*p12), (h03 + q03) - (k00*p03 + k10*p13)
        v11, v12 = (h11 + q11) - (k01*p01 + k11*p11), (h12 + q12) - (k01*p02 + k11*p12)
        v13, v22 = (h13 + q13) - (k01*p03 + k11*p13), (h22 + q22) - (k02*p02 + k12*p12)
        v23, v33 = (h23 + q23) - (k02*p03 + k12*p13), (h33 + q33) - (k03*p03 + k13*p13)
        x0, x1 = (l0 + y0) - (k00*p04 + k10*p14), (l1 + y1) - (k01*p04 + k11*p14)
        x2, x3 = (l2 + y2) - (k02*p04 + k12*p14), (l3 + y3) - (k03*p04 + k13*p14)
        corner -= k04*p04 + k14*p14
    V_xx = [[v00, v01, v02, v03], [v01, v11, v12, v13], [v02, v12, v22, v23], [v03, v13, v23, v33]]
    return gains, (np.array([x0, x1, x2, x3]), np.array(V_xx), corner)


def backward_pass(traj: Trajectory, cost, dynamics, mu: float, settings: ILQRSettings):
    """Compute the affine control update along the nominal trajectory.

    Requires four states and two controls. The Jacobians and cost expansions
    are built once and listed as one float row per stamp for the float sweep
    (`_riccati_sweep`), which forms the Q blocks of the module docstring,
    solves the regularized 2x2 system in closed form for G = [K | k], and
    updates the value model with the unregularized Q_uu,

        [[V_xx, V_x], [V_x', c]] = [[Q_xx, Q_x], [Q_x', c]] - G' Q_uu G,

    over its upper triangle, so V_xx stays symmetric. The corner c starts at
    0 and only ever loses k' Q_uu k, so at the first stamp it holds twice the
    predicted cost change dV. Whenever a regularized Q_uu fails its positive
    definiteness check, only the sweep restarts, at a larger mu.

    Returns:
        (gains, value, mu): the gain schedule; the value model at the first
        stamp as (V_x, V_xx, dV), where dV is the predicted total cost change
        sum(-1/2 k' Q_uu k), nonpositive; and the mu actually used.

    Raises:
        RegularizationExhausted: mu grew past settings.mu_max.
    """
    T = traj.horizon
    f_x, f_u = dynamics.jacobians(traj.states[:-1], traj.controls)
    l_x, l_u, l_xx, l_uu = cost.expand(traj)
    rows = np.concatenate([f_x.reshape(T, 16), f_u.reshape(T, 8), l_x[:T], l_u,
                           l_xx[:T].reshape(T, 16), l_uu.reshape(T, 4)], axis=1)[::-1].tolist()
    terminal = l_xx[T].ravel().tolist() + l_x[T].tolist()
    while mu <= settings.mu_max:
        sweep = _riccati_sweep(rows, terminal, mu)
        if sweep is not None:
            gains, (V_x, V_xx, corner) = sweep
            gains.reverse()
            return GainSchedule(gains), (V_x, V_xx, 0.5 * corner), mu
        mu *= settings.mu_growth
    raise RegularizationExhausted(
        f"backward pass found no positive-definite Q_uu below mu={settings.mu_max}"
    )


def forward_pass(traj: Trajectory, gains: GainSchedule, alpha: float, dynamics):
    """Roll the affine policy through the true dynamics from the nominal start.

    The feedforward term is scaled by alpha; feedback is applied at full
    strength against the deviation from the nominal states. The policy runs
    on plain floats over the four states and two controls of a Trajectory
    and the float gain rows, which cost less per stamp than small arrays. A
    DomainError from a step that leaves the kinematic domain names its stamp.
    """
    x = traj.states[0].tolist()
    states, controls = [x], []
    rows = zip(gains.rows, traj.states.tolist(), traj.controls.tolist())
    try:
        for (K00, K01, K02, K03, k0, K10, K11, K12, K13, k1), (n0, n1, n2, n3), (w, a) in rows:
            d0, d1, d2, d3 = x[0] - n0, x[1] - n1, x[2] - n2, x[3] - n3
            u = [w + (alpha * k0 + (K00 * d0 + K01 * d1 + K02 * d2 + K03 * d3)),
                 a + (alpha * k1 + (K10 * d0 + K11 * d1 + K12 * d2 + K13 * d3))]
            x = dynamics.step(x, u)
            controls.append(u)
            states.append(x)
    except DomainError as exc:
        tau = len(controls)
        raise DomainError(f"forward pass step at time index {tau}: {exc}", tau=tau) from exc
    return Trajectory(np.array(states), np.array(controls))


def solve(traj: Trajectory, cost, dynamics, settings: ILQRSettings | None = None) -> ILQRResult:
    """Minimize the summed stage plus terminal cost subject to the dynamics.

    `traj` is the first nominal trajectory: the rollout of its controls from
    its first state, as `rollout` and every solve return it, so it is not
    rolled out again. Iterations alternate backward and forward passes,
    accepting the first backtracking step that strictly decreases the cost;
    the loop stops when the accepted improvement (or the predicted one, if
    no step is acceptable) falls below the cost tolerance.
    """
    settings = settings or ILQRSettings()
    cost_now = total_cost(cost, traj)
    history = [cost_now]
    mu = settings.mu_init
    status = STATUS_MAX_ITERS
    iterations = 0

    for iterations in range(1, settings.max_iters + 1):
        gains, (_, _, expected), mu = backward_pass(traj, cost, dynamics, mu, settings)
        accepted = None
        for alpha in settings.alphas():
            try:
                candidate = forward_pass(traj, gains, alpha, dynamics)
            except DomainError:
                continue
            cost_candidate = total_cost(cost, candidate)
            if cost_candidate < cost_now:
                accepted = (candidate, cost_candidate)
                break
        if accepted is not None:
            candidate, cost_candidate = accepted
            improvement = cost_now - cost_candidate
            traj, cost_now = candidate, cost_candidate
            history.append(cost_now)
            mu = max(settings.mu_init, mu * settings.mu_shrink)
            if improvement < settings.cost_tolerance:
                status = STATUS_CONVERGED
                break
        else:
            if abs(expected) < settings.cost_tolerance:
                status = STATUS_CONVERGED
                break
            mu *= settings.mu_growth
            if mu > settings.mu_max:
                raise RegularizationExhausted(
                    "line search failed and regularization is exhausted"
                )

    return ILQRResult(traj, history, iterations, status)
