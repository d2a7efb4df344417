"""Gauss-Newton iterative LQR over a nonlinear dynamics model.

Each iteration quadraticizes the cost and linearizes the dynamics around the
nominal trajectory, runs the backward Riccati-style recursion for affine
control updates, and rolls the updated policy through the true dynamics with
a backtracking line search on the feedforward term. Second-order dynamics
terms are dropped (Gauss-Newton), so the per-step model is

    Q_x  = l_x  + f_x' V_x          Q_u  = l_u  + f_u' V_x
    Q_xx = l_xx + f_x' V_xx f_x     Q_ux = l_ux + f_u' V_xx f_x
    Q_uu = l_uu + f_u' V_xx f_u

with gains k = -(Q_uu + mu I)^-1 Q_u and K = -(Q_uu + mu I)^-1 Q_ux, and the
value recursion

    dV    = -1/2 k' Q_uu k
    V_x   = Q_x  - K' Q_uu k
    V_xx  = Q_xx - K' Q_uu K.

The Levenberg-style mu keeps Q_uu positive definite near flat or indefinite
regions; it grows on failed line searches and shrinks after accepted steps.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RegularizationExhausted

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"


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
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.cost_tolerance <= 0:
            raise ValueError("cost_tolerance must be positive")

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

    def copy(self) -> "Trajectory":
        return Trajectory(self.states.copy(), self.controls.copy())

    def dynamics_break(self, dynamics, tol: float = 1e-10) -> int | None:
        """First time index whose step misses the next state by more than tol."""
        for tau in range(self.horizon):
            nxt = dynamics.step(self.states[tau], self.controls[tau])
            if np.max(np.abs(nxt - self.states[tau + 1])) > tol:
                return tau
        return None


@dataclass
class GainSchedule:
    k: np.ndarray  # (T, m) feedforward
    K: np.ndarray  # (T, m, n) feedback


@dataclass
class ValueExpansion:
    """Local quadratic model of the cost-to-go: gradient, Hessian, and the
    expected improvement accumulated so far."""

    V_x: np.ndarray
    V_xx: np.ndarray
    dV: float = 0.0


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
    """Integrate an open-loop control sequence through the dynamics."""
    controls = np.asarray(controls, dtype=float)
    states = np.empty((len(controls) + 1, len(x0)))
    states[0] = x0
    for tau, u in enumerate(controls):
        states[tau + 1] = dynamics.step(states[tau], u)
    return Trajectory(states, controls.copy())


def total_cost(cost, traj: Trajectory) -> float:
    value = 0.0
    for tau in range(traj.horizon):
        value += cost.stage(tau, traj.states[tau], traj.controls[tau])
        if not math.isfinite(value):
            return math.inf
    value += cost.terminal(traj.states[traj.horizon])
    return value if math.isfinite(value) else math.inf


def q_expansion(stage_expansion, v_next: ValueExpansion, f_x, f_u):
    """Quadratic model of the stage value around the nominal point.

    `stage_expansion` is the (l_x, l_u, l_xx, l_ux, l_uu) tuple; the dynamics
    curvature terms are omitted (Gauss-Newton).
    """
    l_x, l_u, l_xx, l_ux, l_uu = stage_expansion
    fxT_V = f_x.T @ v_next.V_xx
    Q_x = l_x + f_x.T @ v_next.V_x
    Q_u = l_u + f_u.T @ v_next.V_x
    Q_xx = l_xx + fxT_V @ f_x
    Q_ux = l_ux + f_u.T @ v_next.V_xx @ f_x
    Q_uu = l_uu + f_u.T @ v_next.V_xx @ f_u
    return Q_x, Q_u, Q_xx, Q_ux, Q_uu


class _NotPositiveDefinite(Exception):
    pass


def _gains_from_quadratic(Q_uu_reg, Q_u, Q_ux):
    """Solve the regularized gain equations, rejecting indefinite Q_uu.

    The control dimension here is 2, so the symmetric solve is done in
    closed form (it dominates the backward-pass profile otherwise); other
    sizes fall back to a Cholesky factorization.
    """
    if Q_uu_reg.shape[0] == 2:
        a = Q_uu_reg[0, 0]
        b = Q_uu_reg[0, 1]
        d = Q_uu_reg[1, 1]
        det = a * d - b * b
        if a <= 0.0 or det <= 0.0:
            raise _NotPositiveDefinite
        inv = np.array([[d, -b], [-b, a]]) / det
        return -(inv @ Q_u), -(inv @ Q_ux)
    try:
        chol = np.linalg.cholesky(Q_uu_reg)
    except np.linalg.LinAlgError:
        raise _NotPositiveDefinite from None
    rhs = np.column_stack([Q_u, Q_ux])
    sol = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return -sol[:, 0], -sol[:, 1:]


def backward_pass(traj: Trajectory, cost, dynamics, mu: float, settings: ILQRSettings):
    """Compute the affine control update along the nominal trajectory.

    Escalates mu internally whenever a regularized Q_uu fails its positive
    definiteness check, restarting the recursion at the larger value.

    Returns:
        (gains, value, mu): the gain schedule, the value expansion at the
        first stamp (whose dV field carries the predicted total cost change
        sum(-1/2 k' Q_uu k), nonpositive), and the mu actually used.

    Raises:
        RegularizationExhausted: mu grew past settings.mu_max.
    """
    T = traj.horizon
    n = traj.states.shape[1]
    m = traj.controls.shape[1]
    terminal_x, terminal_xx = cost.terminal_expansion(traj.states[T])

    while True:
        if mu > settings.mu_max:
            raise RegularizationExhausted(
                f"backward pass found no positive-definite Q_uu below mu={settings.mu_max}"
            )
        ks = np.zeros((T, m))
        Ks = np.zeros((T, m, n))
        value = ValueExpansion(terminal_x.copy(), terminal_xx.copy())
        reg = mu * np.eye(m)
        try:
            for tau in range(T - 1, -1, -1):
                f_x, f_u = dynamics.jacobians(traj.states[tau], traj.controls[tau])
                expansion = cost.stage_expansion(
                    tau, traj.states[tau], traj.controls[tau]
                )
                Q_x, Q_u, Q_xx, Q_ux, Q_uu = q_expansion(expansion, value, f_x, f_u)
                k, K = _gains_from_quadratic(Q_uu + reg, Q_u, Q_ux)
                ks[tau] = k
                Ks[tau] = K
                value.dV += -0.5 * k @ Q_uu @ k
                value.V_x = Q_x - K.T @ Q_uu @ k
                V_xx = Q_xx - K.T @ Q_uu @ K
                value.V_xx = 0.5 * (V_xx + V_xx.T)
        except _NotPositiveDefinite:
            mu *= settings.mu_growth
            continue
        return GainSchedule(ks, Ks), value, mu


def forward_pass(traj: Trajectory, gains: GainSchedule, alpha: float, dynamics):
    """Roll the affine policy through the true dynamics from the nominal start.

    The feedforward term is scaled by alpha; feedback is applied at full
    strength against the deviation from the nominal states.
    """
    T = traj.horizon
    states = np.empty_like(traj.states)
    controls = np.empty_like(traj.controls)
    states[0] = traj.states[0]
    for tau in range(T):
        du = alpha * gains.k[tau] + gains.K[tau] @ (states[tau] - traj.states[tau])
        controls[tau] = traj.controls[tau] + du
        states[tau + 1] = dynamics.step(states[tau], controls[tau])
    return Trajectory(states, controls)


def solve(
    x0,
    cost,
    dynamics,
    settings: ILQRSettings | None = None,
    initial_controls=None,
    horizon: int | None = None,
) -> ILQRResult:
    """Minimize the summed stage plus terminal cost subject to the dynamics.

    The nominal trajectory starts from `initial_controls` (zeros over
    `horizon` steps when omitted). Iterations alternate backward and forward
    passes, accepting the first backtracking step that strictly decreases the
    cost; the loop stops when the accepted improvement (or the predicted one,
    if no step is acceptable) falls below the cost tolerance.
    """
    settings = settings or ILQRSettings()
    if initial_controls is None:
        if horizon is None:
            raise ValueError("either initial_controls or horizon is required")
        initial_controls = np.zeros((horizon, 2))
    traj = rollout(dynamics, np.asarray(x0, dtype=float), initial_controls)
    cost_now = total_cost(cost, traj)
    history = [cost_now]
    mu = settings.mu_init
    status = STATUS_MAX_ITERS
    iterations = 0

    for iterations in range(1, settings.max_iters + 1):
        gains, value, mu = backward_pass(traj, cost, dynamics, mu, settings)
        expected = value.dV
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
