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
U)` gives the stacked (T, n, n) and (T, n, 2) Jacobians, `cost.values(traj)`
the T stage costs and the terminal cost (inf outside the cost's domain), and
`cost.expand(traj)` the stacked (l_x, l_u, l_xx, l_uu), terminal terms in row
T. Only the Riccati recursion and the rollouts run stamp by stamp.
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
        if self.mu_init <= 0:
            raise ValueError("mu_init must be positive")
        if self.mu_growth <= 1:
            raise ValueError("mu_growth must exceed 1")
        if not 0 < self.mu_shrink <= 1:
            raise ValueError("need 0 < mu_shrink <= 1")
        if self.mu_max < self.mu_init:
            raise ValueError("mu_max must be at least mu_init")
        if self.line_search_steps < 1:
            raise ValueError("line_search_steps must be at least 1")

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
    """Per-stamp costs summed in stamp order; inf outside the cost's domain."""
    value = float(np.cumsum(cost.values(traj))[-1])
    return value if math.isfinite(value) else math.inf


def backward_pass(traj: Trajectory, cost, dynamics, mu: float, settings: ILQRSettings):
    """Compute the affine control update along the nominal trajectory.

    The Jacobians and cost expansions are built once; whenever a regularized
    Q_uu fails its positive definiteness check, only the recursion restarts,
    at a larger mu. Per stamp, one product F' V_xx F with F = [f_x f_u]
    gives the Q_xx, Q_ux and Q_uu blocks together.

    Returns:
        (gains, value, mu): the gain schedule; the value model at the first
        stamp as (V_x, V_xx, dV), where dV is the predicted total cost change
        sum(-1/2 k' Q_uu k), nonpositive; and the mu actually used.

    Raises:
        RegularizationExhausted: mu grew past settings.mu_max.
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
        if mu > settings.mu_max:
            raise RegularizationExhausted(
                f"backward pass found no positive-definite Q_uu below mu={settings.mu_max}"
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
            return GainSchedule(ks, Ks), (V_x, V_xx, dV), mu
        mu *= settings.mu_growth


def forward_pass(traj: Trajectory, gains: GainSchedule, alpha: float, dynamics):
    """Roll the affine policy through the true dynamics from the nominal start.

    The feedforward term is scaled by alpha; feedback is applied at full
    strength against the deviation from the nominal states.
    """
    states = np.empty_like(traj.states)
    controls = np.empty_like(traj.controls)
    states[0] = x = traj.states[0]
    rows = zip(alpha * gains.k, gains.K, traj.states, traj.controls)
    for tau, (k, K, x_nom, u_nom) in enumerate(rows):
        controls[tau] = u = u_nom + (k + K @ (x - x_nom))
        states[tau + 1] = x = dynamics.step(x, u)
    return Trajectory(states, controls)


def solve(
    x0,
    cost,
    dynamics,
    settings: ILQRSettings | None = None,
    *,
    initial_controls,
) -> ILQRResult:
    """Minimize the summed stage plus terminal cost subject to the dynamics.

    The nominal trajectory is the rollout of `initial_controls` (T, 2).
    Iterations alternate backward and forward passes, accepting the first
    backtracking step that strictly decreases the cost; the loop stops when
    the accepted improvement (or the predicted one, if no step is acceptable)
    falls below the cost tolerance.
    """
    settings = settings or ILQRSettings()
    traj = rollout(dynamics, np.asarray(x0, dtype=float), initial_controls)
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
