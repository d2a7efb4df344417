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

The recursion runs in homogeneous coordinates (Tassa, Mansard & Todorov
2014): a constant 1 appended to the state folds the gradients into the
Hessian products, and dV is read off the constant entry (see `backward_pass`).

The engine reads its models over whole trajectories: `dynamics.jacobians(X,
U)` gives the stacked (T, n, n) and (T, n, 2) Jacobians, `cost.values(traj)`
the T stage costs and the terminal cost (inf outside the cost's domain), and
`cost.expand(traj)` the stacked (l_x, l_u, l_xx, l_uu), terminal terms in row
T. Only the Riccati recursion and the rollouts run stamp by stamp; the
rollouts run the policy on plain floats and call `dynamics.step(x, u)` with
float lists.
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
        states = self.states.tolist()
        for tau, u in enumerate(self.controls.tolist()):
            nxt = dynamics.step(states[tau], u)
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
    controls = np.array(controls, dtype=float)
    states = [np.asarray(x0, dtype=float).tolist()]
    for u in controls.tolist():
        states.append(dynamics.step(states[-1], u).tolist())
    return Trajectory(np.array(states), controls)


def total_cost(cost, traj: Trajectory) -> float:
    """Per-stamp costs summed in stamp order; inf outside the cost's domain."""
    value = float(np.cumsum(cost.values(traj))[-1])
    return value if math.isfinite(value) else math.inf


def backward_pass(traj: Trajectory, cost, dynamics, mu: float, settings: ILQRSettings):
    """Compute the affine control update along the nominal trajectory.

    The recursion runs in augmented coordinates z = (x, 1, u): the linearized
    step is z -> F z with F = [[f_x, 0, f_u], [0, 1, 0]], and the value model
    is V = [[V_xx, V_x], [V_x', c]]. Per stamp, one product

        Q = F' V F + H,    H = [[l_xx, l_x, 0], [l_x', 0, l_u'], [0, l_u, l_uu]]

    gives Q_xx, Q_x, Q_ux, Q_u and Q_uu together, one product of the
    regularized inverse with the rows [Q_ux | Q_u] gives the gains [K | k],
    and V = Q[:n+1, :n+1] - [K | k]' Q_uu [K | k] updates V_xx, V_x and the
    corner c. The corner starts at 0 and only ever loses k' Q_uu k, so at the
    first stamp it holds twice the predicted cost change dV.

    The Jacobians, cost expansions and F and H are built once; whenever a
    regularized Q_uu fails its positive definiteness check, only the
    recursion restarts, at a larger mu.

    Returns:
        (gains, value, mu): the gain schedule; the value model at the first
        stamp as (V_x, V_xx, dV), where dV is the predicted total cost change
        sum(-1/2 k' Q_uu k), nonpositive; and the mu actually used.

    Raises:
        RegularizationExhausted: mu grew past settings.mu_max.
    """
    T, n = traj.horizon, traj.states.shape[1]
    N = n + 1  # augmented state (x, 1); the controls follow in z
    f_x, f_u = dynamics.jacobians(traj.states[:-1], traj.controls)
    l_x, l_u, l_xx, l_uu = cost.expand(traj)
    F = np.zeros((T, N, N + 2))
    F[:, :n, :n] = f_x
    F[:, :n, N:] = f_u
    F[:, n, n] = 1.0
    H = np.zeros((T, N + 2, N + 2))
    H[:, :n, :n] = l_xx[:T]
    H[:, :n, n] = H[:, n, :n] = l_x[:T]
    H[:, N:, n] = H[:, n, N:] = l_u
    H[:, N:, N:] = l_uu
    V_T = np.zeros((N, N))
    V_T[:n, :n] = l_xx[T]
    V_T[:n, n] = V_T[n, :n] = l_x[T]
    # Per-stamp views, listed once for every restart of the recursion.
    stamps = list(zip(F, F.transpose(0, 2, 1), H))[::-1]
    gains = np.empty((T, 2, N))  # [K | k] per stamp

    while True:
        if mu > settings.mu_max:
            raise RegularizationExhausted(
                f"backward pass found no positive-definite Q_uu below mu={settings.mu_max}"
            )
        V = V_T
        for tau, (F_t, Ft, H_t) in zip(range(T - 1, -1, -1), stamps):
            # np.dot: on blocks this small its dispatch costs less than @.
            Q = np.dot(np.dot(Ft, V), F_t)
            Q += H_t
            Q_uu = Q[N:, N:]
            # Closed-form solve of the regularized 2x2 system.
            (a, b), (_, d) = Q_uu.tolist()
            a, d = a + mu, d + mu
            det = a * d - b * b
            if a <= 0.0 or det <= 0.0:
                break  # not positive definite: restart at a larger mu
            gain = np.array([[-d / det, b / det], [b / det, -a / det]])
            G = np.dot(gain, Q[N:, :N], out=gains[tau])
            V = Q[:N, :N] - np.dot(np.dot(G.T, Q_uu), G)
            V = 0.5 * (V + V.T)
        else:
            value = (V[:n, n], V[:n, :n], 0.5 * V[n, n])
            return GainSchedule(gains[:, :, n], gains[:, :, :n]), value, mu
        mu *= settings.mu_growth


def forward_pass(traj: Trajectory, gains: GainSchedule, alpha: float, dynamics):
    """Roll the affine policy through the true dynamics from the nominal start.

    The feedforward term is scaled by alpha; feedback is applied at full
    strength against the deviation from the nominal states. The policy runs
    on plain floats over the four states and two controls of a Trajectory,
    which cost less per stamp than small arrays.
    """
    x = traj.states[0].tolist()
    states, controls = [x], []
    rows = zip((alpha * gains.k).tolist(), gains.K.tolist(), traj.states.tolist(),
               traj.controls.tolist())
    for (k0, k1), (K0, K1), (n0, n1, n2, n3), (w, a) in rows:
        d0, d1, d2, d3 = x[0] - n0, x[1] - n1, x[2] - n2, x[3] - n3
        u = [w + (k0 + (K0[0] * d0 + K0[1] * d1 + K0[2] * d2 + K0[3] * d3)),
             a + (k1 + (K1[0] * d0 + K1[1] * d1 + K1[2] * d2 + K1[3] * d3))]
        x = dynamics.step(x, u).tolist()
        controls.append(u)
        states.append(x)
    return Trajectory(np.array(states), np.array(controls))


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
