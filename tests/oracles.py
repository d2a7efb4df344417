"""Independent reference implementations used to check the solvers.

Everything here is deliberately written from the textbook definitions and
shares no solver code with the package: a finite-horizon Riccati recursion, a
linear/quadratic problem wrapper for the iLQR interface, brute-force
geometric helpers, and the iLQR backward and forward passes written stamp by
stamp on small arrays (they borrow only the package's result and error
types).
"""

import numpy as np

from admmplan.errors import RegularizationExhausted
from admmplan.ilqr import GainSchedule, ILQRSettings, Trajectory


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


def gain_schedule(k, K):
    """The solver's float-row GainSchedule of (T, 2) k and (T, 2, 4) K."""
    k, K = np.asarray(k, dtype=float), np.asarray(K, dtype=float)
    return GainSchedule(np.concatenate([K, k[:, :, None]], axis=2).reshape(len(k), -1).tolist())


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


def reference_backward_pass(traj: Trajectory, cost, dynamics, mu: float, settings: ILQRSettings):
    """The iLQR backward pass in plain (x, u) coordinates, one stamp at a time.

    Same contract as `admmplan.ilqr.backward_pass`, which writes the same
    recursion out on plain floats; this is its array form, kept as its
    reference.

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
            return gain_schedule(ks, Ks), (V_x, V_xx, dV), mu
        mu *= settings.mu_growth


def reference_forward_pass(traj: Trajectory, gains: GainSchedule, alpha: float, dynamics):
    """The iLQR forward pass on arrays: u = u_nom + (alpha k + K (x - x_nom)).

    Same contract as `admmplan.ilqr.forward_pass`, which runs the policy on
    plain floats; this is the array formula it replaced.

    The feedforward term is scaled by alpha; feedback is applied at full
    strength against the deviation from the nominal states.
    """
    states = np.empty_like(traj.states)
    controls = np.empty_like(traj.controls)
    states[0] = x = traj.states[0]
    rows = zip(alpha * gains.k, gains.K, traj.states, traj.controls)
    for tau, (k, K, x_nom, u_nom) in enumerate(rows):
        controls[tau] = u = u_nom + (k + K @ (x - x_nom))
        states[tau + 1] = x = np.asarray(dynamics.step(x, u))
    return Trajectory(states, controls)
