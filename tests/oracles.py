"""Independent reference implementations used to check the solvers.

Everything here is deliberately written from the textbook definitions and
shares no code with the package: a finite-horizon Riccati recursion, a
linear/quadratic problem wrapper for the iLQR interface, and brute-force
geometric helpers.
"""

import numpy as np


class LinearDynamics:
    """x' = A x + B u, exposing the solver's dynamics protocol."""

    def __init__(self, A, B):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)

    def step(self, x, u):
        return self.A @ x + self.B @ u

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
