"""Tracking objective: stage/terminal costs and their quadratic expansions.

The stage cost penalizes squared distance to a position reference (either a
polyline or a lateral target), squared speed error against an optional speed
reference, and squared control effort:

    l(x, u) = q_pos * dist(x, ref)^2 + q_vel * (v - v_ref)^2
              + q_steer * steer^2 + q_accel * accel^2

The terminal cost is the state part of l scaled by terminal_scale. For a
lateral target the position term is q_pos * (py - py_ref)^2, so the cost is
an exact diagonal quadratic. For a polyline the expansion uses the
Gauss-Newton Hessian built from the distance residual's first derivative, so
it is positive semidefinite by construction. `TrackingCost` evaluates both
over a whole trajectory as stacked arrays.
"""

from dataclasses import dataclass

import numpy as np

from .vehicle import CONTROL_DIM, STATE_DIM

# Closest-point parameters within this distance of a segment end are treated
# as vertex projections when picking the Gauss-Newton Hessian branch.
_VERTEX_EPS = 1e-12


@dataclass(frozen=True)
class CostWeights:
    """Objective weights. The defaults are tuned on the built-in driving
    scenarios: firm speed/terminal tracking with a soft lane pull and heavy
    steering smoothing, which keeps the consensus iterations of the
    constrained solver well behaved."""

    position_weight: float = 0.3
    velocity_weight: float = 0.65
    steering_weight: float = 20.0
    accel_weight: float = 0.25
    terminal_scale: float = 120.0

    def __post_init__(self):
        vals = (
            self.position_weight,
            self.velocity_weight,
            self.steering_weight,
            self.accel_weight,
            self.terminal_scale,
        )
        if any(v < 0 for v in vals):
            raise ValueError("cost weights must be nonnegative")
        if not any(v > 0 for v in vals[:4]):
            raise ValueError("at least one cost weight must be positive")


@dataclass(frozen=True)
class Reference:
    """Position reference (polyline xor lateral target) plus optional speed.

    A missing v_ref drops the speed-tracking term entirely.
    """

    py_ref: float | None = None
    polyline: tuple | None = None
    v_ref: float | None = None

    def __post_init__(self):
        if (self.py_ref is None) == (self.polyline is None):
            raise ValueError("exactly one of py_ref and polyline must be given")
        if self.polyline is not None:
            pts = tuple(tuple(float(c) for c in p) for p in self.polyline)
            if len(pts) < 2:
                raise ValueError("polyline needs at least two points")
            for a, b in zip(pts, pts[1:]):
                if a == b:
                    raise ValueError("polyline has repeated consecutive points")
            object.__setattr__(self, "polyline", pts)


def _closest_on_polyline(P, polyline):
    """Closest polyline points to every row of P (N, 2), found in one pass.

    Returns (distance, closest_point, segment_tangent, interior) stacked per
    row; `interior` tells whether the projection hit a segment interior
    (True) or clamped to a vertex (False).
    """
    pts = np.asarray(polyline, dtype=float)
    s0 = pts[:-1]
    seg = pts[1:] - s0
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    rel = P[:, None, :] - s0
    t = np.einsum("nij,ij->ni", rel, seg) / seg_len2
    t = np.clip(t, 0.0, 1.0)
    proj = s0 + t[..., None] * seg
    gap = P[:, None, :] - proj
    d2 = np.einsum("nij,nij->ni", gap, gap)
    i = np.argmin(d2, axis=1)
    rows = np.arange(len(P))
    tangent = seg[i] / np.sqrt(seg_len2[i])[:, None]
    t_best = t[rows, i]
    interior = (_VERTEX_EPS < t_best) & (t_best < 1.0 - _VERTEX_EPS)
    return np.sqrt(d2[rows, i]), proj[rows, i], tangent, interior


def _position_term(X, weights, reference):
    """Value (N,), gradient (N, 2) and GN Hessian (N, 2, 2) of the position
    penalty as functions of (px, py), per row of X (N, 4)."""
    q = weights.position_weight
    grad, hess = np.zeros((len(X), 2)), np.zeros((len(X), 2, 2))
    if reference.py_ref is not None:
        e = X[:, 1] - reference.py_ref
        grad[:, 1] = 2.0 * q * e
        hess[:, 1, 1] = 2.0 * q
        return q * e * e, grad, hess
    P = X[:, :2]
    dist, closest, tangent, interior = _closest_on_polyline(P, reference.polyline)
    grad[:] = 2.0 * q * (P - closest)
    hess[:] = np.eye(2)
    hess[interior] -= tangent[interior, :, None] * tangent[interior, None, :]
    hess *= 2.0 * q
    return q * dist * dist, grad, hess


def _state_values(X, weights, reference):
    """Position plus speed penalty per row of X (N, 4)."""
    value = _position_term(X, weights, reference)[0]
    if reference.v_ref is not None:
        dv = X[:, 3] - reference.v_ref
        value += weights.velocity_weight * dv * dv
    return value


def _state_expansion(X, weights, reference):
    """Gradient (N, 4) and Hessian (N, 4, 4) of `_state_values`."""
    _, gpos, hpos = _position_term(X, weights, reference)
    l_x, l_xx = np.zeros((len(X), STATE_DIM)), np.zeros((len(X), STATE_DIM, STATE_DIM))
    l_x[:, :2] = gpos
    l_xx[:, :2, :2] = hpos
    if reference.v_ref is not None:
        l_x[:, 3] = 2.0 * weights.velocity_weight * (X[:, 3] - reference.v_ref)
        l_xx[:, 3, 3] = 2.0 * weights.velocity_weight
    return l_x, l_xx


def _plus_effort(values, U, weights):
    """Stage costs from state values (N,) and controls U (N, 2)."""
    return (values + weights.steering_weight * U[:, 0] * U[:, 0]
            + weights.accel_weight * U[:, 1] * U[:, 1])


def _control_expansion(U, weights):
    """Gradient (N, 2) and diagonal Hessian (N, 2, 2) of the control effort."""
    scale = np.array([2.0 * weights.steering_weight, 2.0 * weights.accel_weight])
    l_uu = np.zeros((len(U), CONTROL_DIM, CONTROL_DIM))
    l_uu[:, [0, 1], [0, 1]] = scale
    return scale * U, l_uu


class TrackingCost:
    """Cost-model adapter binding weights and a reference for the solvers.

    The solver-facing protocol works on whole trajectories:

    * `values(traj)`: the T stage costs and the terminal cost, (T+1,);
    * `expand(traj)`: (l_x (T+1, 4), l_u (T, 2), l_xx (T+1, 4, 4),
      l_uu (T, 2, 2)), with the terminal gradient and Hessian in row T.

    Every cost in the package has l_ux = 0, so the protocol carries no cross
    term. The position term of all T+1 stamps, including the closest
    polyline points, is computed in one pass.
    """

    def __init__(self, weights: CostWeights, reference: Reference):
        self.weights = weights
        self.reference = reference

    def values(self, traj) -> np.ndarray:
        states = _state_values(traj.states, self.weights, self.reference)
        stages = _plus_effort(states[:-1], traj.controls, self.weights)
        return np.append(stages, self.weights.terminal_scale * states[-1])

    def expand(self, traj):
        l_x, l_xx = _state_expansion(traj.states, self.weights, self.reference)
        l_x[-1] *= self.weights.terminal_scale
        l_xx[-1] *= self.weights.terminal_scale
        l_u, l_uu = _control_expansion(traj.controls, self.weights)
        return l_x, l_u, l_xx, l_uu
