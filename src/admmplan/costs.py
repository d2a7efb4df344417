"""Tracking objective: stage/terminal costs and their quadratic expansions.

The stage cost penalizes squared distance to a position reference (either a
polyline or a lateral target), squared speed error against an optional speed
reference, and squared control effort:

    l(x, u) = q_pos * dist(x, ref)^2 + q_vel * (v - v_ref)^2
              + q_steer * steer^2 + q_accel * accel^2

For a lateral target the position term is q_pos * (py - py_ref)^2, so the
cost is an exact diagonal quadratic. For a polyline the expansion uses the
Gauss-Newton Hessian built from the distance residual's first derivative, so
it is positive semidefinite by construction.
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


def polyline_distance(point, polyline):
    """Euclidean distance from a point to a polyline.

    Returns:
        (distance, closest_point, segment_tangent); ties between segments
        are broken toward the lower segment index.
    """
    dist, closest, tangent, _ = _closest_on_polyline(np.asarray(point, float), polyline)
    return dist, closest, tangent


def _closest_on_polyline(p, polyline):
    """Like `polyline_distance` but also reports whether the projection hit
    a segment interior (True) or clamped to a vertex (False)."""
    pts = np.asarray(polyline, dtype=float)
    s0 = pts[:-1]
    seg = pts[1:] - s0
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    t = np.einsum("ij,ij->i", p - s0, seg) / seg_len2
    t = np.clip(t, 0.0, 1.0)
    proj = s0 + t[:, None] * seg
    d2 = np.einsum("ij,ij->i", p - proj, p - proj)
    i = int(np.argmin(d2))
    tangent = seg[i] / np.sqrt(seg_len2[i])
    interior = _VERTEX_EPS < t[i] < 1.0 - _VERTEX_EPS
    return float(np.sqrt(d2[i])), proj[i], tangent, interior


def _position_term(x, weights, reference):
    """Value, 2-vector gradient, and 2x2 GN Hessian of the position penalty
    as functions of (px, py)."""
    q = weights.position_weight
    if reference.py_ref is not None:
        e = x[1] - reference.py_ref
        value = q * e * e
        grad = np.array([0.0, 2.0 * q * e])
        hess = np.array([[0.0, 0.0], [0.0, 2.0 * q]])
        return value, grad, hess
    p = np.asarray(x[:2], dtype=float)
    dist, closest, tangent, interior = _closest_on_polyline(p, reference.polyline)
    e = p - closest
    value = q * dist * dist
    grad = 2.0 * q * e
    if interior:
        hess = 2.0 * q * (np.eye(2) - np.outer(tangent, tangent))
    else:
        hess = 2.0 * q * np.eye(2)
    return value, grad, hess


def stage_cost(x, u, weights: CostWeights, reference: Reference) -> float:
    value, _, _ = _position_term(x, weights, reference)
    if reference.v_ref is not None:
        dv = x[3] - reference.v_ref
        value += weights.velocity_weight * dv * dv
    value += weights.steering_weight * u[0] * u[0]
    value += weights.accel_weight * u[1] * u[1]
    return float(value)


def stage_expansion(x, u, weights: CostWeights, reference: Reference):
    """Gradients and Hessians of `stage_cost` around (x, u).

    Returns:
        (l_x, l_u, l_xx, l_ux, l_uu) with the Hessian blocks symmetric PSD.
    """
    _, gpos, hpos = _position_term(x, weights, reference)
    l_x = np.zeros(STATE_DIM)
    l_xx = np.zeros((STATE_DIM, STATE_DIM))
    l_x[:2] = gpos
    l_xx[:2, :2] = hpos
    if reference.v_ref is not None:
        l_x[3] = 2.0 * weights.velocity_weight * (x[3] - reference.v_ref)
        l_xx[3, 3] = 2.0 * weights.velocity_weight
    l_u = np.array(
        [2.0 * weights.steering_weight * u[0], 2.0 * weights.accel_weight * u[1]]
    )
    l_uu = np.diag([2.0 * weights.steering_weight, 2.0 * weights.accel_weight])
    l_ux = np.zeros((CONTROL_DIM, STATE_DIM))
    return l_x, l_u, l_xx, l_ux, l_uu


def terminal_cost(x, weights: CostWeights, reference: Reference) -> float:
    """State-dependent stage terms scaled by terminal_scale."""
    value, _, _ = _position_term(x, weights, reference)
    if reference.v_ref is not None:
        dv = x[3] - reference.v_ref
        value += weights.velocity_weight * dv * dv
    return float(weights.terminal_scale * value)


def terminal_expansion(x, weights: CostWeights, reference: Reference):
    _, gpos, hpos = _position_term(x, weights, reference)
    g_x = np.zeros(STATE_DIM)
    g_xx = np.zeros((STATE_DIM, STATE_DIM))
    g_x[:2] = gpos
    g_xx[:2, :2] = hpos
    if reference.v_ref is not None:
        g_x[3] = 2.0 * weights.velocity_weight * (x[3] - reference.v_ref)
        g_xx[3, 3] = 2.0 * weights.velocity_weight
    return weights.terminal_scale * g_x, weights.terminal_scale * g_xx


class TrackingCost:
    """Cost-model adapter binding weights and a reference for the solvers.

    The solver-facing protocol is: stage(tau, x, u), stage_expansion(tau, x, u),
    terminal(x), terminal_expansion(x). The time index is unused here but kept
    so time-dependent wrappers (consensus penalty, barrier) share the surface.
    """

    def __init__(self, weights: CostWeights, reference: Reference):
        self.weights = weights
        self.reference = reference

    def stage(self, tau, x, u) -> float:
        return stage_cost(x, u, self.weights, self.reference)

    def stage_expansion(self, tau, x, u):
        return stage_expansion(x, u, self.weights, self.reference)

    def terminal(self, x) -> float:
        return terminal_cost(x, self.weights, self.reference)

    def terminal_expansion(self, x):
        return terminal_expansion(x, self.weights, self.reference)
