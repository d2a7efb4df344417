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
over a whole trajectory as stacked arrays: the values and closest points once
per trajectory, kept by the trajectory (`Trajectory.evaluation`) and
read-only, and every expansion afresh from the kept closest points.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .ilqr import is_real, require
from .vehicle import CONTROL_DIM, STATE_DIM

# Closest-point parameters within this distance of a segment end are treated
# as vertex projections when picking the Gauss-Newton Hessian branch.
_VERTEX_EPS = 1e-12
_IDENTITY = np.eye(2)  # the Gauss-Newton Hessian at a vertex, over 2q


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
        vals = [getattr(self, f.name) for f in fields(self)]
        for f, value in zip(fields(self), vals):
            require(value, f"cost weight {f.name}", lambda v: math.inf > v >= 0,
                    "be finite and nonnegative")
        if not any(v > 0 for v in vals[:4]):
            got = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(self), vals[:4]))
            raise ValueError(f"at least one cost weight must be positive, got {got}")


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
        for name in ("py_ref", "v_ref"):
            value = getattr(self, name)
            if value is not None:
                require(value, name, math.isfinite, "be a finite number")
        if self.polyline is not None:
            pts = tuple(tuple(p) for p in self.polyline)
            for p in pts:
                if len(p) != 2 or not all(is_real(c) and math.isfinite(c) for c in p):
                    raise ValueError(f"polyline points must be two finite numbers each, got {p}")
            pts = tuple(tuple(map(float, p)) for p in pts)
            if len(pts) < 2:
                raise ValueError("polyline needs at least two points")
            for a, b in zip(pts, pts[1:]):
                if a == b:
                    raise ValueError("polyline has repeated consecutive points")
            object.__setattr__(self, "polyline", pts)


def _closest_on_polyline(P, segments):
    """Closest polyline points to every row of P (N, 2), found in one pass.

    Returns (distance, closest_point, segment_tangent, interior) stacked per
    row; `interior` tells whether the projection hit a segment interior
    (True) or clamped to a vertex (False).
    """
    s0, seg, seg_len2 = segments
    rel = P[:, None, :] - s0
    t = np.einsum("nij,ij->ni", rel, seg) / seg_len2
    np.clip(t, 0.0, 1.0, out=t)
    proj = s0 + t[..., None] * seg
    gap = P[:, None, :] - proj
    d2 = np.einsum("nij,nij->ni", gap, gap)
    i = np.argmin(d2, axis=1)
    rows = np.arange(len(P))
    tangent = seg[i] / np.sqrt(seg_len2[i])[:, None]
    t_best = t[rows, i]
    interior = (_VERTEX_EPS < t_best) & (t_best < 1.0 - _VERTEX_EPS)
    return np.sqrt(d2[rows, i]), proj[rows, i], tangent, interior


class TrackingCost:
    """Cost-model adapter binding weights and a reference for the solvers.

    The solver-facing protocol works on whole trajectories:

    * `values(traj)`: the T stage costs and the terminal cost, (T+1,),
      read-only;
    * `expand(traj)`: (l_x (T+1, 4), l_u (T, 2), l_xx (T+1, 4, 4),
      l_uu (T, 2, 2)), with the terminal gradient and Hessian in row T,
      freshly allocated on every call so callers may update them in place.

    Every cost in the package has l_ux = 0, so the protocol carries no cross
    term. The position term of all T+1 stamps, including the closest
    polyline points, is computed in one pass per trajectory and kept by it,
    so a solver that asks for the values and expansion of one iterate
    repeatedly pays that pass once; each `expand` forms the derivatives from
    the kept closest points.
    """

    def __init__(self, weights: CostWeights, reference: Reference):
        self.weights = weights
        self.reference = reference
        if reference.polyline is not None:  # segment starts, vectors, squared lengths
            pts = np.array(reference.polyline)
            seg = pts[1:] - pts[:-1]
            self._segments = pts[:-1], seg, np.einsum("ij,ij->i", seg, seg)

    def _evaluate(self, traj):
        """The position term's geometry and the values of traj, read-only.

        The geometry is what the position term's derivatives read: the
        closest points (T+1, 2), segment tangents (T+1, 2) and interior flags
        (T+1,) of a polyline reference, None for a lateral target."""
        X, U, w, ref = traj.states, traj.controls, self.weights, self.reference
        if ref.py_ref is not None:
            e = X[:, 1] - ref.py_ref
            states, geometry = w.position_weight * e * e, None
        else:
            dist, closest, tangent, interior = _closest_on_polyline(X[:, :2], self._segments)
            states, geometry = w.position_weight * dist * dist, (closest, tangent, interior)
        if ref.v_ref is not None:
            dv = X[:, 3] - ref.v_ref
            states = states + w.velocity_weight * dv * dv
        values = np.empty(len(states))
        values[:-1] = (states[:-1] + w.steering_weight * U[:, 0] * U[:, 0]
                       + w.accel_weight * U[:, 1] * U[:, 1])
        values[-1] = w.terminal_scale * states[-1]
        for array in (*(geometry or ()), values):
            array.flags.writeable = False
        return geometry, values

    def values(self, traj) -> np.ndarray:
        return traj.evaluation(self, self._evaluate)[1]

    def expand(self, traj):
        geometry = traj.evaluation(self, self._evaluate)[0]
        X, U, w, ref = traj.states, traj.controls, self.weights, self.reference
        q = w.position_weight
        l_x, l_xx = np.zeros((len(X), STATE_DIM)), np.zeros((len(X), STATE_DIM, STATE_DIM))
        # The position term: gradient and Gauss-Newton Hessian in (px, py).
        if geometry is None:
            l_x[:, 1] = 2.0 * q * (X[:, 1] - ref.py_ref)
            l_xx[:, 1, 1] = 2.0 * q
        else:
            closest, tangent, interior = geometry
            outer = tangent[:, :, None] * tangent[:, None, :]
            hess = np.where(interior[:, None, None], _IDENTITY - outer, _IDENTITY)
            l_x[:, :2], l_xx[:, :2, :2] = 2.0 * q * (X[:, :2] - closest), hess * (2.0 * q)
        if ref.v_ref is not None:
            l_x[:, 3] = 2.0 * w.velocity_weight * (X[:, 3] - ref.v_ref)
            l_xx[:, 3, 3] = 2.0 * w.velocity_weight
        l_x[-1] *= w.terminal_scale
        l_xx[-1] *= w.terminal_scale
        # The control effort: gradient and diagonal Hessian.
        scale = np.array([2.0 * w.steering_weight, 2.0 * w.accel_weight])
        l_uu = np.zeros((len(U), CONTROL_DIM, CONTROL_DIM))
        l_uu[:, 0, 0], l_uu[:, 1, 1] = scale
        return l_x, scale * U, l_xx, l_uu
