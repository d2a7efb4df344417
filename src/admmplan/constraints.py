"""Inequality constraints, their one evaluator, and the per-timestep projections.

Three constraint families are supported: a steering box, an acceleration box,
and elliptical keep-out regions around (possibly moving) obstacles. Every
constraint is written g <= 0. The keep-out value of position p against an
obstacle with center c, heading theta and semi-axes (e_a, e_b) is

    g(p) = 1 - (along / e_a)^2 - (across / e_b)^2

where (along, across) is p - c rotated into the ellipse frame by -theta.

`ConstraintSet` holds the only description of the ellipses: one float row
per obstacle with its center at stamp 0, velocity, semi-axes and cos/sin of
its heading. Its evaluator reads the rows as stacked columns for the
violation scan and the log-barrier baseline, once per trajectory: the
trajectory keeps the result (`Trajectory.evaluation`), so the barrier's
values, its expansion and the violation scan of one iterate share one pass.
The obstacle centers of every stamp of a horizon are computed once per set
and horizon and kept, for the evaluator and for the consensus projection's
keep-out scan (`horizon_keepout`).
`project_timestep`, the consensus-update workhorse, reads the rows as plain
floats, moving the centers to its one stamp on each call: it pushes a
position outside every keep-out ellipse by cyclic nearest-point projection,
testing g in the evaluator's order of operations.
The box touches only the controls and the keep-outs only the position, so
the projection onto both splits into that position projection and a control
clamp onto the set's `control_box`.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, NonConvergence
from .ilqr import is_real

# Constraint values larger than this count as violated in feasibility scans.
FEASIBILITY_TOL = 1e-6
# Boundary residual targeted by the single-ellipse nearest-point solve.
PROJECTION_TOL = 1e-9
# An ellipse-frame coordinate within this share of its semi-axis counts as 0:
# on the major axis, or at the center, whichever side rounding put it on.
AXIS_TOL = 1e-12
MAX_PROJECTION_SWEEPS = 50
# Box limits at or beyond this magnitude are treated as absent.
UNBOUNDED_LIMIT = 1e8


@dataclass(frozen=True)
class InputBounds:
    """Box limits on the control vector (steer, accel)."""

    max_steer: float = 0.6
    max_accel: float = 3.0
    min_accel: float = -3.0

    def __post_init__(self):
        # Written so that NaN fails every check; an infinite limit is absent.
        for name in ("max_steer", "max_accel", "min_accel"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not self.max_steer > 0:
            raise ValueError("max_steer must be positive")
        if not self.min_accel < 0 < self.max_accel:
            raise ValueError("need min_accel < 0 < max_accel")


@dataclass(frozen=True)
class Obstacle:
    """Keep-out ellipse translating at constant velocity.

    The heading is fixed (the ellipse does not rotate as it moves); the
    semi-axes are finite with `semi_major >= semi_minor > 0`. `center0` and
    `velocity` are two finite numbers each. Time index tau and the sample
    period map to the center via center0 + tau * timestep * velocity.
    """

    center0: tuple
    velocity: tuple = (0.0, 0.0)
    heading: float = 0.0
    semi_major: float = 5.0
    semi_minor: float = 2.5

    def __post_init__(self):
        for name in ("center0", "velocity"):
            value = tuple(getattr(self, name))
            if len(value) != 2 or not all(is_real(c) and math.isfinite(c) for c in value):
                raise ValueError(f"{name} must be two finite numbers, got {value}")
            object.__setattr__(self, name, tuple(map(float, value)))
        if not (is_real(self.heading) and math.isfinite(self.heading)):
            raise ValueError(f"heading must be a finite number, got {self.heading!r}")
        for name in ("semi_major", "semi_minor"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not math.inf > self.semi_major >= self.semi_minor > 0:
            raise ValueError("need finite semi_major >= semi_minor > 0")


def _keepout(along, across):
    """Keep-out values g from the ellipse-frame offsets of `_offsets`."""
    return 1.0 - along**2 - across**2


class ConstraintSet:
    """The box and keep-out constraints of one solve, as values g (<= 0 holds).

    Built once per problem by `build_problem` and shared by the violation
    scan, the barrier and the projection. `face_index` and `face_signs` give
    the control index and sign of each finite box face, and `control_box`
    the (lower, upper) limits of (steer, accel), as arrays built from `bounds`.
    `box(u)` evaluates one stamp or stacked rows with a leading stamp axis;
    `horizon_keepout(p, heading)` evaluates the stamps 0 .. N-1 of N
    positions, `values(traj)` gives the box and keep-out values of a whole
    trajectory and `trajectory_gradient(traj)` its keep-out gradients. The
    last two evaluate once per trajectory: the trajectory keeps the values
    and offsets, read-only. The last three read the obstacle centers of all
    stamps of a horizon, which the set computes once per number of stamps
    and keeps; `project_timestep` reads the obstacle rows as plain floats.

    Keep-out ellipses are oriented by each obstacle's own heading, or by the
    heading passed per stamp when `use_ego_heading` is set.
    """

    def __init__(self, bounds: InputBounds, obstacles, timestep: float,
                 use_ego_heading: bool = False):
        self.obstacles = list(obstacles)
        self.timestep = timestep
        self.use_ego_heading = use_ego_heading
        # Finite box faces as (control index, sign, limit) rows: g = sign * u[i] - limit.
        faces = np.array([face for face in (
            (0, 1.0, bounds.max_steer), (0, -1.0, bounds.max_steer),
            (1, 1.0, bounds.max_accel), (1, -1.0, -bounds.min_accel)
        ) if face[2] < UNBOUNDED_LIMIT], dtype=float).reshape(-1, 3)
        self.face_index, self.face_signs = faces[:, 0].astype(int), faces[:, 1]
        self._face_limit = faces[:, 2]
        self.control_box = (np.array([-bounds.max_steer, bounds.min_accel]),
                            np.array([bounds.max_steer, bounds.max_accel]))
        # One float row per obstacle: center, velocity, semi-axes, cos/sin
        # heading; `_ellipses` holds the same rows as (obstacles,) columns.
        rows = np.array(
            [(*obs.center0, *obs.velocity, obs.semi_major, obs.semi_minor,
              math.cos(obs.heading), math.sin(obs.heading)) for obs in self.obstacles],
            dtype=float).reshape(-1, 8)
        self._rows = rows.tolist()
        self._ellipses = tuple(rows.T)
        # Centers of every stamp of a horizon, by number of stamps.
        self._centers = {}

    def box(self, u) -> np.ndarray:
        """g of every finite box face, (..., faces) for controls u (..., 2)."""
        u = np.asarray(u, dtype=float)
        return self.face_signs * u[..., self.face_index] - self._face_limit

    def _horizon_centers(self, stamps):
        """Obstacle centers (cx, cy) at time indices 0 .. stamps-1, (stamps,
        obstacles) each, computed on the first call for a number of stamps and
        kept, read-only."""
        if stamps not in self._centers:
            cx, cy, vx, vy = self._ellipses[:4]
            t = (np.arange(stamps) * self.timestep)[:, None]
            centers = cx + t * vx, cy + t * vy
            for array in centers:
                array.flags.writeable = False
            self._centers[stamps] = centers
        return self._centers[stamps]

    def _offsets(self, centers, p, heading):
        """Offsets (along / e_a, across / e_b) of p from the obstacle centers
        (cx, cy) in each obstacle's frame, (..., obstacles) each, and the
        frame's cos and sin."""
        cx, cy = centers
        a, b, c, s = self._ellipses[4:]
        if self.use_ego_heading:
            heading = np.asarray(heading, dtype=float)[..., None]
            c, s = np.cos(heading), np.sin(heading)
        p = np.asarray(p, dtype=float)
        dx = p[..., 0, None] - cx
        dy = p[..., 1, None] - cy
        return (c * dx + s * dy) / a, (-s * dx + c * dy) / b, c, s

    def horizon_keepout(self, p, heading=0.0) -> np.ndarray:
        """Keep-out values g (N, obstacles) at time indices 0 .. N-1 for
        positions p (N, 2) and headings (N,), from the kept centers of N stamps."""
        return _keepout(*self._offsets(self._horizon_centers(len(p)), p, heading)[:2])

    def _evaluate(self, traj):
        """(box g, keep-out g, offsets) of traj, read-only."""
        states = traj.states
        offsets = self._offsets(self._horizon_centers(len(states)), states[:, :2], states[:, 2])
        box, keepout = self.box(traj.controls), _keepout(*offsets[:2])
        for array in (box, keepout, *offsets):
            array.flags.writeable = False
        return box, keepout, offsets

    def values(self, traj):
        """(box g (T, faces), keep-out g (T+1, obstacles)) along a trajectory,
        read-only."""
        return traj.evaluation(self, self._evaluate)[:2]

    def trajectory_gradient(self, traj) -> np.ndarray:
        """Gradients of the keep-out values at every stamp of a trajectory,
        from the kept offsets: dg/dp, (T+1, obstacles, 2), and with the ego
        heading, which turns the ellipse frame, dg/dtheta = 2 along across
        (e_a/e_b - e_b/e_a) as a third column."""
        along, across, c, s = traj.evaluation(self, self._evaluate)[2]
        a, b = self._ellipses[4:6]
        ga, gb = -2.0 * along / a, -2.0 * across / b
        gradient = np.empty(ga.shape + (2 + self.use_ego_heading,))
        gradient[..., 0] = c * ga - s * gb
        gradient[..., 1] = s * ga + c * gb
        if self.use_ego_heading:
            gradient[..., 2] = 2.0 * along * across * (a / b - b / a)
        return gradient

    def violation(self, traj) -> float:
        """Largest constraint value along a trajectory (0 when feasible, NaN
        when some value is NaN)."""
        box, keepout = self.values(traj)
        return float(np.maximum(np.max(box, initial=0.0), np.max(keepout, initial=0.0)))


def _nearest_boundary_point(qx, qy, a, b):
    """Nearest point on the axis-aligned ellipse boundary to an interior point.

    Solves the KKT condition x = a^2 qx/(a^2+t), y = b^2 qy/(b^2+t) on the
    on-boundary equation F(t) = 0, where F is strictly decreasing on
    (-b^2, 0]. Safeguarded Newton iterations, inline on floats, with the slope
    F' formed only for a step; on-axis and near-center points analytically.
    """
    aa, bb = a * a, b * b
    if abs(qy) <= AXIS_TOL * b:
        # Points (numerically) on the major axis: the nearest boundary point
        # leaves the axis when |qx| is inside the evolute cusp (a^2 - b^2)/a.
        cusp = (aa - bb) / a
        if abs(qx) >= cusp:
            return math.copysign(a, qx), 0.0
        x = aa * qx / (aa - bb)
        return x, b * math.sqrt(max(0.0, 1.0 - (x / a) ** 2))

    fa2 = (a * qx) ** 2
    fb2 = (b * qy) ** 2
    lo, hi = -bb, 0.0  # F(lo+) = +inf, F(hi) < 0 for interior points
    t = -bb + b * abs(qy)  # exact root when qx = 0
    for _ in range(200):
        ga, gb = aa + t, bb + t
        val = fa2 / (ga * ga) + fb2 / (gb * gb) - 1.0
        if abs(val) < PROJECTION_TOL:
            break
        if val > 0.0:
            lo = t
        else:
            hi = t
        t_new = t - val / (-2.0 * (fa2 / (ga**3) + fb2 / (gb**3)))
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        t = t_new
    return aa * qx / (aa + t), bb * qy / (bb + t)


def project_timestep(
    position, constraints: ConstraintSet, tau: int, ego_heading: float = 0.0
) -> tuple:
    """Push a position (px, py) outside every keep-out ellipse at time index tau.

    `position` is any pair of floats, plain floats being the fast input; the
    result is the projected (px, py) as two floats. Cyclic projection runs
    over the set's float rows, centers moved to stamp tau as
    cx + (tau * timestep) * vx and cos/sin of `ego_heading` swapped in when
    the set uses it; g is tested and the point moved on plain floats, in the
    evaluator's order of operations. A position at an ellipse center, to
    AXIS_TOL, has no unique nearest boundary point; it goes to the
    minor-axis one with a DegenerateProjection warning.

    Raises:
        NonConvergence: cyclic projection failed to clear all ellipses within
        the sweep budget (overlapping obstacles leaving no nearby feasible
        point).
    """
    px, py = position
    t = tau * constraints.timestep
    ego = constraints.use_ego_heading
    if ego:
        ego_c, ego_s = math.cos(ego_heading), math.sin(ego_heading)
    ellipses = [(cx + t * vx, cy + t * vy, a, b, ego_c if ego else c, ego_s if ego else s)
                for cx, cy, vx, vy, a, b, c, s in constraints._rows]
    # One extra pass so a sweep that ends clean can be verified and returned.
    for _ in range(MAX_PROJECTION_SWEEPS + 1):
        clean = True
        for cx, cy, a, b, c, s in ellipses:
            dx, dy = px - cx, py - cy
            qx, qy = c * dx + s * dy, -s * dx + c * dy
            along, across = qx / a, qy / b
            if 1.0 - along * along - across * across <= FEASIBILITY_TOL:
                continue
            clean = False
            if abs(qx) <= AXIS_TOL * a and abs(qy) <= AXIS_TOL * b:
                warnings.warn("projection target is the ellipse center; returning the "
                              "minor-axis boundary point", DegenerateProjection)
                px, py = cx - b * s, cy + b * c
                continue
            # Fold into the closed first quadrant, solve, unfold.
            sx = 1.0 if qx >= 0.0 else -1.0
            sy = 1.0 if qy >= 0.0 else -1.0
            nx, ny = _nearest_boundary_point(sx * qx, sy * qy, a, b)
            nx, ny = sx * nx, sy * ny
            px, py = cx + (c * nx - s * ny), cy + (s * nx + c * ny)
        if clean:
            return px, py
    raise NonConvergence(
        f"cyclic ellipse projection did not converge at time index {tau}", tau=tau
    )
