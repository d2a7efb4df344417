"""Inequality constraints, their one evaluator, and the per-timestep projections.

Three constraint families are supported: a steering box, an acceleration box,
and elliptical keep-out regions around (possibly moving) obstacles. Every
constraint is written g <= 0. The keep-out value of position p against an
obstacle with center c, heading theta and semi-axes (e_a, e_b) is

    g(p) = 1 - (along / e_a)^2 - (across / e_b)^2

where (along, across) is p - c rotated into the ellipse frame by -theta.

`ConstraintSet` is the single evaluator of these values: the violation scan,
the log-barrier baseline and the projection all read g from it.
`project_timestep` is the consensus-update workhorse: it clamps the input
components onto the boxes and pushes the position outside every keep-out
ellipse by cyclic nearest-point projection.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, NonConvergence

# Constraint values larger than this count as violated in feasibility scans.
FEASIBILITY_TOL = 1e-6
# Boundary residual targeted by the single-ellipse nearest-point solve.
PROJECTION_TOL = 1e-9
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
        if self.max_steer <= 0:
            raise ValueError("max_steer must be positive")
        if not self.min_accel < 0 < self.max_accel:
            raise ValueError("need min_accel < 0 < max_accel")


@dataclass(frozen=True)
class Obstacle:
    """Keep-out ellipse translating at constant velocity.

    The heading is fixed (the ellipse does not rotate as it moves);
    `semi_major >= semi_minor > 0`. `center0` and `velocity` are two finite
    numbers each. Time index tau and the sample period map to the center via
    center0 + tau * timestep * velocity.
    """

    center0: tuple
    velocity: tuple = (0.0, 0.0)
    heading: float = 0.0
    semi_major: float = 5.0
    semi_minor: float = 2.5

    def __post_init__(self):
        for name in ("center0", "velocity"):
            value = tuple(float(c) for c in getattr(self, name))
            if len(value) != 2 or not all(map(math.isfinite, value)):
                raise ValueError(f"{name} must be two finite numbers, got {value}")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.heading):
            raise ValueError("heading must be finite")
        if not self.semi_major >= self.semi_minor > 0:
            raise ValueError("need semi_major >= semi_minor > 0")

    def center_at(self, tau: int, timestep: float) -> np.ndarray:
        return np.array(self.center0) + tau * timestep * np.array(self.velocity)


def _rotation(heading: float) -> np.ndarray:
    c, s = math.cos(heading), math.sin(heading)
    return np.array([[c, -s], [s, c]])


def ellipse_shape(heading: float, semi_major: float, semi_minor: float) -> np.ndarray:
    """Symmetric positive-definite quadratic form of a rotated ellipse.

    The returned 2x2 matrix A satisfies (p - c)' A (p - c) = 1 on the
    boundary of the ellipse with the given semi-axes rotated by `heading`.
    """
    if semi_major <= 0 or semi_minor <= 0:
        raise ValueError("semi-axes must be positive")
    rot = _rotation(heading)
    return rot @ np.diag([semi_major**-2, semi_minor**-2]) @ rot.T


class ConstraintSet:
    """The box and keep-out constraints of one solve, as values g (<= 0 holds).

    Built once per solve and shared by the violation scan, the barrier and
    the projection. Every evaluation takes one stamp or stacked rows with a
    leading stamp axis: `box(u)`, `keepout(tau, p, heading)` and
    `keepout_gradient(tau, p, heading)` evaluate the given stamps,
    `values(traj)` the box and keep-out values of a whole trajectory.

    Keep-out ellipses are oriented by each obstacle's own heading, or by the
    heading passed per stamp when `use_ego_heading` is set.
    """

    def __init__(self, bounds: InputBounds, obstacles, timestep: float,
                 use_ego_heading: bool = False):
        self.bounds = bounds
        self.obstacles = list(obstacles)
        self.timestep = timestep
        self.use_ego_heading = use_ego_heading
        # Finite box faces as (control index, sign, limit): g = sign * u[i] - limit.
        self.faces = []
        if bounds.max_steer < UNBOUNDED_LIMIT:
            self.faces += [(0, 1.0, bounds.max_steer), (0, -1.0, bounds.max_steer)]
        if bounds.max_accel < UNBOUNDED_LIMIT:
            self.faces.append((1, 1.0, bounds.max_accel))
        if bounds.min_accel > -UNBOUNDED_LIMIT:
            self.faces.append((1, -1.0, -bounds.min_accel))
        faces = np.array(self.faces, dtype=float).reshape(-1, 3)
        self._face_index = faces[:, 0].astype(int)
        self._face_sign, self._face_limit = faces[:, 1], faces[:, 2]
        # (obstacles,) columns: center, velocity, semi-axes, cos/sin heading.
        self._ellipses = tuple(np.array(
            [(*obs.center0, *obs.velocity, obs.semi_major, obs.semi_minor,
              math.cos(obs.heading), math.sin(obs.heading)) for obs in self.obstacles]
        ).reshape(-1, 8).T)

    def box(self, u) -> np.ndarray:
        """g of every finite box face, (..., faces) for controls u (..., 2)."""
        u = np.asarray(u, dtype=float)
        return self._face_sign * u[..., self._face_index] - self._face_limit

    def _offsets(self, tau, p, heading):
        """Offsets (along / e_a, across / e_b) of p from every obstacle center
        in its frame, (..., obstacles) each, and the frame's cos and sin."""
        cx, cy, vx, vy, a, b, c, s = self._ellipses
        if self.use_ego_heading:
            heading = np.asarray(heading, dtype=float)[..., None]
            c, s = np.cos(heading), np.sin(heading)
        p = np.asarray(p, dtype=float)
        t = (np.asarray(tau) * self.timestep)[..., None]
        dx = p[..., 0, None] - (cx + t * vx)
        dy = p[..., 1, None] - (cy + t * vy)
        return (c * dx + s * dy) / a, (-s * dx + c * dy) / b, c, s

    def keepout(self, tau, p, heading=0.0) -> np.ndarray:
        """Keep-out values g (..., obstacles) at time indices tau (...),
        positions p (..., 2) and headings (...)."""
        along, across, _, _ = self._offsets(tau, p, heading)
        return 1.0 - along**2 - across**2

    def keepout_gradient(self, tau, p, heading=0.0) -> np.ndarray:
        """Position gradients dg/dp (..., obstacles, 2) of `keepout`."""
        along, across, c, s = self._offsets(tau, p, heading)
        ga, gb = -2.0 * along / self._ellipses[4], -2.0 * across / self._ellipses[5]
        return np.stack([c * ga - s * gb, s * ga + c * gb], axis=-1)

    def values(self, traj):
        """(box g (T, faces), keep-out g (T+1, obstacles)) along a trajectory."""
        states = traj.states
        return self.box(traj.controls), self.keepout(
            np.arange(len(states)), states[:, :2], states[:, 2])

    def violation(self, traj) -> float:
        """Largest constraint value along a trajectory (0 when feasible)."""
        box, keepout = self.values(traj)
        return float(max(np.max(box, initial=0.0), np.max(keepout, initial=0.0)))

    def _frame(self, k: int, tau: int, heading: float):
        """(center, rotation, semi_major, semi_minor) of obstacle k at tau."""
        obs = self.obstacles[k]
        rot = _rotation(heading if self.use_ego_heading else obs.heading)
        return obs.center_at(tau, self.timestep), rot, obs.semi_major, obs.semi_minor


def project_inputs(u, bounds: InputBounds) -> np.ndarray:
    """Exact Euclidean projection of controls (..., 2) = (steer, accel) onto
    the box limits, for one stamp or stacked rows."""
    return np.clip(u, (-bounds.max_steer, bounds.min_accel), (bounds.max_steer, bounds.max_accel))


def _nearest_boundary_point(qx, qy, a, b):
    """Nearest point on the axis-aligned ellipse boundary to an interior point.

    Solves the KKT condition x = a^2 qx/(a^2+t), y = b^2 qy/(b^2+t) on the
    on-boundary equation F(t) = 0, where F is strictly decreasing on
    (-b^2, 0]. Safeguarded Newton iterations; the on-axis and near-center
    degeneracies are handled analytically.
    """
    if abs(qy) <= 1e-12 * b:
        # Points (numerically) on the major axis: the nearest boundary point
        # leaves the axis when |qx| is inside the evolute cusp (a^2 - b^2)/a.
        cusp = (a * a - b * b) / a
        if abs(qx) >= cusp:
            return math.copysign(a, qx), 0.0
        x = a * a * qx / (a * a - b * b)
        return x, b * math.sqrt(max(0.0, 1.0 - (x / a) ** 2))

    fa2 = (a * qx) ** 2
    fb2 = (b * qy) ** 2

    def value_slope(t):
        ga, gb = a * a + t, b * b + t
        val = fa2 / (ga * ga) + fb2 / (gb * gb) - 1.0
        slope = -2.0 * (fa2 / (ga**3) + fb2 / (gb**3))
        return val, slope

    lo, hi = -b * b, 0.0  # F(lo+) = +inf, F(hi) < 0 for interior points
    t = -b * b + b * abs(qy)  # exact root when qx = 0
    for _ in range(200):
        val, slope = value_slope(t)
        if abs(val) < PROJECTION_TOL:
            break
        if val > 0.0:
            lo = t
        else:
            hi = t
        t_new = t - val / slope
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        t = t_new
    return a * a * qx / (a * a + t), b * b * qy / (b * b + t)


def _project_with_frame(p, center, rot, a, b) -> np.ndarray:
    """Nearest boundary point for an interior p, in a known ellipse frame."""
    d = p - center
    if d[0] == 0.0 and d[1] == 0.0:
        warnings.warn(
            "projection target is the ellipse center; returning the "
            "minor-axis boundary point",
            DegenerateProjection,
        )
        return center + b * rot[:, 1]
    q = rot.T @ d
    # Fold into the closed first quadrant, solve, unfold.
    sx = 1.0 if q[0] >= 0.0 else -1.0
    sy = 1.0 if q[1] >= 0.0 else -1.0
    nx, ny = _nearest_boundary_point(sx * q[0], sy * q[1], a, b)
    return center + rot @ np.array([sx * nx, sy * ny])


def project_timestep(
    block, constraints: ConstraintSet, tau: int, ego_heading: float = 0.0,
    keepout=None,
) -> np.ndarray:
    """Project one consensus block (px, py, steer, accel) onto the constraints.

    Inputs are clamped onto their boxes; the position is pushed outside every
    keep-out ellipse at time index tau by cyclic projection. `ego_heading`
    orients the ellipses when the constraint set uses the ego heading.
    `keepout` may carry the block's keep-out values from a stacked
    evaluation; they are evaluated here otherwise. A position at an ellipse
    center has no unique nearest boundary point; it goes to the minor-axis
    boundary point with a DegenerateProjection warning.

    Raises:
        NonConvergence: cyclic projection failed to clear all ellipses within
        the sweep budget (overlapping obstacles leaving no nearby feasible
        point).
    """
    block = np.asarray(block, dtype=float)
    out = block.copy()
    out[2:] = project_inputs(block[2:], constraints.bounds)
    p = out[:2]
    g = constraints.keepout(tau, p, ego_heading) if keepout is None else keepout
    # One extra pass so a sweep that ends clean can be verified and returned.
    for _ in range(MAX_PROJECTION_SWEEPS + 1):
        clean = True
        for k in range(len(g)):
            if g[k] > FEASIBILITY_TOL:
                p = _project_with_frame(p, *constraints._frame(k, tau, ego_heading))
                g = constraints.keepout(tau, p, ego_heading)
                clean = False
        if clean:
            out[:2] = p
            return out
    raise NonConvergence(
        f"cyclic ellipse projection did not converge at time index {tau}", tau=tau
    )
