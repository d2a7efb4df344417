"""Discrete kinematic bicycle model with analytic Jacobians.

State layout is ``(px, py, theta, v)``: rear-axle position, heading, and
front-wheel speed. Control layout is ``(steer, accel)``. One step advances
the pose by the exact rolling geometry of the front and back wheels over a
sample period, so the update stays consistent with the wheelbase even at
large steering angles:

    front roll  f = h * v
    back roll   b = d + f cos(w) - sqrt(d^2 - f^2 sin^2(w))
    px' = px + b cos(theta)
    py' = py + b sin(theta)
    theta' = theta + asin(f sin(w) / d)
    v' = v + h * a

Headings are kept unwrapped (no modular reduction) so the Jacobians stay
smooth across the +-pi seam.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

STATE_DIM = 4
CONTROL_DIM = 2


@dataclass(frozen=True)
class VehicleParams:
    """Geometry and discretization of the ego vehicle.

    wheelbase: axle-to-axle distance (m).
    timestep: sample period (s).

    The planner constrains the rear-axle reference point; the body footprint
    is not modelled.
    """

    wheelbase: float = 2.0
    timestep: float = 0.1

    def __post_init__(self):
        if self.wheelbase <= 0 or self.timestep <= 0:
            raise ValueError("wheelbase and timestep must be positive")


@dataclass(frozen=True)
class State:
    px: float = 0.0
    py: float = 0.0
    theta: float = 0.0
    v: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.theta, self.v], dtype=float)


def front_roll(v: float, params: VehicleParams) -> float:
    """Rolling distance of the front wheels over one step (may be negative)."""
    return params.timestep * v


def back_roll(v: float, steer: float, params: VehicleParams) -> float:
    """Rolling distance of the back wheels over one step.

    Reduces to the front roll when steer = 0. Raises DomainError when the
    square-root argument goes negative, which means the time step is too
    large for the commanded speed/steer pair.
    """
    d = params.wheelbase
    f = front_roll(v, params)
    disc = d * d - (f * math.sin(steer)) ** 2
    if disc < 0.0:
        raise DomainError(
            f"back roll undefined for v={v}, steer={steer}: "
            f"|front_roll*sin(steer)| exceeds wheelbase {d}"
        )
    return d + f * math.cos(steer) - math.sqrt(disc)


def step(x, u, params: VehicleParams) -> list:
    """Advance the state one sample period.

    Args:
        x: state (px, py, theta, v), any sequence of four floats.
        u: control (steer, accel), any sequence of two floats.
        params: vehicle geometry.

    Plain float lists are the fast input: the solvers' rollouts pass them,
    because the scalar kinematics below cost more on array elements.

    Returns:
        Next state as a new list of four Python floats; wrap it in
        `np.asarray` for array arithmetic.
    """
    px, py, theta, v = x
    w, a = u
    d = params.wheelbase
    h = params.timestep
    b = back_roll(v, w, params)
    f = h * v
    return [
        px + b * math.cos(theta),
        py + b * math.sin(theta),
        theta + math.asin(f * math.sin(w) / d),
        v + h * a,
    ]


def jacobians(x, u, params: VehicleParams):
    """Exact partial derivatives of `step` with respect to state and control.

    Takes one stamp (x of shape (4,), u of shape (2,)) or stacked rows
    (x of shape (T, 4), u of shape (T, 2)).

    Returns:
        (f_x, f_u): the 4x4 state and 4x2 control Jacobians, stacked to
        (T, 4, 4) and (T, 4, 2) for stacked rows.

    Raises:
        DomainError: at or beyond the boundary of the kinematic domain,
        where the derivatives blow up; its `tau` is the first such row.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta, v, w = x[..., 2], x[..., 3], u[..., 0]
    d = params.wheelbase
    h = params.timestep

    f = h * v
    s, c = np.sin(w), np.cos(w)
    disc = d * d - (f * s) ** 2
    q = f * s / d
    outside = (disc <= 0.0) | (np.abs(q) >= 1.0)
    if outside.any():
        tau = int(np.argmax(outside.reshape(-1)))
        raise DomainError(
            f"jacobians undefined at time index {tau}: "
            "at or beyond the kinematic domain boundary",
            tau=tau,
        )
    root = np.sqrt(disc)
    b = d + f * c - root

    # d(back roll)/d(front roll) and /d(steer)
    db_df = c + f * s * s / root
    db_dv = h * db_df
    db_dw = -f * s + f * f * s * c / root

    dasin = 1.0 / np.sqrt(1.0 - q * q)
    dth_dv = (h * s / d) * dasin
    dth_dw = (f * c / d) * dasin

    ct, st = np.cos(theta), np.sin(theta)
    f_x = np.zeros(theta.shape + (4, 4))
    f_x[..., [0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
    f_x[..., 0, 2] = -b * st
    f_x[..., 0, 3] = db_dv * ct
    f_x[..., 1, 2] = b * ct
    f_x[..., 1, 3] = db_dv * st
    f_x[..., 2, 3] = dth_dv
    f_u = np.zeros(theta.shape + (4, 2))
    f_u[..., 0, 0] = db_dw * ct
    f_u[..., 1, 0] = db_dw * st
    f_u[..., 2, 0] = dth_dw
    f_u[..., 3, 1] = h
    return f_x, f_u


class BicycleModel:
    """Dynamics adapter for the trajectory solvers: `step(x, u)` advances one
    stamp, `jacobians(X, U)` linearizes stacked rows in one call."""

    def __init__(self, params: VehicleParams | None = None):
        self.params = params or VehicleParams()

    def step(self, x, u) -> list:
        return step(x, u, self.params)

    def jacobians(self, X, U):
        return jacobians(X, U, self.params)
