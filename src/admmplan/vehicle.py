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


@dataclass(frozen=True)
class Control:
    steer: float = 0.0
    accel: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.steer, self.accel], dtype=float)


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


def step(x, u, params: VehicleParams) -> np.ndarray:
    """Advance the state one sample period.

    Args:
        x: state array (px, py, theta, v).
        u: control array (steer, accel).
        params: vehicle geometry.

    Returns:
        Next state as a new array.
    """
    px, py, theta, v = float(x[0]), float(x[1]), float(x[2]), float(x[3])
    w, a = float(u[0]), float(u[1])
    d = params.wheelbase
    h = params.timestep
    b = back_roll(v, w, params)
    f = h * v
    return np.array(
        [
            px + b * math.cos(theta),
            py + b * math.sin(theta),
            theta + math.asin(f * math.sin(w) / d),
            v + h * a,
        ]
    )


def jacobians(x, u, params: VehicleParams):
    """Exact partial derivatives of `step` with respect to state and control.

    Returns:
        (f_x, f_u): the 4x4 state Jacobian and 4x2 control Jacobian.

    Raises:
        DomainError: at or beyond the boundary of the kinematic domain,
        where the derivatives blow up.
    """
    theta, v = float(x[2]), float(x[3])
    w = float(u[0])
    d = params.wheelbase
    h = params.timestep

    f = h * v
    s, c = math.sin(w), math.cos(w)
    disc = d * d - (f * s) ** 2
    if disc <= 0.0:
        raise DomainError("jacobians undefined at the kinematic domain boundary")
    root = math.sqrt(disc)
    b = d + f * c - root

    # d(back roll)/d(front roll) and /d(steer)
    db_df = c + f * s * s / root
    db_dv = h * db_df
    db_dw = -f * s + f * f * s * c / root

    q = f * s / d
    if abs(q) >= 1.0:
        raise DomainError("heading update undefined: asin argument at unit magnitude")
    dasin = 1.0 / math.sqrt(1.0 - q * q)
    dth_dv = (h * s / d) * dasin
    dth_dw = (f * c / d) * dasin

    ct, st = math.cos(theta), math.sin(theta)
    f_x = np.array(
        [
            [1.0, 0.0, -b * st, db_dv * ct],
            [0.0, 1.0, b * ct, db_dv * st],
            [0.0, 0.0, 1.0, dth_dv],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    f_u = np.array(
        [
            [db_dw * ct, 0.0],
            [db_dw * st, 0.0],
            [dth_dw, 0.0],
            [0.0, h],
        ]
    )
    return f_x, f_u


class BicycleModel:
    """Dynamics adapter exposing step/jacobians for the trajectory solvers."""

    def __init__(self, params: VehicleParams | None = None):
        self.params = params or VehicleParams()

    def step(self, x, u) -> np.ndarray:
        return step(x, u, self.params)

    def jacobians(self, x, u):
        return jacobians(x, u, self.params)
