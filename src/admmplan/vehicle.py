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

`BicycleModel.step` is the only implementation of this map: a closure over
the wheelbase and timestep, built with the model, that evaluates sin(w) once
and is one Python call per stamp. `jacobians` differentiates it over stacked
rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .ilqr import require

STATE_DIM = 4
CONTROL_DIM = 2
# The unit diagonal that every stamp's f_x shares.
_IDENTITY = np.eye(STATE_DIM)


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
        for name in ("wheelbase", "timestep"):
            require(getattr(self, name), name, lambda v: math.inf > v > 0,
                    "be positive and finite")


@dataclass(frozen=True)
class State:
    px: float = 0.0
    py: float = 0.0
    theta: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        for name in ("px", "py", "theta", "v"):
            require(getattr(self, name), f"state {name}", math.isfinite, "be a finite number")

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.theta, self.v], dtype=float)


def _stepper(wheelbase: float, timestep: float):
    """The one-step map x, u -> x' of the module docstring for one geometry.

    Takes the state (px, py, theta, v) and the control (steer, accel) as any
    sequences of floats; plain float lists are the fast input, which the
    solvers' rollouts pass. Returns the next state as a new list of four
    Python floats (NaN in gives NaN out). Raises DomainError for every step
    it refuses: when the back roll's square-root argument d^2 - f^2 sin^2(w)
    goes negative (the time step is too large for the speed/steer pair) or
    is NaN from an infinite front roll f (h v overflows, or v is infinite),
    and when math refuses the arithmetic (ValueError on an infinite steer or
    heading, OverflowError when f sin(w) is too large to square). This is
    the one test of the kinematic domain; the solvers only add the stamp.
    """
    d, h = wheelbase, timestep
    dd = d * d
    sin, cos, sqrt, asin = math.sin, math.cos, math.sqrt, math.asin

    def step(x, u) -> list:
        px, py, theta, v = x
        w, a = u
        try:
            f = h * v  # front roll
            fs = f * sin(w)
            disc = dd - fs ** 2
            if not disc >= 0.0:  # negative or NaN; one comparison in the domain
                if disc < 0.0:
                    raise DomainError(f"back roll undefined for v={v}, steer={w}: "
                                      f"|front_roll*sin(steer)| exceeds wheelbase {d}")
                if math.isinf(f) and not math.isnan(w):  # else NaN in, NaN out
                    raise DomainError(f"front roll timestep*v is infinite for v={v}, steer={w}")
            b = d + f * cos(w) - sqrt(disc)
            return [px + b * cos(theta), py + b * sin(theta), theta + asin(fs / d), v + h * a]
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"step undefined for theta={theta}, v={v}, steer={w}: {exc}") from exc

    return step


def jacobians(x, u, params: VehicleParams):
    """Exact partial derivatives of `BicycleModel.step` with respect to state
    and control.

    Takes one stamp (x of shape (4,), u of shape (2,)) or stacked rows
    (x of shape (T, 4), u of shape (T, 2)).

    Returns:
        (f_x, f_u): the 4x4 state and 4x2 control Jacobians, stacked to
        (T, 4, 4) and (T, 4, 2) for stacked rows.

    Raises:
        DomainError: at or beyond the boundary of the kinematic domain,
        where the derivatives blow up; its `tau` is the first such row.

    f*sin(steer) is formed once; f_x starts as the identity in one assignment.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta, v, w = x[..., 2], x[..., 3], u[..., 0]
    d = params.wheelbase
    h = params.timestep

    s, c = np.sin(w), np.cos(w)
    with np.errstate(over="ignore", invalid="ignore"):
        f = h * v  # an infinite front roll is outside
        fs = f * s
        disc = d * d - fs ** 2  # an overflowing square is outside: disc is -inf
        ff = f * f  # where it overflows, f * fs is the f^2 sin(w) of a row inside
        ffs = np.where(np.isinf(ff), f * fs, ff * s)
    q = fs / d
    outside = (disc <= 0.0) | (np.abs(q) >= 1.0) | np.isinf(f)
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
    db_df = c + fs * s / root
    db_dv = h * db_df
    db_dw = -fs + ffs * c / root

    dasin = 1.0 / np.sqrt(1.0 - q * q)
    dth_dv = (h * s / d) * dasin
    dth_dw = (f * c / d) * dasin

    ct, st = np.cos(theta), np.sin(theta)
    f_x = np.empty(theta.shape + (4, 4))
    f_x[...] = _IDENTITY
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
    stamp, `jacobians(X, U)` linearizes stacked rows in one call.

    `step` is the one-step map built for the model's params when the model
    is made (see `_stepper`), so a call is one Python function call.
    """

    def __init__(self, params: VehicleParams | None = None):
        self.params = params or VehicleParams()
        self.step = _stepper(self.params.wheelbase, self.params.timestep)

    def jacobians(self, X, U):
        return jacobians(X, U, self.params)
