"""Independent checks of one returned plan.

Nothing here calls into the planner: the bicycle step, the ellipse shapes and
the box test are written out again from their documented definitions, so a
defect in the planner's own evaluators cannot hide a wrong answer.
"""

import math

import numpy as np

KEEPOUT_TOL = 1e-3  # tolerance of acceptance criteria 4 and 5
BOX_TOL = 1e-9
DYNAMICS_TOL = 1e-8  # one-step residual, as the CSV writer checks it


def _bicycle_step(x, u, wheelbase, timestep):
    px, py, theta, v = (float(c) for c in x)
    w, a = float(u[0]), float(u[1])
    f = timestep * v
    back = wheelbase + f * math.cos(w) - math.sqrt(wheelbase**2 - (f * math.sin(w)) ** 2)
    return (
        px + back * math.cos(theta),
        py + back * math.sin(theta),
        theta + math.asin(f * math.sin(w) / wheelbase),
        v + timestep * a,
    )


def dynamics_gap(states, controls, config) -> float:
    """Largest one-step residual of the dynamics recursion, including x0."""
    x0 = config.initial_state
    gap = float(np.max(np.abs(states[0] - np.array([x0.px, x0.py, x0.theta, x0.v]))))
    wheelbase, timestep = config.vehicle.wheelbase, config.vehicle.timestep
    for tau in range(len(controls)):
        try:
            nxt = _bicycle_step(states[tau], controls[tau], wheelbase, timestep)
        except ValueError:  # outside the kinematic domain
            return math.inf
        gap = max(gap, float(np.max(np.abs(np.array(nxt) - states[tau + 1]))))
    return gap


def box_violation(controls, bounds) -> float:
    steer, accel = controls[:, 0], controls[:, 1]
    return max(
        float(np.max(np.abs(steer) - bounds.max_steer, initial=0.0)),
        float(np.max(accel - bounds.max_accel, initial=0.0)),
        float(np.max(bounds.min_accel - accel, initial=0.0)),
    )


def keepout_margins(positions, headings, obstacles, timestep):
    """(stamps, obstacles) array of 1 - d'Ad; positive means inside an ellipse.

    `headings` orients every ellipse at each stamp; pass None to use each
    obstacle's own heading.
    """
    stamps = np.arange(len(positions))
    out = np.empty((len(positions), len(obstacles)))
    for j, obs in enumerate(obstacles):
        centers = np.array(obs.center0) + np.outer(stamps * timestep, obs.velocity)
        d = positions - centers
        theta = np.full(len(positions), obs.heading) if headings is None else headings
        c, s = np.cos(theta), np.sin(theta)
        along = c * d[:, 0] + s * d[:, 1]
        across = -s * d[:, 0] + c * d[:, 1]
        out[:, j] = 1.0 - (along / obs.semi_major) ** 2 - (across / obs.semi_minor) ** 2
    return out


def keepout_violation(states, config) -> float:
    if not config.obstacles:
        return 0.0
    headings = states[:, 2] if config.ego_heading_ellipses else None
    margins = keepout_margins(
        states[:, :2], headings, config.obstacles, config.vehicle.timestep
    )
    return max(float(np.max(margins)), 0.0)


def judge(report, config):
    """Classify one returned plan.

    Returns (solved, error, detail). Solved means status converged, keep-out
    within KEEPOUT_TOL at every stamp and the input box within BOX_TOL. An
    error is a `failed` status, or a `converged` claim that fails the
    feasibility or dynamics check. A trajectory that breaks the dynamics
    recursion is an error whatever its status.
    """
    states = np.asarray(report.trajectory.states, dtype=float)
    controls = np.asarray(report.trajectory.controls, dtype=float)
    detail = {
        "dynamics_gap": dynamics_gap(states, controls, config),
        "box": box_violation(controls, config.bounds),
        "keepout": keepout_violation(states, config),
    }
    dynamics_ok = detail["dynamics_gap"] <= DYNAMICS_TOL
    feasible = detail["keepout"] <= KEEPOUT_TOL and detail["box"] <= BOX_TOL
    converged = report.status == "converged"
    solved = converged and feasible and dynamics_ok
    error = report.status == "failed" or not dynamics_ok or (converged and not feasible)
    return solved, error, detail
