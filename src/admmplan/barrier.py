"""Log-barrier constrained iLQR, the comparison baseline.

Hard constraints g_i <= 0 are replaced by -(1/t) log(-g_i) penalties and the
smooth problem is solved by iLQR inside an outer loop that multiplies the
sharpness t by a fixed factor: a generator of stages that `admm.solve_report`
turns into the report. The method needs a strictly feasible iterate at all
times: the seed rollout is checked up front, and line-search steps that leave
the barrier domain are rejected by an infinite cost.

Only the last stage's answer is returned, so only the last stage is centered
to the configured iLQR tolerance. On a convex problem a stage at sharpness t
is within m/t of the optimum, m being the number of constraint terms (Boyd &
Vandenberghe, *Convex Optimization*, §11.3), and centering it far below that
bound buys nothing: earlier stages stop at the looser of the configured
tolerance and CENTERING_FRACTION * m / t.

Obstacle barrier Hessians keep only the Gauss-Newton (first-derivative outer
product) term so the quadratic model stays positive semidefinite; box-limit
barriers use their exact one-dimensional second derivatives. Each constraint
family's logs, reciprocals, keep-out gradients and Gauss-Newton terms are
computed in one call over its stacked columns, one column per box face or
obstacle, and then added to the base values and expansion one column at a
time, in face and obstacle order.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ilqr
from .ilqr import ILQRSettings, is_count, is_real
from .admm import Problem, SolveReport, solve_report, trajectory_violation
from .constraints import ConstraintSet
from .errors import BarrierDomainViolation

# Stages before the last stop once their cost improves by less than this
# fraction of their duality-gap bound m/t.
CENTERING_FRACTION = 1e-3


@dataclass
class BarrierSettings:
    initial_sharpness: float = 1.0  # starting t; barrier weight is 1/t
    tighten_factor: float = 5.0
    outer_iters: int = 5
    margin: float = 1e-6  # strict-feasibility slack on every g
    ilqr: ILQRSettings = field(default_factory=ILQRSettings)

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not (is_real(self.initial_sharpness) and math.inf > self.initial_sharpness > 0):
            raise ValueError("initial_sharpness must be positive and finite")
        if not (is_real(self.tighten_factor) and math.inf > self.tighten_factor > 1):
            raise ValueError("tighten_factor must exceed 1 and be finite")
        if not is_count(self.outer_iters):
            raise ValueError("outer_iters must be an integer of at least 1")
        if not (is_real(self.margin) and self.margin >= 0):
            raise ValueError("margin must be nonnegative")


class BarrierCost:
    """Base cost plus log-barrier terms for the box and keep-out constraints.

    Over a trajectory, `values` adds -(1/t) sum(log(-g)) of each stamp's
    constraint values from the `ConstraintSet` to the base values, and is
    +inf at every stamp outside the barrier domain (-g <= margin), so the
    line search backtracks. `expand` adds the barrier gradients and Hessians
    to the base expansion as array operations; it raises
    BarrierDomainViolation at the first violating stamp instead, since it is
    only ever requested on accepted (feasible) nominal trajectories.
    """

    def __init__(
        self,
        base,
        constraints: ConstraintSet,
        sharpness: float,
        margin: float = 1e-6,
    ):
        self.base = base
        self.constraints = constraints
        self.sharpness = sharpness
        self.margin = margin

    def values(self, traj) -> np.ndarray:
        box, keepout = self.constraints.values(traj)
        outside = _outside(box, keepout, self.margin)
        with np.errstate(invalid="ignore", divide="ignore"):
            box_logs, keepout_logs = np.log(-box), np.log(-keepout)
            logs = np.zeros(len(keepout))
            for column in box_logs.T:
                logs[:-1] -= column
            for column in keepout_logs.T:
                logs -= column
        values = self.base.values(traj) + logs / self.sharpness
        values[outside] = math.inf
        return values

    def expand(self, traj):
        # Expansion arrays are freshly allocated by the base model.
        l_x, l_u, l_xx, l_uu = self.base.expand(traj)
        box, keepout = self.constraints.values(traj)
        _check_domain(box, keepout, self.margin, "iterate left the barrier domain")
        inv_t = 1.0 / self.sharpness
        # Box faces are linear in one control: exact 1-D barrier derivatives.
        gradient, curvature = inv_t * self.constraints.face_signs / box, inv_t / box**2
        for (i, _, _), du, duu in zip(self.constraints.faces, gradient.T, curvature.T):
            l_u[:, i] -= du
            l_uu[:, i, i] += duu
        # Keep-out barriers: gradient and Gauss-Newton Hessian in the first
        # k states, (px, py) or, with the ego heading, (px, py, theta).
        dg = self.constraints.trajectory_gradient(traj)
        k = dg.shape[-1]
        gradient = inv_t * dg / keepout[:, :, None]
        outer = dg[..., :, None] * dg[..., None, :]
        hessian = inv_t * outer / (keepout**2)[:, :, None, None]
        for j in range(keepout.shape[1]):
            l_x[:, :k] -= gradient[:, j]
            l_xx[:, :k, :k] += hessian[:, j]
        return l_x, l_u, l_xx, l_uu


def _outside(box, keepout, margin):
    """Per stamp (T+1,): whether some constraint has -g <= margin."""
    outside = (keepout >= -margin).any(axis=1)
    outside[:-1] |= (box >= -margin).any(axis=1)
    return outside


def _check_domain(box, keepout, margin, problem):
    """Raise BarrierDomainViolation at the first stamp outside the domain."""
    if (keepout >= -margin).any() or (box >= -margin).any():
        tau = int(np.argmax(_outside(box, keepout, margin)))
        raise BarrierDomainViolation(f"{problem} at time index {tau}", tau=tau)


def check_strict_feasibility(
    traj: ilqr.Trajectory, constraints: ConstraintSet, margin: float
):
    """Raise BarrierDomainViolation at the first stamp violating any g < -margin."""
    box, keepout = constraints.values(traj)
    _check_domain(box, keepout, margin, "trajectory is not strictly feasible")


def barrier_solve(problem: Problem, settings: BarrierSettings | None = None) -> SolveReport:
    """Constrained solve by the outer-inner log-barrier loop.

    Stage i solves the barrier problem at sharpness t = initial_sharpness *
    tighten_factor**i from the previous stage's answer. The last stage runs
    iLQR to the configured cost tolerance; the others to the looser of that
    and CENTERING_FRACTION * m / t, a share of the stage's duality-gap bound
    m/t (Boyd & Vandenberghe §11.3). The status is the last stage's inner
    status (`converged` or `max_iters`), or `failed` as `admm.solve_report`
    reports a solve failure, with the finished stages kept.

    Raises:
        BarrierDomainViolation: the zero-control seed rollout (or, defensively,
        a later nominal iterate) is not strictly feasible. This is the
        documented limitation that the consensus solver avoids.
    """
    settings = settings or BarrierSettings()
    y = ilqr.rollout(problem.dynamics, problem.x0, np.zeros((problem.horizon, 2)))
    check_strict_feasibility(y, problem.constraints, settings.margin)
    # Constraint terms: box faces on the T controls, keep-outs on the T+1 states.
    terms = (len(problem.constraints.faces) * problem.horizon
             + len(problem.constraints.obstacles) * (problem.horizon + 1))
    return solve_report(y, _stages(problem, settings, y, terms), problem)


def _stages(problem: Problem, settings: BarrierSettings, y: ilqr.Trajectory, terms: int):
    """The barrier stages from `y`, as `admm.solve_report` items."""
    sharpness = settings.initial_sharpness
    for stage in range(settings.outer_iters):
        inner = settings.ilqr
        if stage < settings.outer_iters - 1:
            gap = CENTERING_FRACTION * terms / sharpness
            inner = replace(inner, cost_tolerance=max(inner.cost_tolerance, gap))
        barrier = BarrierCost(problem.cost, problem.constraints, sharpness, settings.margin)
        result = ilqr.solve(y, barrier, problem.dynamics, inner)
        y = result.trajectory
        # The barrier has no consensus residual: its violation fills both.
        violation = trajectory_violation(y, problem.constraints)
        yield result, violation, violation, sharpness, result.status
        sharpness *= settings.tighten_factor
