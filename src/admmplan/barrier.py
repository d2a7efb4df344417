"""Log-barrier constrained iLQR, the comparison baseline.

Hard constraints g_i <= 0 are replaced by -(1/t) log(-g_i) penalties and the
smooth problem is solved by iLQR inside an outer loop that multiplies the
sharpness t by a fixed factor. The method needs a strictly feasible iterate
at all times: the seed rollout is checked up front, and line-search steps
that leave the barrier domain are rejected by an infinite cost.

Only the last stage's answer is returned, so only the last stage is centered
to the configured iLQR tolerance. On a convex problem a stage at sharpness t
is within m/t of the optimum, m being the number of constraint terms (Boyd &
Vandenberghe, *Convex Optimization*, §11.3), and centering it far below that
bound buys nothing: earlier stages stop at the looser of the configured
tolerance and CENTERING_FRACTION * m / t.

Obstacle barrier Hessians keep only the Gauss-Newton (first-derivative outer
product) term so the quadratic model stays positive semidefinite; box-limit
barriers use their exact one-dimensional second derivatives.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import ilqr
from .ilqr import STATUS_FAILED, STATUS_MAX_ITERS, ILQRSettings, is_count
from .admm import IterationRecord, Problem, SolveReport, trajectory_violation
from .constraints import ConstraintSet
from .errors import BarrierDomainViolation, RegularizationExhausted

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
        if not math.inf > self.initial_sharpness > 0:
            raise ValueError("initial_sharpness must be positive and finite")
        if not math.inf > self.tighten_factor > 1:
            raise ValueError("tighten_factor must exceed 1 and be finite")
        if not is_count(self.outer_iters):
            raise ValueError("outer_iters must be an integer of at least 1")
        if not self.margin >= 0:
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
            logs = np.zeros(len(keepout))
            for g in box.T:
                logs[:-1] -= np.log(-g)
            for g in keepout.T:
                logs -= np.log(-g)
        values = self.base.values(traj) + logs / self.sharpness
        values[outside] = math.inf
        return values

    def expand(self, traj):
        # Expansion arrays are freshly allocated by the base model.
        l_x, l_u, l_xx, l_uu = self.base.expand(traj)
        box, keepout = self.constraints.values(traj)
        _check_domain(box, keepout, self.margin, "iterate left the barrier domain")
        x = traj.states
        grad = self.constraints.keepout_gradient(np.arange(len(x)), x[:, :2], x[:, 2])
        inv_t = 1.0 / self.sharpness
        # Box faces are linear in one control: exact 1-D barrier derivatives.
        for (i, sign, _), g in zip(self.constraints.faces, box.T):
            l_u[:, i] -= inv_t * sign / g
            l_uu[:, i, i] += inv_t / g**2
        # Keep-out barriers: gradient and Gauss-Newton Hessian.
        for g, dg in zip(keepout.T, grad.transpose(1, 0, 2)):
            l_x[:, :2] -= inv_t * dg / g[:, None]
            outer = dg[:, :, None] * dg[:, None, :]
            l_xx[:, :2, :2] += inv_t * outer / (g**2)[:, None, None]
        return l_x, l_u, l_xx, l_uu


def _outside(box, keepout, margin):
    """Per stamp (T+1,): whether some constraint has -g <= margin."""
    outside = (-keepout <= margin).any(axis=1)
    outside[:-1] |= (-box <= margin).any(axis=1)
    return outside


def _check_domain(box, keepout, margin, problem):
    """Raise BarrierDomainViolation at the first stamp outside the domain."""
    outside = _outside(box, keepout, margin)
    if outside.any():
        tau = int(np.argmax(outside))
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
    status (`converged` or `max_iters`), or `failed` when the regularization
    runs out.

    Raises:
        BarrierDomainViolation: the zero-control seed rollout (or, defensively,
        a later nominal iterate) is not strictly feasible. This is the
        documented limitation that the consensus solver avoids.
    """
    settings = settings or BarrierSettings()
    cost, dynamics, constraints = problem.cost, problem.dynamics, problem.constraints

    y = ilqr.rollout(dynamics, problem.x0, np.zeros((problem.horizon, 2)))
    check_strict_feasibility(y, constraints, settings.margin)
    # A strictly feasible seed violates nothing.
    violation = 0.0
    # Constraint terms: box faces on the T controls, keep-outs on the T+1 states.
    terms = (len(constraints.faces) * problem.horizon
             + len(constraints.obstacles) * (problem.horizon + 1))

    report = SolveReport(y, STATUS_MAX_ITERS)
    sharpness = settings.initial_sharpness
    for stage in range(settings.outer_iters):
        iter_start = time.perf_counter()
        inner = settings.ilqr
        if stage < settings.outer_iters - 1:
            gap = CENTERING_FRACTION * terms / sharpness
            inner = replace(inner, cost_tolerance=max(inner.cost_tolerance, gap))
        barrier = BarrierCost(cost, constraints, sharpness, settings.margin)
        try:
            result = ilqr.solve(y, barrier, dynamics, inner)
        except RegularizationExhausted as exc:
            report.status = STATUS_FAILED
            report.message = str(exc)
            break
        y = result.trajectory
        violation = trajectory_violation(y, constraints)
        # The barrier has no consensus residual: its violation fills both.
        report.trajectory = y
        report.status = result.status
        report.records.append(IterationRecord(
            y, violation, violation, ilqr.total_cost(cost, y), result.iterations,
            time.perf_counter() - iter_start, result.alpha, result.rejected_steps,
            result.peak_mu, sharpness,
        ))
        sharpness *= settings.tighten_factor

    report.max_violation = violation
    return report
