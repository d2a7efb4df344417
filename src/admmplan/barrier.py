"""Log-barrier constrained iLQR, the comparison baseline.

Hard constraints g_i <= 0 are replaced by -(1/t) log(-g_i) penalties and the
smooth problem is solved by iLQR inside an outer loop that multiplies the
sharpness t by a fixed factor. The method needs a strictly feasible iterate
at all times: the seed rollout is checked up front, and line-search steps
that leave the barrier domain are rejected by an infinite cost.

Obstacle barrier Hessians keep only the Gauss-Newton (first-derivative outer
product) term so the quadratic model stays positive semidefinite; box-limit
barriers use their exact one-dimensional second derivatives.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ilqr
from .ilqr import ILQRSettings
from .admm import SolveReport, STATUS_CONVERGED, STATUS_FAILED, trajectory_violation
from .constraints import ConstraintSet, InputBounds
from .errors import BarrierDomainViolation, RegularizationExhausted


@dataclass
class BarrierSettings:
    initial_sharpness: float = 1.0  # starting t; barrier weight is 1/t
    tighten_factor: float = 5.0
    outer_iters: int = 5
    margin: float = 1e-6  # strict-feasibility slack on every g
    ilqr: ILQRSettings = field(default_factory=ILQRSettings)

    def __post_init__(self):
        if self.initial_sharpness <= 0:
            raise ValueError("initial_sharpness must be positive")
        if self.tighten_factor <= 1:
            raise ValueError("tighten_factor must exceed 1")


class BarrierCost:
    """Base cost plus log-barrier terms for the box and keep-out constraints.

    Evaluations outside the barrier domain return +inf so the line search
    backtracks; expansions raise BarrierDomainViolation instead, since they
    are only ever requested on accepted (feasible) nominal trajectories.
    """

    def __init__(
        self,
        base,
        constraints: ConstraintSet,
        sharpness: float,
        horizon: int,
        margin: float = 1e-6,
    ):
        self.base = base
        self.constraints = constraints
        self.sharpness = sharpness
        self.horizon = horizon
        self.margin = margin

    def _barrier_value(self, tau, x, u=None):
        gs = [g for g, _, _ in self.constraints.keepout(tau, x, x[2])]
        if u is not None:
            gs = self.constraints.box(u) + gs
        total = 0.0
        for g in gs:
            if -g <= self.margin:
                return math.inf
            total -= math.log(-g)
        return total / self.sharpness

    def stage(self, tau, x, u) -> float:
        penalty = self._barrier_value(tau, x, u)
        if not math.isfinite(penalty):
            return math.inf
        return self.base.stage(tau, x, u) + penalty

    def terminal(self, x) -> float:
        penalty = self._barrier_value(self.horizon, x)
        if not math.isfinite(penalty):
            return math.inf
        return self.base.terminal(x) + penalty

    def stage_expansion(self, tau, x, u):
        # Expansion blocks are freshly allocated by the base model.
        l_x, l_u, l_xx, l_ux, l_uu = self.base.stage_expansion(tau, x, u)
        inv_t = 1.0 / self.sharpness
        # Box faces are linear in one control: exact 1-D barrier derivatives.
        for (i, sign, _), g in zip(self.constraints.faces, self.constraints.box(u)):
            self._check_domain(-g, tau)
            l_u[i] -= inv_t * sign / g
            l_uu[i, i] += inv_t / g**2
        self._add_keepout(tau, x, l_x, l_xx)
        return l_x, l_u, l_xx, l_ux, l_uu

    def terminal_expansion(self, x):
        g_x, g_xx = self.base.terminal_expansion(x)
        self._add_keepout(self.horizon, x, g_x, g_xx)
        return g_x, g_xx

    def _add_keepout(self, tau, x, l_x, l_xx):
        """Add the keep-out barriers' gradient and Gauss-Newton Hessian."""
        inv_t = 1.0 / self.sharpness
        for g, gx, gy in self.constraints.keepout(tau, x, x[2]):
            self._check_domain(-g, tau)
            grad = np.array([gx, gy])
            l_x[:2] -= inv_t * grad / g
            l_xx[:2, :2] += inv_t * np.outer(grad, grad) / g**2

    def _check_domain(self, gap, tau):
        if gap <= self.margin:
            raise BarrierDomainViolation(
                f"iterate left the barrier domain at time index {tau}", tau=tau
            )


def check_strict_feasibility(
    traj: ilqr.Trajectory, constraints: ConstraintSet, margin: float
):
    """Raise BarrierDomainViolation at the first stamp violating any g < -margin."""
    for tau, x in enumerate(traj.states.tolist()):
        if any(-g <= margin for g, _, _ in constraints.keepout(tau, x, x[2])):
            raise BarrierDomainViolation(
                f"trajectory is not strictly clear of an obstacle at time index {tau}",
                tau=tau,
            )
        if tau < traj.horizon and any(
            -g <= margin for g in constraints.box(traj.controls[tau])
        ):
            raise BarrierDomainViolation(
                f"controls are not strictly inside their box at time index {tau}",
                tau=tau,
            )


def barrier_solve(
    x0,
    cost,
    dynamics,
    bounds: InputBounds,
    obstacles,
    horizon: int,
    settings: BarrierSettings | None = None,
    use_ego_heading: bool = False,
) -> SolveReport:
    """Constrained solve by the outer-inner log-barrier loop.

    Raises:
        BarrierDomainViolation: the zero-control seed rollout (or, defensively,
        a later nominal iterate) is not strictly feasible. This is the
        documented limitation that the consensus solver avoids.
    """
    settings = settings or BarrierSettings()
    constraints = ConstraintSet(
        bounds, obstacles, dynamics.params.timestep, use_ego_heading
    )
    start = time.perf_counter()

    y = ilqr.rollout(dynamics, np.asarray(x0, float), np.zeros((horizon, 2)))
    check_strict_feasibility(y, constraints, settings.margin)
    # A strictly feasible seed violates nothing.
    violation = 0.0

    report = SolveReport(y, STATUS_CONVERGED)
    sharpness = settings.initial_sharpness
    for _ in range(settings.outer_iters):
        iter_start = time.perf_counter()
        barrier = BarrierCost(cost, constraints, sharpness, horizon, settings.margin)
        try:
            result = ilqr.solve(
                x0, barrier, dynamics, settings.ilqr, initial_controls=y.controls
            )
        except RegularizationExhausted as exc:
            report.status = STATUS_FAILED
            report.message = str(exc)
            break
        y = result.trajectory
        report.trajectory = y
        report.iterations += 1
        report.cost_history.append(ilqr.total_cost(cost, y))
        report.ilqr_iterations.append(result.iterations)
        report.iteration_seconds.append(time.perf_counter() - iter_start)
        report.snapshots.append(y.copy())
        violation = trajectory_violation(y, constraints)
        report.primal_inf_history.append(violation)
        report.primal_two_history.append(violation)
        sharpness *= settings.tighten_factor

    report.max_violation = violation
    report.seconds = time.perf_counter() - start
    return report
