"""The log-barrier baseline for constrained iLQR.

`BarrierCost` adds phi(g) = -log(-g) / t of every constraint value g to a base
cost. Its domain is the strictly feasible iterates, every g < -MARGIN: the
stages check their start first, and the line search rejects the trials that
leave it. A trial whose first control leaves the box is rejected by `admits`
before it is rolled out; any other trial outside gets an infinite cost. Box
faces are linear in one control and take phi'' exactly; keep-out Hessians
keep only the Gauss-Newton (first-derivative outer product) term, so the
quadratic model stays positive semidefinite. Each family's terms are formed
in one call over its stacked columns, one per box face or obstacle, and
summed over them in one call.

The barrier is solved by iLQR inside an outer loop that multiplies the
sharpness t by a fixed factor: a generator of stages that
`admm.solve_report` turns into the report. Only the last stage's answer is
returned, so only it is centered to the configured `cost_tolerance`. On a
convex problem a stage at sharpness t is within m/t of the optimum, m being
the number of constraint terms (Boyd & Vandenberghe, *Convex Optimization*,
§11.3), and centering it far below that bound buys nothing: earlier stages
stop at the looser of the configured tolerance and CENTERING_FRACTION * m / t.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ilqr
from .ilqr import is_count, require
from .admm import Problem, SolveReport, solve_report, trajectory_violation
from .constraints import ConstraintSet
from .errors import BarrierDomainViolation

# Stages before the last stop once their cost improves by less than this
# fraction of their duality-gap bound m/t.
CENTERING_FRACTION = 1e-3
# The barrier's domain: every g < -MARGIN.
MARGIN = 1e-6


@dataclass(frozen=True)
class BarrierSettings:
    initial_sharpness: float = 1.0  # starting t; barrier weight is 1/t
    tighten_factor: float = 5.0
    outer_iters: int = 5
    cost_tolerance: float = 1e-4  # the last stage's iLQR tolerance, a floor for the others

    def __post_init__(self):
        require(self.initial_sharpness, "initial_sharpness", lambda v: math.inf > v > 0,
                "be positive and finite")
        require(self.tighten_factor, "tighten_factor", lambda v: math.inf > v > 1,
                "exceed 1 and be finite")
        require(self.outer_iters, "outer_iters", is_count, "be an integer of at least 1")
        require(self.cost_tolerance, "cost_tolerance", lambda v: math.inf > v > 0,
                "be positive and finite")


class BarrierCost:
    """Base cost plus the log barrier phi(g) = -log(-g) / t on every box and
    keep-out value g, where every -g > MARGIN.

    Over a trajectory, `values` adds the sum of phi over the box faces of the
    first T stamps and the keep-outs of all stamps to the base values, and is
    +inf at each stamp outside the domain; `expand` adds, per box face, phi'
    times its sign to l_u and phi'' to its l_uu diagonal entry, and per
    keep-out, phi' dg to l_x and phi'' dg dg' to l_xx in the first k states:
    (px, py) or, with the ego heading, (px, py, theta). It raises
    BarrierDomainViolation at the first stamp outside. `admits` is the box
    test of one control, which `ilqr.solve` runs on each line-search trial's
    first control before rolling the trial out.
    """

    def __init__(self, base, constraints: ConstraintSet, sharpness: float):
        self.base, self.constraints, self.sharpness = base, constraints, sharpness
        self._faces = list(zip(constraints.face_index.tolist(), constraints.face_signs.tolist(),
                               constraints.face_limits.tolist()))

    def admits(self, steer: float, accel: float) -> bool:
        """Whether the control (steer, accel) passes every finite box face,
        g < -MARGIN, in the float expression of `values`, on plain floats:
        NaN fails, and the set's absent faces are never tested."""
        u = (steer, accel)
        return all(sign * u[i] - limit < -MARGIN for i, sign, limit in self._faces)

    def values(self, traj) -> np.ndarray:
        box, keepout = self.constraints.values(traj)
        inv_t = 1.0 / self.sharpness
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = (np.log(-keepout) * -inv_t).sum(axis=1)
            terms[:-1] += (np.log(-box) * -inv_t).sum(axis=1)
        values = self.base.values(traj) + terms
        values[_outside(box, keepout)] = math.inf
        return values

    def expand(self, traj):
        # Expansion arrays are freshly allocated by the base model.
        l_x, l_u, l_xx, l_uu = self.base.expand(traj)
        box, keepout = self.constraints.values(traj)
        _check_domain(box, keepout, "iterate left the barrier domain")
        inv_t = 1.0 / self.sharpness
        faces = self.constraints.face_index
        np.add.at(l_u, (slice(None), faces), -inv_t / box * self.constraints.face_signs)
        np.add.at(l_uu, (slice(None), faces, faces), inv_t / box**2)
        dg = self.constraints.trajectory_gradient(traj)
        k = dg.shape[-1]
        l_x[:, :k] += ((-inv_t / keepout)[:, :, None] * dg).sum(axis=1)
        outer = dg[..., :, None] * dg[..., None, :]
        l_xx[:, :k, :k] += ((inv_t / keepout**2)[:, :, None, None] * outer).sum(axis=1)
        return l_x, l_u, l_xx, l_uu


def _outside(box, keepout):
    """Per stamp (T+1,): whether some constraint fails g < -MARGIN, NaN included."""
    outside = ~(keepout < -MARGIN).all(axis=1)
    outside[:-1] |= ~(box < -MARGIN).all(axis=1)
    return outside


def _check_domain(box, keepout, problem):
    """Raise BarrierDomainViolation at the first stamp outside the domain."""
    if not ((keepout < -MARGIN).all() and (box < -MARGIN).all()):
        tau = int(np.argmax(_outside(box, keepout)))
        raise BarrierDomainViolation(f"{problem} at time index {tau}", tau=tau)


def check_strict_feasibility(traj: ilqr.Trajectory, constraints: ConstraintSet):
    """The (box, keep-out) values of `traj`, read-only, if every g < -MARGIN;
    else BarrierDomainViolation at the first stamp where one is not."""
    box, keepout = constraints.values(traj)
    _check_domain(box, keepout, "trajectory is not strictly feasible")
    return box, keepout


def barrier_solve(problem: Problem, settings: BarrierSettings = BarrierSettings()) -> SolveReport:
    """Constrained solve by the log-barrier stages from the zero-control seed.

    Raises BarrierDomainViolation when the seed (or, defensively, a later
    nominal iterate) is not strictly feasible: the documented limitation that
    the consensus solver avoids.
    """
    y = ilqr.rollout(problem.dynamics, problem.x0, np.zeros((problem.horizon, 2)))
    return solve_report(y, _stages(problem, settings, y), problem)


def _stages(problem: Problem, settings: BarrierSettings, y: ilqr.Trajectory):
    """The barrier stages from `y`, as `admm.solve_report` items.

    `y` must be strictly feasible (`check_strict_feasibility`); its values
    count m, the constraint terms. Stage i solves at sharpness t =
    initial_sharpness * tighten_factor**i from the previous stage's answer,
    to the configured cost tolerance at the last stage and to the looser of
    that and CENTERING_FRACTION * m / t before; each yields its inner status.
    """
    box, keepout = check_strict_feasibility(y, problem.constraints)
    terms = box.size + keepout.size
    sharpness = settings.initial_sharpness
    for stage in range(settings.outer_iters):
        tolerance = settings.cost_tolerance
        if stage < settings.outer_iters - 1:
            tolerance = max(tolerance, CENTERING_FRACTION * terms / sharpness)
        barrier = BarrierCost(problem.cost, problem.constraints, sharpness)
        result = ilqr.solve(y, barrier, problem.dynamics, cost_tolerance=tolerance)
        y = result.trajectory
        # The barrier has no consensus residual: its violation fills both.
        violation = trajectory_violation(y, problem.constraints)
        yield result, violation, violation, sharpness, result.status
        sharpness *= settings.tighten_factor
