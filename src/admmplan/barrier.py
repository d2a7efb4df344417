"""The log-barrier baseline for constrained iLQR.

`BarrierCost` adds phi(g) = -log(-g) / t of every constraint value g to a base
cost. Its domain is the strictly feasible iterates, every g < -MARGIN: the
stages check their start first, and line-search steps that leave it get an
infinite cost. Box faces are linear in one control and take phi'' exactly;
keep-out Hessians keep only the Gauss-Newton (first-derivative outer
product) term, so the quadratic model stays positive semidefinite. Each
family's terms are formed in one call over its stacked columns, one per box
face or obstacle, and summed over them in one call.

The barrier is solved by iLQR inside an outer loop that multiplies the
sharpness t by a fixed factor: a generator of stages that
`admm.solve_report` turns into the report. Only the last stage's answer is
returned, so only it is centered to the configured iLQR tolerance. On a
convex problem a stage at sharpness t is within m/t of the optimum, m being
the number of constraint terms (Boyd & Vandenberghe, *Convex Optimization*,
§11.3), and centering it far below that bound buys nothing: earlier stages
stop at the looser of the configured tolerance and CENTERING_FRACTION * m / t.
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
# The barrier's domain: every g < -MARGIN.
MARGIN = 1e-6


@dataclass
class BarrierSettings:
    initial_sharpness: float = 1.0  # starting t; barrier weight is 1/t
    tighten_factor: float = 5.0
    outer_iters: int = 5
    ilqr: ILQRSettings = field(default_factory=ILQRSettings)

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not (is_real(self.initial_sharpness) and math.inf > self.initial_sharpness > 0):
            raise ValueError("initial_sharpness must be positive and finite")
        if not (is_real(self.tighten_factor) and math.inf > self.tighten_factor > 1):
            raise ValueError("tighten_factor must exceed 1 and be finite")
        if not is_count(self.outer_iters):
            raise ValueError("outer_iters must be an integer of at least 1")


class BarrierCost:
    """Base cost plus the log barrier phi(g) = -log(-g) / t on every box and
    keep-out value g, where every -g > MARGIN.

    Over a trajectory, `values` adds the sum of phi over the box faces of the
    first T stamps and the keep-outs of all stamps to the base values, and is
    +inf at each stamp outside the domain; `expand` adds, per box face, phi'
    times its sign to l_u and phi'' to its l_uu diagonal entry, and per
    keep-out, phi' dg to l_x and phi'' dg dg' to l_xx in the first k states:
    (px, py) or, with the ego heading, (px, py, theta). It raises
    BarrierDomainViolation at the first stamp outside.
    """

    def __init__(self, base, constraints: ConstraintSet, sharpness: float):
        self.base, self.constraints, self.sharpness = base, constraints, sharpness

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


def barrier_solve(problem: Problem, settings: BarrierSettings | None = None) -> SolveReport:
    """Constrained solve by the log-barrier stages from the zero-control seed.

    Raises BarrierDomainViolation when the seed (or, defensively, a later
    nominal iterate) is not strictly feasible: the documented limitation that
    the consensus solver avoids.
    """
    settings = settings or BarrierSettings()
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
        inner = settings.ilqr
        if stage < settings.outer_iters - 1:
            gap = CENTERING_FRACTION * terms / sharpness
            inner = replace(inner, cost_tolerance=max(inner.cost_tolerance, gap))
        barrier = BarrierCost(problem.cost, problem.constraints, sharpness)
        result = ilqr.solve(y, barrier, problem.dynamics, inner)
        y = result.trajectory
        # The barrier has no consensus residual: its violation fills both.
        violation = trajectory_violation(y, problem.constraints)
        yield result, violation, violation, sharpness, result.status
        sharpness *= settings.tighten_factor
