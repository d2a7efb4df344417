"""Consensus ADMM wrapper around the iLQR engine.

The constrained planning problem is split into a smooth subproblem (tracking
cost plus a quadratic consensus penalty under the dynamics) and a projection
subproblem (per-timestep Euclidean projection of the constraint-relevant block
onto the box and keep-out sets). A scaled dual variable ties the two together:

    y   <- one iLQR step on  cost(y) + sigma/2 ||sel(y) - z + lam/sigma||^2
    z   <- project(sel(y) + lam/sigma)                              (per stamp)
    lam <- lam + sigma (sel(y) - z)

where sel(y) extracts (px, py, steer, accel) per stamp, kept by each iterate.
The y-update is one Gauss-Newton step from the current y, not an argmin: the
next z and lam move its subproblem anyway. The loop, a generator that
`solve_report` turns into either solver's report, stops once the max-norm
primal residual ||sel(y) - z|| falls below PRIMAL_TOLERANCE; the
dynamics-feasible y is returned with its constraint violation, reported since
feasibility is only reached in the limit. The loop has no settings: sigma,
the iteration cap and the tolerance are module constants, the probe is one
iLQR solve at the engine's defaults and each consensus iteration one step of it.

Initially infeasible trajectories are fine: the first iterate is a plain
zero-control rollout, which is the advertised advantage over barrier-style
constrained iLQR.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ilqr
from .ilqr import STATUS_CONVERGED, STATUS_FAILED, STATUS_MAX_ITERS
from .constraints import FEASIBILITY_TOL, ConstraintSet, project_timestep
from .errors import DomainError, NonConvergence, RegularizationExhausted

BLOCK_DIM = 4  # (px, py, steer, accel)
# Raised inside a solve and reported as status "failed": the backward pass's
# regularization cap, the cyclic projection's sweep budget, and Jacobians
# requested at the kinematic domain boundary, which steps still accept.
SOLVE_FAILURES = (RegularizationExhausted, NonConvergence, DomainError)
# The consensus loop is fixed: the penalty SIGMA (scaled ADMM's rho), the cap
# of MAX_ADMM_ITERS consensus iterations, and the max-norm stopping threshold
# PRIMAL_TOLERANCE on the primal residual sel(y) - z.
SIGMA = 10.0
MAX_ADMM_ITERS = 20
PRIMAL_TOLERANCE = 1e-3


@dataclass
class IterationRecord:
    """One outer iteration: its inner iLQR result and the values of its
    residuals.csv row.

    `inner` is the iteration's `ILQRResult` itself, not a copy: its
    iterations (ilqr_iters column), line search and regularization are read
    from it, and `trajectory` is its iterate.
    """

    inner: ilqr.ILQRResult
    residual_inf: float  # residual_inf column
    residual_two: float  # residual_2 column
    cost: float  # base cost of the iterate; cost column
    seconds: float  # since the previous record or the seed rollout
    # The iteration's penalty weight: sigma for a consensus iteration, the
    # stage's sharpness t for a barrier stage, None for a probe exit.
    weight: float | None = None

    @property
    def trajectory(self) -> ilqr.Trajectory:
        return self.inner.trajectory


@dataclass
class SolveReport:
    """Outcome of a constrained solve plus one record per outer iteration.

    `trajectory` is the last record's iterate or, with no records, `seed`,
    the trajectory the solve started from.
    """

    seed: ilqr.Trajectory | None
    status: str
    records: list = field(default_factory=list)  # IterationRecord per iteration
    max_violation: float = 0.0
    message: str = ""

    @property
    def trajectory(self) -> ilqr.Trajectory | None:
        return self.records[-1].trajectory if self.records else self.seed

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_cost(self) -> float:
        return self.records[-1].cost if self.records else float("nan")

    @property
    def ilqr_iterations(self) -> list:
        return [r.inner.iterations for r in self.records]


@dataclass(frozen=True, eq=False)
class Problem:
    """One constrained planning problem, as both solvers take it.

    `cost` has `values(traj)` and `expand(traj)`; `dynamics` has step and
    jacobians, and its `params.timestep` must be the timestep `constraints`
    moves the obstacles with. `horizon` is the number of control stamps T.
    """

    x0: np.ndarray
    cost: object
    dynamics: object
    constraints: ConstraintSet
    horizon: int

    def __post_init__(self):
        if self.constraints.timestep != self.dynamics.params.timestep:
            raise ValueError(
                f"constraint timestep {self.constraints.timestep} differs from the "
                f"dynamics timestep {self.dynamics.params.timestep}"
            )
        x0 = np.asarray(self.x0, float)
        if x0.shape != (4,) or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be four finite numbers, got {self.x0!r}")
        object.__setattr__(self, "x0", x0)


def _blocks(traj: ilqr.Trajectory) -> np.ndarray:
    """The constraint-relevant blocks sel(traj), (px, py, steer, accel) per
    stamp with zeros in the final stamp's control slots, built once per
    trajectory and kept by it, read-only."""
    return traj.evaluation(_blocks, _build_blocks)


def _build_blocks(traj: ilqr.Trajectory) -> np.ndarray:
    T = traj.horizon
    blocks = np.zeros((T + 1, BLOCK_DIM))
    blocks[:, :2] = traj.states[:, :2]
    blocks[:T, 2:] = traj.controls
    blocks.flags.writeable = False
    return blocks


def _norms(diff: np.ndarray):  # the max-norm and np.linalg.norm's 2-norm
    flat = diff.ravel()
    return float(abs(flat).max()), math.sqrt(flat.dot(flat))


class PenalizedCost:
    """Base cost plus the quadratic consensus penalty of one ADMM iteration.

    `z` and `lam` are the constraint-side copy and the scaled duals, one
    (px, py, steer, accel) block per stamp, shape (T+1, 4). Stage stamps
    penalize the full block; the terminal stamp penalizes position only, so
    the final block's control slots are never read. Over a trajectory,
    `values` adds sigma/2 times each stamp's squared offset to the base
    values, and `expand` adds sigma times the offsets to the gradients and
    sigma to the selected Hessian diagonals, as array operations on kept blocks.
    """

    def __init__(self, base, z, lam, sigma: float):
        self.base = base
        self.sigma = sigma
        # Effective penalty centers z - lam/sigma, fixed for the iteration.
        self.centers = z - lam / sigma
        self.centers[-1, 2:] = 0.0

    def values(self, traj) -> np.ndarray:
        off = _blocks(traj) - self.centers
        squares = (off[:, None, :] @ off[:, :, None])[:, 0, 0]
        return self.base.values(traj) + 0.5 * self.sigma * squares

    def expand(self, traj):
        # Expansion arrays are freshly allocated by the base model, so they
        # can be updated in place.
        l_x, l_u, l_xx, l_uu = self.base.expand(traj)
        off = _blocks(traj) - self.centers
        l_x[:, :2] += self.sigma * off[:, :2]
        l_u += self.sigma * off[:-1, 2:]
        for hessian in (l_xx, l_uu):
            hessian[:, 0, 0] += self.sigma
            hessian[:, 1, 1] += self.sigma
        return l_x, l_u, l_xx, l_uu


def project_consensus(targets, headings, constraints: ConstraintSet) -> np.ndarray:
    """Project the consensus blocks (T+1, 4) of every stamp onto the constraints.

    The box touches only the controls and the keep-outs only the position, so
    the projection splits: the controls of all stamps are clamped onto the
    set's `control_box` by one stacked clip, and only the positions of stamps
    with a keep-out value above FEASIBILITY_TOL go through `project_timestep`.
    """
    g = constraints.horizon_keepout(targets[:, :2], headings)
    z = targets.copy()
    np.clip(targets[:, 2:], *constraints.control_box, out=z[:, 2:])
    for tau in np.flatnonzero((g > FEASIBILITY_TOL).any(axis=1)).tolist():
        z[tau, :2] = project_timestep(targets[tau, :2].tolist(), constraints, tau, headings[tau])
    return z


def trajectory_violation(traj: ilqr.Trajectory, constraints: ConstraintSet) -> float:
    """Largest constraint violation along a trajectory (0 when feasible).

    A module-level entry point, so the scan shows up as its own layer in
    profiles of a solve.
    """
    return constraints.violation(traj)


def solve_report(seed, iterations, problem: Problem) -> SolveReport:
    """The report of a solve from `seed`, built from its outer iterations.

    `iterations` yields `(result, residual_inf, residual_two, weight, status)`
    per outer iteration, `status` being the report's if the solve ends there.
    A record's seconds run from the end of the previous record (the first's
    from this call). `SOLVE_FAILURES` end it "failed", finished records kept.
    """
    report = SolveReport(seed, STATUS_MAX_ITERS)
    marks = [time.perf_counter()]
    try:
        for result, res_inf, res_two, weight, report.status in iterations:
            cost = ilqr.total_cost(problem.cost, result.trajectory)
            marks.append(time.perf_counter())
            report.records.append(IterationRecord(
                result, res_inf, res_two, cost, marks[-1] - marks[-2], weight))
    except SOLVE_FAILURES as exc:
        report.status, report.message = STATUS_FAILED, str(exc)
    report.max_violation = trajectory_violation(report.trajectory, problem.constraints)
    return report


def admm_solve(problem: Problem) -> SolveReport:
    """Plan a constrained trajectory by consensus splitting.

    Returns:
        SolveReport with the final dynamics-feasible trajectory, one
        IterationRecord per consensus iteration (the probe's optimum is the
        single record of a probe exit), and the trajectory's residual
        constraint violation.
        Internal solver failures are reported as status "failed" on a partial
        report rather than raised.
    """
    # The only rollout: the probe's nominal, the first iterate, a failed probe's answer.
    rollout0 = ilqr.rollout(problem.dynamics, problem.x0, np.zeros((problem.horizon, 2)))
    return solve_report(rollout0, _consensus(problem, rollout0), problem)


def _consensus(problem: Problem, y: ilqr.Trajectory):
    """The probe, then the consensus iterations from `y`, as `solve_report` items."""
    # Probe: solve the unconstrained base problem first. If its optimum is
    # already feasible the splitting has nothing to do; consensus holds
    # exactly and the solve is finished. (On an infeasible probe the result
    # is discarded: seeding the consensus from a deeply violating optimum
    # produces far worse projection targets than the plain rollout.)
    probe = ilqr.solve(y, problem.cost, problem.dynamics)
    if trajectory_violation(probe.trajectory, problem.constraints) <= FEASIBILITY_TOL:
        yield probe, 0.0, 0.0, None, STATUS_CONVERGED
        return

    z = _blocks(y).copy()
    lam = np.zeros_like(z)
    # The residual test only ends the solve once the constraints have bitten
    # at least once; before that a feasible iterate just means the consensus
    # has nothing to say yet while the objective is still improving.
    engaged = False

    for _ in range(MAX_ADMM_ITERS):
        penalized = PenalizedCost(problem.cost, z, lam, SIGMA)
        result = ilqr.solve(y, penalized, problem.dynamics, max_iters=1)
        y = result.trajectory
        sel = _blocks(y)
        z = project_consensus(sel + lam / SIGMA, y.states[:, 2], problem.constraints)
        diff = sel - z
        lam += SIGMA * diff
        res_inf, res_two = _norms(diff)
        if res_inf >= PRIMAL_TOLERANCE:
            engaged = True
        elif engaged:
            yield result, res_inf, res_two, SIGMA, STATUS_CONVERGED
            return
        yield result, res_inf, res_two, SIGMA, STATUS_MAX_ITERS
