"""Planning harness: solves a scenario once per method, times each solve, and
emits CSV artifacts.

A run writes, under the output directory:

    config.yaml                  exact configuration used (round-trippable)
    <method>/trajectory_iterNNN.csv   trajectory of solver iteration NNN, for every one
    <method>/residuals.csv       one row per solver iteration
    <method>/timings.csv         one row: the solve's time, status, cost and violation

with one <method> directory per method run; method "all" runs each of METHODS.
A reused directory keeps no timings.csv, residuals.csv or trajectory file of an
earlier run, of any method. Only a method whose solve raised, such as the
barrier refusing its seed, writes its timings.csv alone.

Trajectory files carry the header `tau,t,px,py,theta,v,w,a` with the control
columns blank on the final row; residual files carry
`iter,residual_inf,residual_2,cost,ilqr_iters`. Both are written
from the report's `records`, one IterationRecord per iteration. Every
trajectory row is re-checked against the dynamics recursion at write time.

Timing measures the solver call only, and timings.csv is the one artifact
that holds a wall-clock value: every other file is byte-reproducible across
runs.
"""

import csv
import math
import sys
import time
from pathlib import Path

from .admm import Problem, SolveReport, admm_solve
from .barrier import barrier_solve
from .constraints import ConstraintSet
from .costs import TrackingCost
from .errors import ConfigError, PlannerError
from .ilqr import STATUS_FAILED, Trajectory
from .scenarios import ScenarioConfig, save_config
from .vehicle import BicycleModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

METHODS = ("admm", "barrier")
# How far a written trajectory's state may miss the step of the one before.
RECURSION_TOL = 1e-8


def build_problem(config: ScenarioConfig) -> Problem:
    """The problem a scenario configuration describes, with its one constraint set."""
    dynamics = BicycleModel(config.vehicle)
    constraints = ConstraintSet(config.bounds, config.obstacles, dynamics.params.timestep,
                                config.ego_heading_ellipses)
    return Problem(config.initial_state.as_array(), TrackingCost(config.weights, config.reference),
                   dynamics, constraints, config.horizon)


def solve_scenario(config: ScenarioConfig, method: str) -> SolveReport:
    """Run one solver on a scenario; barrier infeasibility propagates. Only
    the barrier takes settings, the scenario's `barrier` section."""
    if method == "admm":
        return admm_solve(build_problem(config))
    if method == "barrier":
        return barrier_solve(build_problem(config), config.barrier)
    raise ValueError(f"unknown method {method!r}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(traj: Trajectory, dynamics, path):
    """Emit one trajectory, re-validating the dynamics recursion row by row."""
    tau = traj.dynamics_break(dynamics, RECURSION_TOL)
    if tau is not None:
        raise PlannerError(f"trajectory breaks the dynamics recursion at time index {tau}")
    h = dynamics.params.timestep
    controls = traj.controls.tolist() + [[None, None]]
    _write_csv(path, ["tau", "t", "px", "py", "theta", "v", "w", "a"],
               ([tau, tau * h] + x + u
                for tau, (x, u) in enumerate(zip(traj.states.tolist(), controls))))


def write_residuals_csv(report: SolveReport, path):
    _write_csv(path, ["iter", "residual_inf", "residual_2", "cost", "ilqr_iters"],
               ([index, r.residual_inf, r.residual_two, r.cost, r.inner.iterations]
                for index, r in enumerate(report.records, 1)))


def emit_iterates(report: SolveReport, dynamics, out_dir):
    """Write the residual history and one trajectory file per record."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, record in enumerate(report.records, 1):
        path = out_dir / f"trajectory_iter{index:03d}.csv"
        write_trajectory_csv(record.trajectory, dynamics, path)
        paths.append(path)
    residual_path = out_dir / "residuals.csv"
    write_residuals_csv(report, residual_path)
    paths.append(residual_path)
    return paths


def run(config: ScenarioConfig, method: str, out_dir) -> int:
    """Solve with `method`, or with every method for "all", once each, write
    all artifacts, and return a process exit code.

    A solve that raises a PlannerError becomes a failed report with no
    trajectory, NaN cost and violation, and the error as its message.
    Raises ConfigError, before any file is written, unless `method` is one of
    METHODS or "all".
    """
    if method not in METHODS + ("all",):
        raise ConfigError(f"unknown method {method!r}, choose from {METHODS + ('all',)}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_config(config, out_dir / "config.yaml")
    except OSError as exc:
        print(f"cannot prepare output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO

    dynamics = BicycleModel(config.vehicle)
    any_failed = False
    try:
        for m in METHODS:
            for name in ("trajectory_iter*.csv", "residuals.csv", "timings.csv"):
                for stale in (out_dir / m).glob(name):
                    stale.unlink()
        for m in METHODS if method == "all" else (method,):
            start = time.perf_counter()
            try:
                report = solve_scenario(config, m)
            except PlannerError as exc:
                report = SolveReport(None, STATUS_FAILED, max_violation=math.nan, message=str(exc))
            seconds = time.perf_counter() - start
            method_dir = out_dir / m
            method_dir.mkdir(exist_ok=True)
            _write_csv(method_dir / "timings.csv",
                       ["method", "scenario", "seconds", "status", "final_cost", "max_violation"],
                       [[m, config.name, seconds, report.status, report.final_cost,
                         report.max_violation]])
            if report.trajectory is not None:
                emit_iterates(report, dynamics, method_dir)
            suffix = f" ({report.message})" if report.message else ""
            print(f"{m}: {report.status} in {seconds:.4f} s{suffix}")
            any_failed = any_failed or report.status == STATUS_FAILED
    except OSError as exc:
        print(f"I/O failure while writing artifacts: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_SOLVER if any_failed else EXIT_OK
