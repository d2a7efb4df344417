"""Benchmark harness: solves scenarios, times trials, and emits CSV artifacts.

A run writes, under the output directory:

    config.yaml                  exact configuration used (round-trippable)
    <method>/trajectory_iterNNN.csv   trajectory of a selected solver iteration
    <method>/residuals.csv       one row per solver iteration
    <method>/timings.csv         one row per trial plus a mean row

with one <method> directory per method run; method "all" runs each of METHODS.

Trajectory files carry the header `tau,t,px,py,theta,v,w,a` with the control
columns blank on the final row; residual files carry
`iter,residual_inf,residual_2,cost,ilqr_iters,seconds`. Both are written
from the report's `records`, one IterationRecord per iteration. Every
trajectory row is re-checked against the dynamics recursion at write time.

Timing measures the solver call only. The `seconds` column of residuals.csv
stays blank unless per-iteration timing is requested, keeping default outputs
byte-reproducible across runs.
"""

import csv
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from .admm import Problem, SolveReport, admm_solve
from .barrier import barrier_solve
from .constraints import ConstraintSet
from .costs import TrackingCost
from .errors import PlannerError
from .ilqr import STATUS_FAILED, Trajectory
from .scenarios import ScenarioConfig, save_config
from .vehicle import BicycleModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

METHODS = ("admm", "barrier")


@dataclass
class TrialRecord:
    """One timed trial and the report of its solve. A trial that raised has a
    failed report with no trajectory, NaN violation and the error as message."""

    method: str
    scenario: str
    trial: int
    seconds: float
    report: SolveReport


def build_problem(config: ScenarioConfig) -> Problem:
    """The problem a scenario configuration describes, with its one constraint set."""
    dynamics = BicycleModel(config.vehicle)
    constraints = ConstraintSet(config.bounds, config.obstacles, dynamics.params.timestep,
                                config.ego_heading_ellipses)
    return Problem(config.initial_state.as_array(), TrackingCost(config.weights, config.reference),
                   dynamics, constraints, config.horizon)


def solve_scenario(config: ScenarioConfig, method: str) -> SolveReport:
    """Run one solver on a scenario; barrier infeasibility propagates."""
    if method == "admm":
        solver, settings = admm_solve, config.admm
    elif method == "barrier":
        solver, settings = barrier_solve, config.barrier
    else:
        raise ValueError(f"unknown method {method!r}")
    return solver(build_problem(config), settings)


def run_trials(config: ScenarioConfig, method: str, trials: int) -> list:
    """Solve the same configuration `trials` times, one TrialRecord each.

    Failures are captured per trial; remaining trials still run.
    """
    records = []
    for index in range(1, trials + 1):
        start = time.perf_counter()
        try:
            report = solve_scenario(config, method)
        except PlannerError as exc:
            report = SolveReport(None, STATUS_FAILED, max_violation=math.nan, message=str(exc))
        records.append(TrialRecord(method, config.name, index,
                                   time.perf_counter() - start, report))
    return records


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(traj: Trajectory, dynamics, path, tol=1e-8):
    """Emit one trajectory, re-validating the dynamics recursion row by row."""
    tau = traj.dynamics_break(dynamics, tol)
    if tau is not None:
        raise PlannerError(f"trajectory breaks the dynamics recursion at time index {tau}")
    h = dynamics.params.timestep
    controls = traj.controls.tolist() + [[None, None]]
    _write_csv(path, ["tau", "t", "px", "py", "theta", "v", "w", "a"],
               ([tau, tau * h] + x + u
                for tau, (x, u) in enumerate(zip(traj.states.tolist(), controls))))


def write_residuals_csv(report: SolveReport, path, include_seconds=False):
    _write_csv(path, ["iter", "residual_inf", "residual_2", "cost", "ilqr_iters", "seconds"],
               ([index, r.residual_inf, r.residual_two, r.cost, r.inner.iterations,
                 r.seconds if include_seconds else None]
                for index, r in enumerate(report.records, 1)))


def write_timings_csv(records, path):
    rows = [[r.method, r.scenario, r.trial, r.seconds, r.report.status,
             r.report.final_cost, r.report.max_violation] for r in records]
    if records:
        mean = sum(r.seconds for r in records) / len(records)
        rows.append([records[0].method, records[0].scenario, "mean", mean, None, None, None])
    _write_csv(path, ["method", "scenario", "trial", "seconds", "status", "final_cost",
                      "max_violation"], rows)


def parse_snapshot_policy(text: str):
    """Parse `all` or a comma list of 1-based iteration indices and `last`."""
    text = text.strip().lower()
    if text == "all":
        return "all"
    picks = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "last":
            picks.add("last")
            continue
        index = int(token)
        if index < 1:
            raise ValueError(f"snapshot indices start at 1, got {index}")
        picks.add(index)
    if not picks:
        raise ValueError("empty snapshot policy")
    return picks


def emit_iterates(report: SolveReport, dynamics, out_dir, policy="1,2,last",
                  include_seconds=False):
    """Write the residual history and the per-iteration snapshots that
    `policy`, a `parse_snapshot_policy` text, selects.

    Snapshot indices past the solve's last iteration have no trajectory to
    write; they are skipped with a UserWarning that names them.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    picks = parse_snapshot_policy(policy)
    total = report.iterations
    if picks == "all":
        chosen = set(range(1, total + 1))
    else:
        chosen = {total if p == "last" else p for p in picks}
    dropped = sorted(i for i in chosen if i > total)
    if dropped:
        warnings.warn(f"snapshot indices {dropped} are past the last iteration ({total}); "
                      "no trajectory file is written for them", UserWarning, stacklevel=2)
    paths = []
    for index in sorted(i for i in chosen if 1 <= i <= total):
        path = out_dir / f"trajectory_iter{index:03d}.csv"
        write_trajectory_csv(report.records[index - 1].trajectory, dynamics, path)
        paths.append(path)
    residual_path = out_dir / "residuals.csv"
    write_residuals_csv(report, residual_path, include_seconds)
    paths.append(residual_path)
    return paths


def run(config: ScenarioConfig, method: str, trials: int, out_dir, snapshots: str = "1,2,last",
        include_seconds: bool = False) -> int:
    """Execute trials of `method`, or of every method for "all", write all
    artifacts, and return a process exit code."""
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
        for m in METHODS if method == "all" else (method,):
            records = run_trials(config, m, trials)
            method_dir = out_dir / m
            method_dir.mkdir(exist_ok=True)
            write_timings_csv(records, method_dir / "timings.csv")
            emitted = next((r.report for r in records if r.report.trajectory is not None), None)
            if emitted is not None:
                emit_iterates(emitted, dynamics, method_dir, snapshots, include_seconds)
            for r in records:
                suffix = f" ({r.report.message})" if r.report.message else ""
                print(f"{m} trial {r.trial}: {r.report.status} in {r.seconds:.4f} s{suffix}")
            if all(r.report.status == STATUS_FAILED for r in records):
                any_failed = True
    except OSError as exc:
        print(f"I/O failure while writing artifacts: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_SOLVER if any_failed else EXIT_OK
