"""Benchmark harness: solves scenarios, times trials, and emits CSV artifacts.

A run writes, under the output directory:

    config.yaml                  exact configuration used (round-trippable)
    <method>/trajectory_iterNNN.csv   trajectory of a selected solver iteration
    <method>/residuals.csv       one row per solver iteration
    <method>/timings.csv         one row per trial plus a mean row
    compare.csv                  joint timing table (only with compare=True)

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


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    controls = [list(map(_format, u)) for u in traj.controls.tolist()] + [["", ""]]
    _write_csv(path, ["tau", "t", "px", "py", "theta", "v", "w", "a"],
               ([tau, _format(tau * h)] + list(map(_format, x)) + u
                for tau, (x, u) in enumerate(zip(traj.states.tolist(), controls))))


def write_residuals_csv(report: SolveReport, path, include_seconds=False):
    _write_csv(path, ["iter", "residual_inf", "residual_2", "cost", "ilqr_iters", "seconds"],
               ([index, _format(r.residual_inf), _format(r.residual_two), _format(r.cost),
                 r.inner.iterations, _format(r.seconds) if include_seconds else ""]
                for index, r in enumerate(report.records, 1)))


def write_timings_csv(records, path):
    rows = [[r.method, r.scenario, r.trial, _format(r.seconds), r.report.status,
             _format(r.report.final_cost), _format(r.report.max_violation)] for r in records]
    if records:
        mean = sum(r.seconds for r in records) / len(records)
        rows.append([records[0].method, records[0].scenario, "mean", _format(mean), "", "", ""])
    _write_csv(path, ["method", "scenario", "trial", "seconds", "status", "final_cost",
                      "max_violation"], rows)


def write_compare_csv(records_by_method, path):
    """Joint per-trial timing table across methods, plus a mean row."""
    methods = list(records_by_method)
    rows = []
    for i, trial in enumerate(zip(*records_by_method.values()), 1):
        row = [i]
        for r in trial:
            row += [_format(r.seconds), r.report.status]
        rows.append(row)
    row = ["mean"]
    for recs in records_by_method.values():
        row += [_format(sum(r.seconds for r in recs) / len(recs)), ""]
    rows.append(row)
    _write_csv(path, ["trial"] + [f"{m}_{c}" for m in methods for c in ("seconds", "status")],
               rows)


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
        compare: bool = False, include_seconds: bool = False) -> int:
    """Execute trials, write all artifacts, and return a process exit code."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_config(config, out_dir / "config.yaml")
    except OSError as exc:
        print(f"cannot prepare output directory {out_dir}: {exc}")
        return EXIT_IO

    dynamics = BicycleModel(config.vehicle)
    methods = list(METHODS) if compare else [method]
    records_by_method = {}
    any_failed = False
    try:
        for m in methods:
            records = run_trials(config, m, trials)
            records_by_method[m] = records
            method_dir = out_dir / m
            method_dir.mkdir(exist_ok=True)
            write_timings_csv(records, method_dir / "timings.csv")
            emitted = next((r.report for r in records if r.report.trajectory is not None), None)
            if emitted is not None:
                emit_iterates(emitted, dynamics, method_dir, snapshots,
                              include_seconds)
            for r in records:
                suffix = f" ({r.report.message})" if r.report.message else ""
                print(f"{m} trial {r.trial}: {r.report.status} in {r.seconds:.4f} s{suffix}")
            if all(r.report.status == STATUS_FAILED for r in records):
                any_failed = True
        if compare:
            write_compare_csv(records_by_method, out_dir / "compare.csv")
    except OSError as exc:
        print(f"I/O failure while writing artifacts: {exc}")
        return EXIT_IO
    return EXIT_SOLVER if any_failed else EXIT_OK
