"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py` doubles as a
checklist. Tolerances are fixed here, not tuned at runtime."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from admmplan import cli, ilqr
from admmplan.admm import admm_solve
from admmplan.barrier import barrier_solve
from admmplan.constraints import ConstraintSet, InputBounds, Obstacle, project_timestep
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.errors import BarrierDomainViolation
from admmplan.harness import build_problem, solve_scenario
from admmplan.ilqr import Trajectory
from admmplan.scenarios import builtin_scenario, save_config
from admmplan.vehicle import BicycleModel, State, VehicleParams, jacobians

from oracles import (
    LinearDynamics,
    QuadraticCost,
    dense_ellipse_boundary,
    keepout_at,
    nearest_on_boundary,
    random_lqr_instance,
    riccati_optimal,
)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_lqr_oracle_equivalence():
    """iLQR matches the Riccati-optimal cost on random LQ instances."""
    settings = dict(max_iters=50, cost_tolerance=1e-10)
    horizon = 60

    def solve(A, B, Q, R, Qf, x0):
        """Relative cost error against the Riccati optimum, and milliseconds."""
        opt_cost, _, _, _ = riccati_optimal(A, B, Q, R, Qf, x0, horizon)
        start = time.perf_counter()
        dynamics = LinearDynamics(A, B)
        result = ilqr.solve(
            ilqr.rollout(dynamics, x0, np.zeros((horizon, 2))),
            QuadraticCost(Q, R, Qf), dynamics, **settings,
        )
        elapsed = (time.perf_counter() - start) * 1e3
        return abs(result.cost - opt_cost) / abs(opt_cost), elapsed

    rng = np.random.default_rng(2024)
    instances = [random_lqr_instance(rng) for _ in range(20)]
    # One untimed solve of the first instance generates and compiles the
    # Riccati kernels of the instances' patterns, a one-time cost; its
    # accuracy still counts.
    worst_rel, _ = solve(*instances[0])
    worst_ms = 0.0
    for instance in instances:
        rel, elapsed = solve(*instance)
        worst_rel = max(worst_rel, rel)
        worst_ms = max(worst_ms, elapsed)
    ok = worst_rel < 1e-8 and worst_ms < 50.0
    report("criterion 1: LQR oracle equivalence", ok,
           f"max rel err {worst_rel:.2e}, max {worst_ms:.1f} ms")


def test_criterion_2_derivative_suite():
    """Analytic Jacobians and cost expansions match central differences."""
    params = VehicleParams()
    step = BicycleModel(params).step
    weights = CostWeights(0.7, 1.1, 0.6, 0.3, 2.0)
    costs = [
        TrackingCost(weights, Reference(py_ref=0.0, v_ref=8.0)),
        TrackingCost(weights, Reference(
            polyline=((0.0, 0.0), (20.0, 0.0), (40.0, 5.0)), v_ref=6.0)),
    ]

    def at(x, u):
        # Row 0 of a cost's values is the stage term at (x, u), row 1 the
        # terminal term at x.
        return Trajectory(np.array([x, x]), np.array([u]))

    rng = np.random.default_rng(7)
    eps = 1e-6
    worst = 0.0
    for i in range(1000):
        x = rng.uniform([-10, -10, -3, -2], [40, 10, 3, 12])
        u = rng.uniform([-0.6, -3], [0.6, 3])
        f_x, f_u = jacobians(x, u, params)
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (np.asarray(step(x + dx, u))
                  - np.asarray(step(x - dx, u))) / (2 * eps)
            worst = max(worst, np.abs(fd - f_x[:, j]).max())
        for j in range(2):
            du = np.zeros(2)
            du[j] = eps
            fd = (np.asarray(step(x, u + du))
                  - np.asarray(step(x, u - du))) / (2 * eps)
            worst = max(worst, np.abs(fd - f_u[:, j]).max())
        cost = costs[i % 2]
        l_x, l_u, _, _ = cost.expand(at(x, u))
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (cost.values(at(x + dx, u))
                  - cost.values(at(x - dx, u))) / (2 * eps)
            worst = max(worst, np.abs(fd - l_x[:, j]).max())
        for j in range(2):
            du = np.zeros(2)
            du[j] = eps
            fd = (cost.values(at(x, u + du))
                  - cost.values(at(x, u - du))) / (2 * eps)
            worst = max(worst, abs(fd[0] - l_u[0, j]))
    ok = worst < 1e-5
    report("criterion 2: derivative suite", ok, f"max abs err {worst:.2e}")


def test_criterion_3_projection_oracle():
    """Exterior projection matches dense boundary sampling; idempotent."""
    rng = np.random.default_rng(11)
    worst_match = 0.0
    worst_idem = 0.0
    cases = [
        ((0.0, 0.0), 0.0, 5.0, 2.5),
        ((4.0, -2.0), 0.9, 5.0, 2.5),
        ((-3.0, 1.0), -1.7, 4.0, 1.5),
        ((10.0, 10.0), 2.4, 6.0, 3.0),
    ]
    per_case = 50  # 4 cases x 50 points = 200 interior points
    for center, heading, a, b in cases:
        obstacle = Obstacle(center, heading=heading, semi_major=a, semi_minor=b)
        constraints = ConstraintSet(InputBounds(), [obstacle], 0.1)
        center = np.asarray(center)
        boundary = dense_ellipse_boundary(center, heading, a, b, 1_000_000)
        c, s = math.cos(heading), math.sin(heading)
        rot = np.array([[c, -s], [s, c]])
        for _ in range(per_case):
            r = math.sqrt(rng.uniform(0.0, 0.97))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p = center + rot @ np.array([a * r * math.cos(phi),
                                         b * r * math.sin(phi)])
            out = np.array(project_timestep(p, constraints, 0))
            best = nearest_on_boundary(p, boundary)
            worst_match = max(worst_match, float(np.linalg.norm(out - best)))
            again = np.array(project_timestep(out, constraints, 0))
            worst_idem = max(worst_idem, float(np.linalg.norm(again - out)))
    ok = worst_match < 1e-4 and worst_idem < 1e-9
    report("criterion 3: projection oracle", ok,
           f"sampling mismatch {worst_match:.2e}, idempotence {worst_idem:.2e}")


def scenario_constraint_summary(cfg, traj):
    h = cfg.vehicle.timestep
    max_steer = float(np.abs(traj.controls[:, 0]).max())
    a_min = float(traj.controls[:, 1].min())
    a_max = float(traj.controls[:, 1].max())
    constraints = ConstraintSet(cfg.bounds, cfg.obstacles, h)
    worst_h = float(np.max(
        keepout_at(constraints, np.arange(traj.horizon + 1), traj.states[:, :2])
    ))
    return max_steer, a_min, a_max, worst_h


def test_criterion_4_scenario_1_reproduction():
    """Static avoidance: convergence, constraints, speed, residual decay."""
    cfg = builtin_scenario(1)
    start = time.perf_counter()
    rep = solve_scenario(cfg, "admm")
    elapsed = time.perf_counter() - start
    traj = rep.trajectory
    max_steer, a_min, a_max, worst_h = scenario_constraint_summary(cfg, traj)
    residuals = [r.residual_inf for r in rep.records]
    decay = residuals[-1] / residuals[0]
    checks = {
        "converged within 20": rep.status == "converged" and rep.iterations <= 20,
        "steering box": max_steer <= 0.6 + 1e-9,
        "acceleration box": a_min >= -3.0 - 1e-9 and a_max <= 3.0 + 1e-9,
        "keep-out h <= 1e-3": worst_h <= 1e-3,
        "terminal speed within 0.5 of 8": abs(traj.states[-1, 3] - 8.0) <= 0.5,
        "residual < 1% of iteration 1": decay < 0.01,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = all(checks.values())
    report("criterion 4: scenario 1 reproduction", ok,
           f"iters={rep.iterations}, |w|max={max_steer:.3f}, "
           f"a in [{a_min:.2f},{a_max:.2f}], h_max={worst_h:.2e}, "
           f"v_T={traj.states[-1, 3]:.3f}, decay={decay:.2e}, {elapsed:.2f}s; "
           + ", ".join(k for k, v in checks.items() if not v))


def test_criterion_5_scenario_2_reproduction():
    """Dynamic avoidance: time-matched constraints, speed, lane change."""
    cfg = builtin_scenario(2)
    start = time.perf_counter()
    rep = solve_scenario(cfg, "admm")
    elapsed = time.perf_counter() - start
    traj = rep.trajectory
    max_steer, a_min, a_max, worst_h = scenario_constraint_summary(cfg, traj)
    final_speed = traj.states[-1, 3]
    lane_error = abs(traj.states[-1, 1] - 4.0)
    checks = {
        "steering box": max_steer <= 0.6 + 1e-9,
        "acceleration box": a_min >= -3.0 - 1e-9 and a_max <= 3.0 + 1e-9,
        "time-matched keep-out h <= 1e-3": worst_h <= 1e-3,
        "final speed in [7.5, 8.7]": 7.5 <= final_speed <= 8.7,
        "lane change complete (|py_T - 4| <= 0.2)": lane_error <= 0.2,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = all(checks.values())
    report("criterion 5: scenario 2 reproduction", ok,
           f"v_T={final_speed:.3f}, |py_T-4|={lane_error:.3f}, "
           f"h_max={worst_h:.2e}, {elapsed:.2f}s; "
           + ", ".join(k for k, v in checks.items() if not v))


def test_criterion_6_infeasible_seed_contrast():
    """Barrier fails on the default seeds; the consensus solver succeeds."""
    outcomes = []
    for sid in (1, 2):
        cfg = builtin_scenario(sid)
        problem = build_problem(cfg)
        try:
            barrier_solve(problem, cfg.barrier)
            barrier_failed = False
        except BarrierDomainViolation:
            barrier_failed = True
        admm_report = admm_solve(problem)
        outcomes.append((sid, barrier_failed, admm_report.status))
    ok = all(bf and status == "converged" for _, bf, status in outcomes)
    report("criterion 6: infeasible-seed contrast", ok, str(outcomes))


def test_criterion_7_relative_speed():
    """Consensus solver beats the barrier baseline by at least 1.5x."""
    trials = 5
    details = []
    ok = True
    for sid, v0 in ((1, 0.0), (2, 4.0)):
        cfg = replace(builtin_scenario(sid),
                      initial_state=State(0.0, 0.0, 0.0, v0))
        means = {}
        for method in ("admm", "barrier"):
            times = []
            for _ in range(trials):
                start = time.perf_counter()
                solve_scenario(cfg, method)
                times.append(time.perf_counter() - start)
            means[method] = float(np.mean(times))
        ratio = means["barrier"] / means["admm"]
        ok = ok and means["admm"] < means["barrier"] and ratio >= 1.5
        details.append(
            f"S{sid}(v0={v0:g}): admm {means['admm']:.3f}s "
            f"barrier {means['barrier']:.3f}s ratio {ratio:.2f}"
        )
    report("criterion 7: relative speed", ok, "; ".join(details))


def test_criterion_8_inactive_splitting_identity():
    """With nothing to project, the split solve equals plain iLQR."""
    worst = 0.0
    for sid in (1, 2):
        cfg = replace(builtin_scenario(sid), bounds=InputBounds(1e9, 1e9, -1e9), obstacles=[])
        problem = build_problem(cfg)
        rep = admm_solve(problem)
        plain = ilqr.solve(ilqr.rollout(problem.dynamics, problem.x0, np.zeros((cfg.horizon, 2))),
                           problem.cost, problem.dynamics)
        worst = max(worst, abs(rep.records[-1].cost - plain.cost) / abs(plain.cost))
    ok = worst < 1e-6
    report("criterion 8: inactive-splitting identity", ok,
           f"max rel cost diff {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    """Two identical CLI runs emit byte-identical trajectory/residual files,
    for S1 by ADMM and for S1 from standstill by the log barrier."""
    standstill = tmp_path / "s1_standstill.yaml"
    save_config(replace(builtin_scenario(1), initial_state=State(0.0, 0.0, 0.0, 0.0)),
                standstill)
    runs = {
        "s1_admm": ["--scenario", "1", "--method", "admm"],
        "s1_standstill_barrier": ["--config", str(standstill), "--method", "barrier"],
    }
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        for name, args in runs.items():
            code = cli.main(args + ["--out", str(d / name)])
            assert code == 0
    files = sorted(
        p.relative_to(dirs[0])
        for p in dirs[0].rglob("*.csv")
        if p.name != "timings.csv"
    )
    mismatched = [
        str(rel) for rel in files
        if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes()
    ]
    per_run = [sum(rel.parts[0] == name for rel in files) for name in runs]
    ok = not mismatched and min(per_run) >= 4
    report("criterion 9: CLI determinism", ok,
           f"{len(files)} files compared" + (f", mismatched {mismatched}" if mismatched else ""))
