import math
from dataclasses import replace

import numpy as np
import pytest

from admmplan import admm, ilqr
from admmplan.admm import (
    ADMMSettings,
    SolveReport,
    PenalizedCost,
    admm_solve,
    primal_residual,
    project_consensus,
    select,
    trajectory_violation,
)
from admmplan.constraints import ConstraintSet, InputBounds, Obstacle, project_timestep
from admmplan.barrier import barrier_solve
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.harness import build_problem, solve_scenario
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, State, VehicleParams


def tracking_cost():
    return TrackingCost(CostWeights(), Reference(py_ref=0.0, v_ref=8.0))


def straight_rollout(v0=4.0, horizon=10):
    model = BicycleModel(VehicleParams())
    return model, ilqr.rollout(
        model, np.array([0.0, 0.0, 0.0, v0]), np.zeros((horizon, 2))
    )


def test_select_block_layout():
    _, traj = straight_rollout()
    blocks = select(traj)
    assert blocks.shape == (11, 4)
    np.testing.assert_allclose(blocks[1], [0.4, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(blocks[-1, 2:], [0.0, 0.0])


def test_select_is_linear():
    model = BicycleModel(VehicleParams())
    rng = np.random.default_rng(0)
    a = ilqr.Trajectory(rng.normal(size=(9, 4)), rng.normal(size=(8, 2)))
    b = ilqr.Trajectory(rng.normal(size=(9, 4)), rng.normal(size=(8, 2)))
    combo = ilqr.Trajectory(a.states + b.states, a.controls + b.controls)
    np.testing.assert_allclose(select(combo), select(a) + select(b), atol=1e-12)


def test_select_block_count():
    for horizon in (1, 7, 60):
        _, traj = straight_rollout(horizon=horizon)
        assert select(traj).shape[0] == horizon + 1


def test_primal_residual_zero_on_consensus():
    _, traj = straight_rollout()
    res_inf, res_two = primal_residual(traj, select(traj))
    assert res_inf == 0.0
    assert res_two == 0.0


def test_primal_residual_max_norm():
    _, traj = straight_rollout()
    z = select(traj)
    z[3, 0] += 0.5
    res_inf, res_two = primal_residual(traj, z)
    assert res_inf == pytest.approx(0.5)
    assert res_two == pytest.approx(0.5)


def test_primal_residual_matches_direct_norms():
    rng = np.random.default_rng(1)
    _, traj = straight_rollout()
    z = select(traj) + rng.normal(size=(11, 4))
    res_inf, res_two = primal_residual(traj, z)
    diff = select(traj) - z
    assert res_inf == pytest.approx(np.abs(diff).max())
    assert res_two == pytest.approx(np.linalg.norm(diff))


def test_penalty_vanishes_at_consensus():
    _, traj = straight_rollout()
    base = tracking_cost()
    z = select(traj)
    pen = PenalizedCost(base, z, np.zeros_like(z), 10.0)
    np.testing.assert_allclose(pen.values(traj), base.values(traj), rtol=1e-12)


def test_penalty_matches_direct_formula():
    rng = np.random.default_rng(2)
    _, traj = straight_rollout()
    base = tracking_cost()
    z = select(traj) + rng.normal(size=(11, 4))
    lam = rng.normal(size=(11, 4))
    sigma = 7.5
    pen = PenalizedCost(base, z, lam, sigma)
    values, base_values = pen.values(traj), base.values(traj)
    for tau in range(traj.horizon):
        x, u = traj.states[tau], traj.controls[tau]
        blk = np.array([x[0], x[1], u[0], u[1]])
        expected = base_values[tau] + 0.5 * sigma * np.sum(
            (blk - z[tau] + lam[tau] / sigma) ** 2
        )
        assert values[tau] == pytest.approx(expected, rel=1e-12)
    xT = traj.states[-1]
    expected = base_values[-1] + 0.5 * sigma * np.sum(
        (xT[:2] - z[-1, :2] + lam[-1, :2] / sigma) ** 2
    )
    assert values[-1] == pytest.approx(expected, rel=1e-12)


def test_penalty_small_sigma_limit():
    _, traj = straight_rollout()
    base = tracking_cost()
    z = select(traj) + 1.0
    base_value = base.values(traj)[2]
    for sigma in (1e-2, 1e-5, 1e-8):
        pen = PenalizedCost(base, z, np.zeros_like(z), sigma)
        excess = pen.values(traj)[2] - base_value
        assert excess == pytest.approx(0.5 * sigma * 4.0, rel=1e-9)
    assert PenalizedCost(base, z, np.zeros_like(z), 1e-12).values(traj)[2] == \
        pytest.approx(base_value, abs=1e-9)


def test_penalty_expansion_matches_finite_differences():
    rng = np.random.default_rng(3)
    _, traj = straight_rollout()
    base = tracking_cost()
    z = select(traj) + rng.normal(size=(11, 4))
    lam = rng.normal(size=(11, 4))
    pen = PenalizedCost(base, z, lam, 10.0)
    eps = 1e-6
    for _ in range(5):
        traj = ilqr.Trajectory(rng.normal(size=(11, 4)) * 3, rng.normal(size=(10, 2)))
        l_x, l_u, _, _ = pen.expand(traj)
        for rows, grad in ((traj.states, l_x), (traj.controls, l_u)):
            for index in np.ndindex(rows.shape):
                rows[index] += eps
                up = ilqr.total_cost(pen, traj)
                rows[index] -= 2 * eps
                down = ilqr.total_cost(pen, traj)
                rows[index] += eps
                assert (up - down) / (2 * eps) == pytest.approx(grad[index], abs=1e-5)


def test_settings_validation():
    with pytest.raises(ValueError):
        ADMMSettings(sigma=0.0)
    with pytest.raises(ValueError):
        ADMMSettings(max_admm_iters=0)
    with pytest.raises(ValueError):
        ADMMSettings(primal_tolerance=0.0)
    for field in ("sigma", "max_admm_iters", "primal_tolerance"):
        with pytest.raises(ValueError):
            ADMMSettings(**{field: math.nan})
    for value in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="integer"):
            ADMMSettings(max_admm_iters=value)


def solve_scenario_admm(sid, **kwargs):
    cfg = builtin_scenario(sid)
    x0, cost, dynamics = build_problem(cfg)
    return cfg, admm_solve(
        x0, cost, dynamics, cfg.bounds, cfg.obstacles, cfg.horizon, cfg.admm,
        **kwargs,
    )


def test_dual_update_identity():
    # replay the loop by hand and check the multiplier identity per iteration
    cfg = builtin_scenario(1)
    x0, cost, dynamics = build_problem(cfg)
    T = cfg.horizon
    y = ilqr.rollout(dynamics, x0, np.zeros((T, 2)))
    z = select(y)
    lam = np.zeros_like(z)
    sigma = cfg.admm.sigma
    constraints = ConstraintSet(cfg.bounds, cfg.obstacles, dynamics.params.timestep)
    for _ in range(4):
        pen = PenalizedCost(cost, z, lam, sigma)
        y = ilqr.solve(y, pen, dynamics, cfg.admm.ilqr).trajectory
        sel = select(y)
        targets = sel + lam / sigma
        for tau in range(T + 1):
            z[tau] = project_timestep(targets[tau], constraints, tau)
        lam_before = lam.copy()
        lam = lam + sigma * (sel - z)
        np.testing.assert_allclose(lam - lam_before, sigma * (sel - z), atol=1e-12)


def test_z_iterates_feasible():
    cfg = builtin_scenario(1)
    x0, cost, dynamics = build_problem(cfg)
    T = cfg.horizon
    y = ilqr.rollout(dynamics, x0, np.zeros((T, 2)))
    z = select(y)
    lam = np.zeros_like(z)
    sigma = cfg.admm.sigma
    constraints = ConstraintSet(cfg.bounds, cfg.obstacles, dynamics.params.timestep)
    for _ in range(6):
        pen = PenalizedCost(cost, z, lam, sigma)
        y = ilqr.solve(y, pen, dynamics, cfg.admm.ilqr).trajectory
        sel = select(y)
        targets = sel + lam / sigma
        for tau in range(T + 1):
            z[tau] = project_timestep(targets[tau], constraints, tau)
        lam += sigma * (sel - z)
        assert constraints.box(z[:, 2:]).max() <= 1e-6
        assert constraints.keepout(np.arange(T + 1), z[:, :2]).max() <= 1e-6


@pytest.mark.parametrize("scenario", [1, 2])
def test_stacked_projection_equals_per_stamp_projection(scenario, monkeypatch):
    # The projection targets of every ADMM iteration of S1/S2, as passed,
    # and with the inputs scaled past the box limits.
    calls = []

    def spy(targets, headings, constraints):
        calls.append((targets.copy(), headings.copy(), constraints))
        return project_consensus(targets, headings, constraints)

    monkeypatch.setattr(admm, "project_consensus", spy)
    solve_scenario(builtin_scenario(scenario), "admm")
    moved = clamped = 0
    for targets, headings, constraints in calls:
        for blocks in (targets, targets * [1.0, 1.0, 20.0, 20.0]):
            per_stamp = np.array([
                project_timestep(block, constraints, tau, heading)
                for tau, (block, heading) in enumerate(zip(blocks, headings))
            ])
            np.testing.assert_array_equal(project_consensus(blocks, headings, constraints),
                                          per_stamp)
            moved += np.count_nonzero((per_stamp[:, :2] != blocks[:, :2]).any(axis=1))
            clamped += np.count_nonzero((per_stamp[:, 2:] != blocks[:, 2:]).any(axis=1))
    assert len(calls) == 6 and moved > 0 and clamped > 0


def test_inactive_splitting_matches_plain_ilqr():
    for sid in (1, 2):
        cfg = builtin_scenario(sid)
        x0, cost, dynamics = build_problem(cfg)
        bounds = InputBounds(1e9, 1e9, -1e9)
        report = admm_solve(x0, cost, dynamics, bounds, [], cfg.horizon, cfg.admm)
        plain = ilqr.solve(ilqr.rollout(dynamics, x0, np.zeros((cfg.horizon, 2))),
                           cost, dynamics, cfg.admm.ilqr)
        assert report.status == "converged"
        assert [r.residual_inf for r in report.records] == [0.0]
        assert abs(report.records[-1].cost - plain.cost) <= 1e-6 * abs(plain.cost)


def test_scenario1_report_contents():
    cfg, report = solve_scenario_admm(1)
    assert report.status == "converged"
    assert report.iterations <= cfg.admm.max_admm_iters
    assert len(report.records) == report.iterations
    assert len(report.ilqr_iterations) == report.iterations
    # residual decays to near-feasibility and the trajectory clears the ellipse
    assert report.records[-1].residual_inf < 1e-2 * report.records[0].residual_inf
    assert report.max_violation <= 1e-3
    final_speed = report.trajectory.states[-1, 3]
    assert final_speed == pytest.approx(8.0, abs=0.5)


def test_scenario2_final_speed_brackets_paper_value():
    _, report = solve_scenario_admm(2)
    assert report.status == "converged"
    assert 7.5 <= report.trajectory.states[-1, 3] <= 8.7


def test_returned_trajectory_dynamically_feasible():
    for sid in (1, 2):
        cfg, report = solve_scenario_admm(sid)
        _, _, dynamics = build_problem(cfg)
        assert report.trajectory.dynamics_break(dynamics, tol=1e-9) is None


def test_warm_start_iteration_counts_decay():
    # the first constrained iteration carries the bulk of the work; later
    # warm-started solves stay at or below it
    for sid in (1, 2):
        _, report = solve_scenario_admm(sid)
        counts = report.ilqr_iterations
        assert len(counts) >= 3
        assert max(counts[2:]) <= counts[1]


def test_determinism_identical_reports():
    _, first = solve_scenario_admm(1)
    _, second = solve_scenario_admm(1)
    for field in ("residual_inf", "residual_two", "cost", "ilqr_iterations"):
        assert ([getattr(r, field) for r in first.records]
                == [getattr(r, field) for r in second.records])
    np.testing.assert_array_equal(
        first.trajectory.states, second.trajectory.states
    )
    np.testing.assert_array_equal(
        first.trajectory.controls, second.trajectory.controls
    )


def test_unconstrained_initialization_option():
    cfg = builtin_scenario(1)
    x0, cost, dynamics = build_problem(cfg)
    report = admm_solve(
        x0, cost, dynamics, cfg.bounds, cfg.obstacles, cfg.horizon, cfg.admm,
        initialization="unconstrained",
    )
    assert report.iterations >= 1
    with pytest.raises(ValueError):
        admm_solve(
            x0, cost, dynamics, cfg.bounds, cfg.obstacles, cfg.horizon,
            cfg.admm, initialization="bogus",
        )


def keepout_ring():
    # A ring of overlapping keep-outs around the driven corridor of S1; it
    # defeats the cyclic projection.
    return [
        Obstacle(center0=(12.0 + 3.0 * math.cos(t), 3.0 * math.sin(t)),
                 heading=t + math.pi / 2, semi_major=40.0, semi_minor=3.5)
        for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)
    ]


def test_projection_failure_yields_failed_status_with_partial_report():
    # the solve must report the projection failure instead of raising
    cfg = builtin_scenario(1)
    x0, cost, dynamics = build_problem(cfg)
    report = admm_solve(x0, cost, dynamics, cfg.bounds, keepout_ring(), cfg.horizon,
                        cfg.admm)
    assert report.status == "failed"
    assert report.message
    assert report.trajectory.states.shape == (cfg.horizon + 1, 4)


def test_trajectory_violation_reports_worst_breach():
    model, traj = straight_rollout(v0=4.0, horizon=20)
    bounds = InputBounds(0.6, 3.0, -3.0)
    # straight rollout through an obstacle sitting on the path
    obs = [Obstacle(center0=(0.4, 0.0), semi_major=0.3, semi_minor=0.2)]
    worst = trajectory_violation(traj, ConstraintSet(bounds, obs, 0.1))
    assert worst == pytest.approx(1.0)  # stamp 1 sits at the center


@pytest.mark.parametrize(
    "sid, ilqr_counts, final_cost",
    [
        (1, [2, 11, 8, 7, 5, 5], 482.78436266828),
        (2, [10, 26, 5, 3, 3, 3], 125.43210059582),
    ],
)
def test_paper_runs_pinned(sid, ilqr_counts, final_cost):
    # Pins the numerics of the paper's scenarios: a change that moves them
    # is a change of behaviour, not of speed.
    _, report = solve_scenario_admm(sid)
    assert report.status == "converged"
    assert report.iterations == 6
    assert report.ilqr_iterations == ilqr_counts
    assert report.final_cost == pytest.approx(final_cost, rel=1e-9)


def report_of(case) -> SolveReport:
    cfg = builtin_scenario(2 if case == "S2" else 1)
    if case == "barrier":
        cfg = replace(cfg, initial_state=State(0.0, 0.0, 0.0, 0.0))
    x0, cost, dynamics = build_problem(cfg)
    if case == "barrier":
        return barrier_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles, cfg.horizon,
                             cfg.barrier)
    bounds, obstacles = cfg.bounds, cfg.obstacles
    if case == "probe exit":
        bounds, obstacles = InputBounds(1e9, 1e9, -1e9), []
    elif case == "projection failure":
        obstacles = keepout_ring()
    return admm_solve(x0, cost, dynamics, bounds, obstacles, cfg.horizon, cfg.admm)


@pytest.mark.parametrize("case", ["S1", "S2", "probe exit", "barrier", "projection failure"])
def test_report_counts_and_costs_come_from_its_records(case):
    report = report_of(case)
    assert report.iterations == len(report.records)
    assert report.ilqr_iterations == [r.ilqr_iterations for r in report.records]
    if report.records:
        assert report.final_cost == report.records[-1].cost
        assert report.trajectory is report.records[-1].trajectory
    else:  # the projection fails in the first iteration
        assert case == "projection failure" and math.isnan(report.final_cost)
    if case == "probe exit":
        assert report.status == "converged" and report.iterations == 1


def test_each_record_keeps_its_own_iterate():
    # Records hold the iterates themselves, not copies; a solve that changed
    # a trajectory in place would turn every record into the last one.
    cfg = builtin_scenario(1)
    x0, cost, dynamics = build_problem(cfg)
    report = admm_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles, cfg.horizon, cfg.admm)
    first, last = report.records[0].trajectory, report.records[-1].trajectory
    assert not np.array_equal(first.states, last.states)
    for record in report.records:
        again = ilqr.rollout(dynamics, x0, record.trajectory.controls)
        np.testing.assert_array_equal(again.states, record.trajectory.states)
