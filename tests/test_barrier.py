import math
from dataclasses import replace

import numpy as np
import pytest

from admmplan.admm import ADMMSettings, admm_solve
from admmplan.barrier import (
    BarrierCost,
    BarrierSettings,
    barrier_solve,
    check_strict_feasibility,
)
from admmplan.constraints import ConstraintSet, InputBounds, Obstacle
from admmplan.errors import BarrierDomainViolation
from admmplan.harness import build_problem
from admmplan.ilqr import ILQRSettings, Trajectory, rollout, total_cost
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, State, VehicleParams


class FlatCost:
    def values(self, traj):
        return np.zeros(traj.horizon + 1)

    def expand(self, traj):
        N, T = traj.horizon + 1, traj.horizon
        return (np.zeros((N, 4)), np.zeros((T, 2)), np.zeros((N, 4, 4)),
                np.zeros((T, 2, 2)))


def make_barrier(sharpness=1.0, obstacles=(), bounds=None):
    constraints = ConstraintSet(bounds or InputBounds(0.6, 3.0, -3.0), obstacles, 0.1)
    return BarrierCost(FlatCost(), constraints, sharpness)


def one_stamp(x, u):
    """A one-step trajectory that holds state x under control u."""
    return Trajectory(np.array([x, x], dtype=float), np.array([u], dtype=float))


def test_unit_slack_contributes_nothing():
    obs = Obstacle(center0=(0.0, 0.0), semi_major=1.0, semi_minor=1.0)
    cost = make_barrier(obstacles=[obs], bounds=InputBounds(1e9, 1e9, -1e9))
    # slack d'Ad - 1 = 1 at radius sqrt(2), so -log(1) = 0
    x = np.array([math.sqrt(2.0), 0.0, 0.0, 0.0])
    np.testing.assert_allclose(cost.values(one_stamp(x, np.zeros(2))), 0.0, atol=1e-12)


def test_barrier_blows_up_at_boundary():
    cost = make_barrier()
    values = []
    for w in (0.0, 0.3, 0.5, 0.59, 0.5999):
        values.append(cost.values(one_stamp(np.zeros(4), [w, 0.0]))[0])
    assert all(b > a for a, b in zip(values, values[1:]))
    assert cost.values(one_stamp(np.zeros(4), [0.6, 0.0]))[0] == math.inf
    assert cost.values(one_stamp(np.zeros(4), [0.7, 0.0]))[0] == math.inf


def test_barrier_weight_scales_inverse_sharpness():
    weak = make_barrier(sharpness=10.0)
    strong = make_barrier(sharpness=1.0)
    traj = one_stamp(np.zeros(4), [0.3, 1.0])
    assert weak.values(traj)[0] == pytest.approx(strong.values(traj)[0] / 10.0)


def clear_trajectory(constraints, rng, horizon, clearance=0.05):
    """Random states and controls, each stamp drawn until every constraint
    has -g > clearance, so central differences stay inside the domain."""
    states, controls = [], []
    for tau in range(horizon + 1):
        while True:
            x = rng.normal(size=4) * 6
            if np.all(constraints.keepout(tau, x[:2]) < -clearance):
                break
        states.append(x)
        while tau < horizon:
            u = rng.uniform([-0.5, -2.5], [0.5, 2.5])
            if np.all(constraints.box(u) < -clearance):
                controls.append(u)
                break
    return Trajectory(np.array(states), np.array(controls))


def test_barrier_gradients_match_finite_differences():
    obs = [
        Obstacle(center0=(3.0, 1.0), heading=0.4, semi_major=2.0, semi_minor=1.0),
        Obstacle(center0=(-2.0, -2.0), velocity=(1.0, 0.0), semi_major=1.5,
                 semi_minor=0.8),
    ]
    cost = make_barrier(sharpness=2.0, obstacles=obs)
    rng = np.random.default_rng(4)
    eps = 1e-6
    for _ in range(20):
        traj = clear_trajectory(cost.constraints, rng, horizon=10)
        l_x, l_u, _, _ = cost.expand(traj)
        for rows, grad in ((traj.states, l_x), (traj.controls, l_u)):
            for index in np.ndindex(rows.shape):
                rows[index] += eps
                up = total_cost(cost, traj)
                rows[index] -= 2 * eps
                down = total_cost(cost, traj)
                rows[index] += eps
                assert (up - down) / (2 * eps) == pytest.approx(grad[index], abs=1e-5)


def test_expansion_names_first_stamp_outside_domain():
    obs = [Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)]
    cost = make_barrier(obstacles=obs)
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((60, 2)))
    traj.controls[55, 0] = 0.7  # past the steering box, after the obstacle
    # Stamps 27-48 sit inside the ellipse; a backward walk would name 55.
    keepout = ConstraintSet(InputBounds(), obs, 0.1).keepout(
        np.arange(61), traj.states[:, :2])[:, 0]
    inside = np.flatnonzero(keepout > -1e-6)
    assert (inside[0], inside[-1]) == (27, 48)
    with pytest.raises(BarrierDomainViolation) as info:
        cost.expand(traj)
    assert info.value.tau == 27
    assert math.isinf(total_cost(cost, traj))


def test_strict_feasibility_checker_flags_offending_stamp():
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((60, 2)))
    obs = [Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)]
    bounds = InputBounds(0.6, 3.0, -3.0)
    with pytest.raises(BarrierDomainViolation) as info:
        check_strict_feasibility(traj, ConstraintSet(bounds, obs, 0.1), 1e-6)
    assert info.value.tau is not None
    first_bad = next(
        t for t in range(61)
        if (traj.states[t, :2] - [15, -1]) @ np.diag([0.04, 0.16])
        @ (traj.states[t, :2] - [15, -1]) <= 1.0 + 1e-6
    )
    assert info.value.tau == first_bad


def test_scenario1_default_seed_infeasible():
    cfg = builtin_scenario(1)
    x0, cost, dynamics = build_problem(cfg)
    with pytest.raises(BarrierDomainViolation):
        barrier_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles,
                      cfg.horizon, cfg.barrier)


def test_scenario2_default_seed_infeasible():
    cfg = builtin_scenario(2)
    x0, cost, dynamics = build_problem(cfg)
    with pytest.raises(BarrierDomainViolation):
        barrier_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles,
                      cfg.horizon, cfg.barrier)


def feasible_config(sid, v0):
    cfg = replace(builtin_scenario(sid), initial_state=State(0.0, 0.0, 0.0, v0))
    return cfg, build_problem(cfg)


def test_scenario1_standstill_seed_converges():
    cfg, (x0, cost, dynamics) = feasible_config(1, 0.0)
    report = barrier_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles,
                           cfg.horizon, cfg.barrier)
    assert report.status == "converged"
    assert report.max_violation == 0.0
    assert report.iterations == cfg.barrier.outer_iters
    # every outer iterate stays strictly feasible
    assert all(r.residual_inf == 0.0 for r in report.records)


def test_scenario2_slow_seed_converges():
    cfg, (x0, cost, dynamics) = feasible_config(2, 4.0)
    report = barrier_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles,
                           cfg.horizon, cfg.barrier)
    assert report.status == "converged"
    assert report.max_violation == 0.0


def test_barrier_cost_approaches_consensus_cost():
    # Outer iterations drive the base cost toward the consensus solution's;
    # the gap shrinks monotonically until it is resolution limited, and ends
    # below 5 percent.
    cfg, (x0, cost, dynamics) = feasible_config(1, 0.0)
    reference = admm_solve(
        x0, cost, dynamics, cfg.bounds, cfg.obstacles, cfg.horizon,
        ADMMSettings(ilqr=ILQRSettings(), max_admm_iters=60),
        initialization="unconstrained",
    )
    ref_cost = reference.records[-1].cost
    report = barrier_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles,
                           cfg.horizon, cfg.barrier)
    gaps = [abs(r.cost - ref_cost) / abs(ref_cost) for r in report.records]
    floor = 5e-3
    settled = False
    for prev, nxt in zip(gaps, gaps[1:]):
        if prev <= floor:
            settled = True
        if not settled:
            assert nxt < prev
    assert gaps[-1] < 0.05


def test_settings_validation():
    with pytest.raises(ValueError):
        BarrierSettings(initial_sharpness=0.0)
    with pytest.raises(ValueError):
        BarrierSettings(tighten_factor=1.0)
    with pytest.raises(ValueError):
        BarrierSettings(outer_iters=0)
    with pytest.raises(ValueError):
        BarrierSettings(margin=-1e-6)
    BarrierSettings(margin=0.0)
    for field in ("initial_sharpness", "tighten_factor", "outer_iters", "margin"):
        with pytest.raises(ValueError):
            BarrierSettings(**{field: math.nan})
    for value in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="integer"):
            BarrierSettings(outer_iters=value)
