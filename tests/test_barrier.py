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
from admmplan.ilqr import ILQRSettings, rollout
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, State, VehicleParams


class FlatCost:
    def stage(self, tau, x, u):
        return 0.0

    def stage_expansion(self, tau, x, u):
        return (np.zeros(4), np.zeros(2), np.zeros((4, 4)),
                np.zeros((2, 4)), np.zeros((2, 2)))

    def terminal(self, x):
        return 0.0

    def terminal_expansion(self, x):
        return np.zeros(4), np.zeros((4, 4))


def make_barrier(sharpness=1.0, obstacles=(), bounds=None, horizon=10):
    constraints = ConstraintSet(bounds or InputBounds(0.6, 3.0, -3.0), obstacles, 0.1)
    return BarrierCost(FlatCost(), constraints, sharpness, horizon=horizon)


def test_unit_slack_contributes_nothing():
    obs = Obstacle(center0=(0.0, 0.0), semi_major=1.0, semi_minor=1.0)
    cost = make_barrier(obstacles=[obs], bounds=InputBounds(1e9, 1e9, -1e9))
    # slack d'Ad - 1 = 1 at radius sqrt(2), so -log(1) = 0
    x = np.array([math.sqrt(2.0), 0.0, 0.0, 0.0])
    assert cost.stage(0, x, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_barrier_blows_up_at_boundary():
    cost = make_barrier()
    values = []
    for w in (0.0, 0.3, 0.5, 0.59, 0.5999):
        values.append(cost.stage(0, np.zeros(4), np.array([w, 0.0])))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert cost.stage(0, np.zeros(4), np.array([0.6, 0.0])) == math.inf
    assert cost.stage(0, np.zeros(4), np.array([0.7, 0.0])) == math.inf


def test_barrier_weight_scales_inverse_sharpness():
    weak = make_barrier(sharpness=10.0)
    strong = make_barrier(sharpness=1.0)
    u = np.array([0.3, 1.0])
    assert weak.stage(0, np.zeros(4), u) == pytest.approx(
        strong.stage(0, np.zeros(4), u) / 10.0
    )


def test_barrier_gradients_match_finite_differences():
    obs = [
        Obstacle(center0=(3.0, 1.0), heading=0.4, semi_major=2.0, semi_minor=1.0),
        Obstacle(center0=(-2.0, -2.0), velocity=(1.0, 0.0), semi_major=1.5,
                 semi_minor=0.8),
    ]
    cost = make_barrier(sharpness=2.0, obstacles=obs)
    rng = np.random.default_rng(4)
    eps = 1e-6
    checked = 0
    while checked < 200:
        tau = int(rng.integers(0, 10))
        x = rng.normal(size=4) * 6
        u = rng.uniform([-0.5, -2.5], [0.5, 2.5])
        if not math.isfinite(cost.stage(tau, x, u)):
            continue
        # stay clear of the boundary so central differences are stable
        if cost.stage(tau, x, u) > 20:
            continue
        l_x, l_u, *_ = cost.stage_expansion(tau, x, u)
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (cost.stage(tau, x + dx, u) - cost.stage(tau, x - dx, u)) / (2 * eps)
            assert fd == pytest.approx(l_x[j], abs=1e-5)
        for j in range(2):
            du = np.zeros(2)
            du[j] = eps
            fd = (cost.stage(tau, x, u + du) - cost.stage(tau, x, u - du)) / (2 * eps)
            assert fd == pytest.approx(l_u[j], abs=1e-5)
        checked += 1


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
    assert all(v == 0.0 for v in report.primal_inf_history)


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
    ref_cost = reference.cost_history[-1]
    report = barrier_solve(x0, cost, dynamics, cfg.bounds, cfg.obstacles,
                           cfg.horizon, cfg.barrier)
    gaps = [abs(c - ref_cost) / abs(ref_cost) for c in report.cost_history]
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
