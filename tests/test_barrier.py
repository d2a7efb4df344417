import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from admmplan import ilqr
from admmplan.admm import SIGMA, PenalizedCost, admm_solve, project_consensus
from admmplan.barrier import (
    CENTERING_FRACTION,
    MARGIN,
    BarrierCost,
    BarrierSettings,
    _stages,
    barrier_solve,
    check_strict_feasibility,
)
from admmplan.constraints import ConstraintSet, InputBounds, Obstacle
from admmplan.errors import BarrierDomainViolation
from admmplan.harness import build_problem
from admmplan.ilqr import Trajectory, rollout, total_cost
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, State, VehicleParams

from oracles import consensus_blocks, keepout_at, nudged
from test_admm import JacobiansFailAt


class FlatCost:
    def values(self, traj):
        return np.zeros(traj.horizon + 1)

    def expand(self, traj):
        N, T = traj.horizon + 1, traj.horizon
        return (np.zeros((N, 4)), np.zeros((T, 2)), np.zeros((N, 4, 4)),
                np.zeros((T, 2, 2)))


def make_constraints(obstacles=(), bounds=None, use_ego_heading=False):
    return ConstraintSet(bounds or InputBounds(0.6, 3.0, -3.0), obstacles, 0.1, use_ego_heading)


def make_barrier(sharpness=1.0, obstacles=(), bounds=None, use_ego_heading=False):
    return BarrierCost(FlatCost(), make_constraints(obstacles, bounds, use_ego_heading), sharpness)


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


def test_admits_is_the_box_test_of_values_at_one_stamp():
    # admits(u) is False exactly when the values of a one-stamp trajectory
    # under u are inf at stamp 0: on and past each face, one float step
    # either side of the domain's edge +-(limit - MARGIN), and for NaN. An
    # infinite limit is an absent face, which every control passes.
    def admitted(cost, u):
        admits = cost.admits(*u)
        assert admits == (cost.values(one_stamp(np.zeros(4), u))[0] != math.inf), u
        return admits

    cost = make_barrier(bounds=InputBounds(0.6, 3.0, -3.0))
    for axis, limit in ((0, 0.6), (1, 3.0)):
        for side in (1.0, -1.0):
            edge = side * (limit - MARGIN)
            inside, outside = np.nextafter(edge, 0.0), np.nextafter(edge, side * math.inf)
            for value, expected in ((0.0, True), (inside, True), (edge, None),
                                    (outside, False), (side * limit, False),
                                    (side * 2 * limit, False), (math.nan, False)):
                u = [0.0, 0.0]
                u[axis] = float(value)
                assert admitted(cost, u) is expected or expected is None
    # g = -MARGIN exactly is outside.
    cost = make_barrier(bounds=InputBounds(2 * MARGIN, 3.0, -3.0))
    assert not any(admitted(cost, u) for u in ([MARGIN, 0.0], [-MARGIN, 0.0]))
    # Without the steering faces and the lower acceleration face, only
    # accel < 3 - MARGIN is tested; without any face, every control passes.
    cost = make_barrier(bounds=InputBounds(math.inf, 3.0, -math.inf))
    assert [admitted(cost, u) for u in ([1e300, 0.0], [-1e300, -1e300], [math.nan, 2.0],
                                        [0.0, 3.0], [0.0, math.nan])] == [
        True, True, True, False, False]
    cost = make_barrier(bounds=InputBounds(math.inf, math.inf, -math.inf))
    assert all(admitted(cost, u) for u in ([1e300, -1e300], [-1e300, 1e300],
                                           [math.nan, math.nan]))


def test_barrier_weight_scales_inverse_sharpness():
    weak = make_barrier(sharpness=10.0)
    strong = make_barrier(sharpness=1.0)
    traj = one_stamp(np.zeros(4), [0.3, 1.0])
    assert weak.values(traj)[0] == pytest.approx(strong.values(traj)[0] / 10.0)


def clear_trajectory(constraints, rng, horizon, clearance=0.05):
    """Random states and controls, each stamp drawn until every constraint
    value g is below -`clearance`, so central differences of the log barrier
    stay inside its domain."""
    def clear(g):
        return np.all(g < -clearance)
    spread, reach = 6.0, np.array([0.5, 2.5])
    states, controls = [], []
    for tau in range(horizon + 1):
        while True:
            x = rng.normal(size=4) * spread
            if clear(keepout_at(constraints, tau, x[:2], x[2])):
                break
        states.append(x)
        while tau < horizon:
            u = rng.uniform(-reach, reach)
            if clear(constraints.box(u)):
                controls.append(u)
                break
    return Trajectory(np.array(states), np.array(controls))


def test_barrier_gradients_match_finite_differences():
    # Also with the ego heading: the ellipse frame turns with theta, so the
    # keep-out terms have a theta gradient too.
    obs = [
        Obstacle(center0=(3.0, 1.0), heading=0.4, semi_major=2.0, semi_minor=1.0),
        Obstacle(center0=(-2.0, -2.0), velocity=(1.0, 0.0), semi_major=1.5,
                 semi_minor=0.8),
    ]
    eps = 1e-6
    for use_ego_heading in (False, True):
        cost = make_barrier(sharpness=2.0, obstacles=obs, use_ego_heading=use_ego_heading)
        rng = np.random.default_rng(4)
        for _ in range(20):
            traj = clear_trajectory(cost.constraints, rng, horizon=10)
            l_x, l_u, _, _ = cost.expand(traj)
            for part, grad in enumerate((l_x, l_u)):
                for index in np.ndindex(grad.shape):
                    up = total_cost(cost, nudged(traj, part, index, eps))
                    down = total_cost(cost, nudged(traj, part, index, -eps))
                    assert (up - down) / (2 * eps) == pytest.approx(grad[index], abs=1e-5)


def test_expansion_names_first_stamp_outside_domain():
    obs = [Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)]
    cost = make_barrier(obstacles=obs)
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((60, 2)))
    traj = nudged(traj, 1, (55, 0), 0.7)  # past the steering box, after the obstacle
    # Stamps 27-48 sit inside the ellipse; a backward walk would name 55.
    keepout = keepout_at(ConstraintSet(InputBounds(), obs, 0.1), np.arange(61),
                         traj.states[:, :2])[:, 0]
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
        check_strict_feasibility(traj, ConstraintSet(bounds, obs, 0.1))
    assert info.value.tau is not None
    first_bad = next(
        t for t in range(61)
        if (traj.states[t, :2] - [15, -1]) @ np.diag([0.04, 0.16])
        @ (traj.states[t, :2] - [15, -1]) <= 1.0 + 1e-6
    )
    assert info.value.tau == first_bad


def test_nan_positions_are_outside_the_domain():
    # A NaN keep-out value fails g < -MARGIN: the checker names its first
    # stamp and the barrier's values are +inf from there on.
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 3.0, 0.0, 4.0]), np.zeros((60, 2)))
    obs = [Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)]
    check_strict_feasibility(traj, make_constraints(obs))
    states = traj.states.copy()
    states[40:, 0] = math.nan
    broken = Trajectory(states, traj.controls)
    with pytest.raises(BarrierDomainViolation) as info:
        check_strict_feasibility(broken, make_constraints(obs))
    assert info.value.tau == 40
    values = make_barrier(obstacles=obs).values(broken)
    assert np.isfinite(values[:40]).all() and np.isposinf(values[40:]).all()


def test_scenario1_default_seed_infeasible():
    cfg = builtin_scenario(1)
    with pytest.raises(BarrierDomainViolation):
        barrier_solve(build_problem(cfg), cfg.barrier)


def test_scenario2_default_seed_infeasible():
    cfg = builtin_scenario(2)
    with pytest.raises(BarrierDomainViolation):
        barrier_solve(build_problem(cfg), cfg.barrier)


def feasible_config(sid, v0):
    cfg = replace(builtin_scenario(sid), initial_state=State(0.0, 0.0, 0.0, v0))
    return cfg, build_problem(cfg)


# The benchmark's baseline cells: the criterion-7 starts under the benchmark
# ladder and under the library defaults. `tight_cost` is the final cost with
# every stage centered to the configured tolerance; the ladder cells then took
# 117 and 170 inner iterations.
BASELINE_CELLS = [
    (1, 0.0, "ladder", 456.4678973186082, 52),
    (1, 0.0, "defaults", 456.4897728551878, 34),
    (2, 4.0, "ladder", 72.93917299962679, 74),
    (2, 4.0, "defaults", 72.94195917606105, 54),
]


@pytest.mark.parametrize("sid, v0, ladder, tight_cost, inner", BASELINE_CELLS)
def test_loose_early_stages_keep_the_answer(sid, v0, ladder, tight_cost, inner):
    cfg, problem = feasible_config(sid, v0)
    settings = cfg.barrier if ladder == "ladder" else BarrierSettings()
    report = barrier_solve(problem, settings)
    assert report.status == "converged"
    assert report.max_violation == 0.0
    assert report.iterations == settings.outer_iters
    # every outer iterate stays strictly feasible
    assert all(r.residual_inf == 0.0 for r in report.records)
    assert report.final_cost == pytest.approx(tight_cost, rel=1e-6)
    assert sum(report.ilqr_iterations) == inner  # work-count guard


class AdmitsHidden:
    """A BarrierCost seen through `values` and `expand` alone, so the line
    search rolls out and evaluates every trial."""

    def __init__(self, *args):
        self.cost = BarrierCost(*args)

    def values(self, traj):
        return self.cost.values(traj)

    def expand(self, traj):
        return self.cost.expand(traj)


# Forward passes of each baseline cell's solve with every trial rolled out,
# and with the trials whose first control leaves the box screened out.
FORWARD_PASSES = {(1, "ladder"): (62, 59), (1, "defaults"): (72, 57),
                  (2, "ladder"): (98, 98), (2, "defaults"): (78, 78)}


@pytest.mark.parametrize("sid, v0, ladder", [cell[:3] for cell in BASELINE_CELLS])
def test_first_control_screen_changes_no_solve(monkeypatch, sid, v0, ladder):
    # The screen rejects only trials that the rollout would: each solve
    # equals, bit for bit, the one that rolls out every trial, and skips the
    # pinned number of forward passes.
    cfg, problem = feasible_config(sid, v0)
    settings = cfg.barrier if ladder == "ladder" else BarrierSettings()
    forward_pass, passes = ilqr.forward_pass, []

    def counting(*args):
        passes.append(1)
        return forward_pass(*args)

    def fields(report):
        yield report.status, report.message, len(report.records)
        for r in report.records:
            yield r.trajectory.states.tobytes(), r.trajectory.controls.tobytes()
            yield repr(r.cost), repr(r.inner.alpha), r.inner.rejected_steps, repr(r.inner.peak_mu)

    monkeypatch.setattr(ilqr, "forward_pass", counting)
    screened = list(fields(barrier_solve(problem, settings)))
    screened_passes = len(passes)
    passes.clear()
    monkeypatch.setattr("admmplan.barrier.BarrierCost", AdmitsHidden)
    full = list(fields(barrier_solve(problem, settings)))
    assert (len(passes), screened_passes) == FORWARD_PASSES[sid, ladder]
    assert screened == full


def test_one_offsets_pass_per_trajectory_in_a_barrier_solve(monkeypatch):
    # The constraint set evaluates a trajectory's ellipse-frame offsets once
    # per content, not once per barrier value, expansion or violation scan.
    # The pass and request counts of the two ladder solves are pinned, so a
    # count that misses the function computing the offsets fails rather
    # than passing at zero. The requests include the report's final
    # violation scan, which reads the last stage's kept evaluation; the S1
    # line-search trials whose first control leaves the box are rejected
    # before a rollout, so they are never evaluated.
    offsets = ConstraintSet._offsets
    passes, contents = [], []

    def counting(*args):
        passes.append(1)
        return offsets(*args)

    def recording(method):
        def wrapped(self, traj):
            contents.append((traj.states.tobytes(), traj.controls.tobytes()))
            return method(self, traj)
        return wrapped

    monkeypatch.setattr(ConstraintSet, "_offsets", counting)
    for name in ("values", "trajectory_gradient"):
        monkeypatch.setattr(ConstraintSet, name, recording(getattr(ConstraintSet, name)))
    for sid, v0, distinct, requests in ((1, 0.0, 60, 197), (2, 4.0, 99, 280)):
        passes.clear()
        contents.clear()
        cfg, problem = feasible_config(sid, v0)
        report = barrier_solve(problem, cfg.barrier)
        assert report.status == "converged"
        assert len(passes) == len(set(contents)) == distinct
        assert len(contents) == requests


def test_obstacle_centers_once_per_horizon_in_a_solve(monkeypatch):
    # Every trajectory of a solve spans the problem's horizon, so one solve
    # computes the obstacle centers of its stamps once, for the evaluator
    # and, in the consensus solver, for the projection's keep-out scan:
    # every request hands back the one kept pair of center arrays.
    horizon_centers = ConstraintSet._horizon_centers
    calls = []

    def recording(self, stamps):
        centers = horizon_centers(self, stamps)
        calls.append((stamps, centers))
        return centers

    monkeypatch.setattr(ConstraintSet, "_horizon_centers", recording)
    for method in ("barrier", "admm"):
        calls.clear()
        cfg, problem = feasible_config(2, 4.0)
        report = barrier_solve(problem, cfg.barrier) if method == "barrier" else admm_solve(problem)
        assert report.iterations > 1
        assert len(calls) > 1
        assert {stamps for stamps, _ in calls} == {cfg.horizon + 1}
        first = calls[0][1]
        assert all(centers is first for _, centers in calls)
        assert [array.shape for array in first] == [(cfg.horizon + 1, len(cfg.obstacles))] * 2


def test_single_stage_is_the_exact_inner_solve():
    # With one stage, that stage is the last: the configured tolerance applies.
    cfg, problem = feasible_config(1, 0.0)
    settings = replace(cfg.barrier, outer_iters=1)
    report = barrier_solve(problem, settings)
    seed = rollout(problem.dynamics, problem.x0, np.zeros((cfg.horizon, 2)))
    barrier = BarrierCost(problem.cost, problem.constraints, settings.initial_sharpness)
    result = ilqr.solve(seed, barrier, problem.dynamics, cost_tolerance=settings.cost_tolerance)
    (record,) = report.records
    assert report.status == result.status
    np.testing.assert_array_equal(report.trajectory.states, result.trajectory.states)
    np.testing.assert_array_equal(report.trajectory.controls, result.trajectory.controls)
    assert record.cost == total_cost(problem.cost, result.trajectory)
    inner = record.inner
    assert (inner.iterations, inner.alpha, inner.rejected_steps, inner.peak_mu) == (
        result.iterations, result.alpha, result.rejected_steps, result.peak_mu)


@pytest.mark.parametrize("configured", [1e-5, 1e-2])
def test_stage_tolerance_follows_the_duality_gap(monkeypatch, configured):
    # S1 has four box faces on 60 controls and one keep-out on 61 states, so
    # CENTERING_FRACTION * m / t falls from 6.02 to 1.8e-4 along the ladder:
    # above 1e-5 at every stage, below 1e-2 from the eleventh on.
    cfg, problem = feasible_config(1, 0.0)
    settings = replace(cfg.barrier, cost_tolerance=configured)
    m = 4 * 60 + 61
    seen = []
    solve = ilqr.solve

    def spy(traj, cost, dynamics, cost_tolerance):
        seen.append((cost.sharpness, cost_tolerance))
        return solve(traj, cost, dynamics, cost_tolerance=cost_tolerance)

    monkeypatch.setattr(ilqr, "solve", spy)
    barrier_solve(problem, settings)
    assert len(seen) == settings.outer_iters
    for i, (t, tolerance) in enumerate(seen):
        assert t == settings.initial_sharpness * settings.tighten_factor**i
        if i < settings.outer_iters - 1:
            assert tolerance == max(configured, CENTERING_FRACTION * m / t)
    assert seen[-1][1] == configured


def first_stamp_outside(traj, cfg, margin):
    """The first stamp where a box face (from the configured limits) or a
    keep-out (from the oracle) has g >= -margin, or None."""
    steer, accel = traj.controls.T
    box = np.maximum.reduce([abs(steer) - cfg.bounds.max_steer, accel - cfg.bounds.max_accel,
                             cfg.bounds.min_accel - accel])
    states = traj.states
    g = keepout_at(build_problem(cfg).constraints, np.arange(len(states)), states[:, :2],
                   states[:, 2])
    for tau in range(len(states)):
        if (tau < len(box) and box[tau] >= -margin) or (g[tau] >= -margin).any():
            return tau
    return None


@pytest.mark.parametrize("start", ["keep-out", "box"])
def test_stages_check_their_start_before_any_solve(monkeypatch, start):
    # From S1's default seed, which runs into the ellipse, and from a
    # criterion-7 start whose controls leave the box at stamps 7 and 12.
    if start == "keep-out":
        cfg = builtin_scenario(1)
        controls = np.zeros((cfg.horizon, 2))
    else:
        cfg, _ = feasible_config(1, 0.0)
        controls = np.zeros((cfg.horizon, 2))
        controls[7, 1], controls[12, 0] = 3.5, 0.7
    problem = build_problem(cfg)
    y = rollout(problem.dynamics, problem.x0, controls)
    first = first_stamp_outside(y, cfg, MARGIN)
    assert first == (27 if start == "keep-out" else 7)
    solves = []
    monkeypatch.setattr(ilqr, "solve", lambda *args: solves.append(args))
    with pytest.raises(BarrierDomainViolation, match=f"at time index {first}$") as info:
        next(_stages(problem, cfg.barrier, y))
    assert info.value.tau == first
    assert solves == []


FAR_OBSTACLES = [Obstacle(center0=(40.0, 20.0 + 10.0 * k)) for k in range(3)]


@pytest.mark.parametrize("bounds, obstacles, configured", [
    (InputBounds(), 1, 1e-6),
    (InputBounds(), 0, 1e-6),
    (InputBounds(max_steer=math.inf), 2, 1e-6),
    (InputBounds(max_accel=math.inf), 3, 1e-6),
    (InputBounds(min_accel=-math.inf), 1, 1.0),
    (InputBounds(math.inf, math.inf, -math.inf), 0, 1e-6),
])
def test_first_stage_tolerance_counts_every_constraint_term(monkeypatch, bounds, obstacles,
                                                            configured):
    # m is counted here from the configuration: each finite box limit on the
    # T controls (the steering limit bounds both signs) and each obstacle on
    # the T+1 states.
    cfg, _ = feasible_config(1, 0.0)
    cfg = replace(cfg, horizon=30, bounds=bounds,
                  obstacles=(cfg.obstacles + FAR_OBSTACLES)[:obstacles])
    settings = replace(cfg.barrier, cost_tolerance=configured)
    assert settings.outer_iters > 1
    limits = (2 * math.isfinite(bounds.max_steer) + math.isfinite(bounds.max_accel)
              + math.isfinite(bounds.min_accel))
    m = limits * cfg.horizon + obstacles * (cfg.horizon + 1)
    problem = build_problem(cfg)
    y = rollout(problem.dynamics, problem.x0, np.zeros((cfg.horizon, 2)))
    seen = []
    solve = ilqr.solve

    def spy(traj, cost, dynamics, cost_tolerance):
        seen.append((cost.sharpness, cost_tolerance))
        return solve(traj, cost, dynamics, cost_tolerance=cost_tolerance)

    monkeypatch.setattr(ilqr, "solve", spy)
    next(_stages(problem, settings, y))
    t = settings.initial_sharpness
    assert seen == [(t, max(configured, CENTERING_FRACTION * m / t))]


@pytest.mark.parametrize("stage", [1, 2])
def test_jacobian_domain_error_yields_failed_status(stage):
    # The barrier reports the failures the consensus solver reports
    # (admm.SOLVE_FAILURES), keeping the stages it finished.
    cfg, problem = feasible_config(1, 0.0)
    clean = barrier_solve(problem, cfg.barrier)
    # One Jacobian call per inner iteration; the first call of the stage fails.
    fail_at = 1 + sum(clean.ilqr_iterations[:stage - 1])
    dynamics = JacobiansFailAt(problem.dynamics.params, fail_at)
    report = barrier_solve(replace(problem, dynamics=dynamics), cfg.barrier)
    assert report.status == "failed"
    assert "time index 7" in report.message
    assert report.iterations == stage - 1
    assert [r.cost for r in report.records] == [r.cost for r in clean.records[:stage - 1]]
    assert report.trajectory is (report.records[-1].trajectory if report.records
                                 else report.seed)
    assert report.max_violation == 0.0


def test_unconverged_last_stage_reports_max_iters(monkeypatch):
    # Every stage stops after one inner iteration, short of its tolerance.
    cfg, problem = feasible_config(2, 4.0)
    solve = ilqr.solve
    monkeypatch.setattr(ilqr, "solve", lambda *args, **kwargs: solve(*args, **kwargs, max_iters=1))
    report = barrier_solve(problem, replace(cfg.barrier, outer_iters=2))
    assert report.status == "max_iters"
    assert report.max_violation == 0.0


def test_barrier_cost_approaches_consensus_cost():
    # Outer iterations drive the base cost toward the consensus solution's;
    # the gap shrinks monotonically until it is resolution limited, and ends
    # below 5 percent. The reference is 60 consensus iterations seeded from
    # the unconstrained optimum, replayed here.
    cfg, problem = feasible_config(1, 0.0)
    cost, dynamics, constraints = problem.cost, problem.dynamics, problem.constraints
    sigma = SIGMA
    y = ilqr.solve(rollout(dynamics, problem.x0, np.zeros((cfg.horizon, 2))), cost,
                   dynamics).trajectory
    z = consensus_blocks(y)
    lam = np.zeros_like(z)
    for _ in range(60):
        y = ilqr.solve(y, PenalizedCost(cost, z, lam, sigma), dynamics).trajectory
        sel = consensus_blocks(y)
        z = project_consensus(sel + lam / sigma, y.states[:, 2], constraints)
        lam += sigma * (sel - z)
    ref_cost = total_cost(cost, y)
    report = barrier_solve(problem, cfg.barrier)
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
    for field in ("initial_sharpness", "tighten_factor", "outer_iters"):
        with pytest.raises(ValueError):
            BarrierSettings(**{field: math.nan})
    # 1/t would be 0 from the first or second stage: only the walls remain.
    for field in ("initial_sharpness", "tighten_factor"):
        with pytest.raises(ValueError, match=field):
            BarrierSettings(**{field: math.inf})
    for value in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="integer"):
            BarrierSettings(outer_iters=value)
    # The iLQR cost tolerance must be a positive number; NaN fails.
    for value in (0.0, -1e-4, math.nan, True, "1e-4"):
        with pytest.raises(ValueError, match="cost_tolerance must be positive"):
            BarrierSettings(cost_tolerance=value)
    # At inf every stage stopped after one inner iteration as converged.
    with pytest.raises(ValueError, match="cost_tolerance must be positive and finite, got inf"):
        BarrierSettings(cost_tolerance=math.inf)


def test_settings_are_frozen():
    # Both built-in scenarios hold the one benchmark ladder, which no
    # caller can change under the other.
    ladder = builtin_scenario(1).barrier
    assert builtin_scenario(2).barrier is ladder
    with pytest.raises(FrozenInstanceError):
        ladder.outer_iters = 2
    assert replace(ladder, outer_iters=2).outer_iters == 2 and ladder.outer_iters == 16
