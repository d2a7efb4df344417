import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmplan import admm, ilqr
from admmplan.admm import (
    ADMMSettings,
    SolveReport,
    PenalizedCost,
    admm_solve,
    project_consensus,
    trajectory_violation,
)
from admmplan.constraints import (
    FEASIBILITY_TOL, ConstraintSet, InputBounds, Obstacle, project_timestep,
)
from admmplan.barrier import barrier_solve
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.errors import DegenerateProjection, DomainError, NonConvergence
from admmplan.harness import build_problem, solve_scenario
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, State, VehicleParams

from oracles import center_at, consensus_blocks, keepout_at, nudged


def tracking_cost():
    return TrackingCost(CostWeights(), Reference(py_ref=0.0, v_ref=8.0))


def straight_rollout(v0=4.0, horizon=10):
    model = BicycleModel(VehicleParams())
    return model, ilqr.rollout(
        model, np.array([0.0, 0.0, 0.0, v0]), np.zeros((horizon, 2))
    )


def test_select_block_layout():
    # sel(y), the blocks a trajectory keeps for the solver, read-only.
    _, traj = straight_rollout()
    blocks = admm._blocks(traj)
    assert blocks.shape == (11, 4)
    np.testing.assert_allclose(blocks[1], [0.4, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(blocks[-1, 2:], [0.0, 0.0])
    assert not blocks.flags.writeable
    assert blocks.tobytes() == consensus_blocks(traj).tobytes()


def test_select_is_linear():
    model = BicycleModel(VehicleParams())
    rng = np.random.default_rng(0)
    a = ilqr.Trajectory(rng.normal(size=(9, 4)), rng.normal(size=(8, 2)))
    b = ilqr.Trajectory(rng.normal(size=(9, 4)), rng.normal(size=(8, 2)))
    combo = ilqr.Trajectory(a.states + b.states, a.controls + b.controls)
    np.testing.assert_allclose(admm._blocks(combo), admm._blocks(a) + admm._blocks(b),
                               atol=1e-12)


def test_select_block_count():
    for horizon in (1, 7, 60):
        _, traj = straight_rollout(horizon=horizon)
        assert admm._blocks(traj).shape[0] == horizon + 1


def residual_norms(traj, z):
    """The loop's max-norm and 2-norm of sel(traj) - z, checked bit for bit
    against np.abs(d).max() and np.linalg.norm(d) of the oracle's blocks."""
    residuals = admm._norms(admm._blocks(traj) - z)
    d = consensus_blocks(traj) - z
    assert residuals == (np.abs(d).max(), np.linalg.norm(d))
    return residuals


def test_primal_residual_zero_on_consensus():
    _, traj = straight_rollout()
    res_inf, res_two = residual_norms(traj, consensus_blocks(traj))
    assert res_inf == 0.0
    assert res_two == 0.0


def test_primal_residual_max_norm():
    _, traj = straight_rollout()
    z = consensus_blocks(traj)
    z[3, 0] += 0.5
    res_inf, res_two = residual_norms(traj, z)
    assert res_inf == pytest.approx(0.5)
    assert res_two == pytest.approx(0.5)


def test_primal_residual_matches_direct_norms():
    rng = np.random.default_rng(1)
    _, traj = straight_rollout()
    z = consensus_blocks(traj) + rng.normal(size=(11, 4))
    res_inf, res_two = residual_norms(traj, z)
    diff = consensus_blocks(traj) - z
    assert res_inf == pytest.approx(np.abs(diff).max())
    assert res_two == pytest.approx(np.linalg.norm(diff))


def test_penalty_vanishes_at_consensus():
    _, traj = straight_rollout()
    base = tracking_cost()
    z = consensus_blocks(traj)
    pen = PenalizedCost(base, z, np.zeros_like(z), 10.0)
    np.testing.assert_allclose(pen.values(traj), base.values(traj), rtol=1e-12)


def test_penalty_matches_direct_formula():
    rng = np.random.default_rng(2)
    _, traj = straight_rollout()
    base = tracking_cost()
    z = consensus_blocks(traj) + rng.normal(size=(11, 4))
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
    z = consensus_blocks(traj) + 1.0
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
    z = consensus_blocks(traj) + rng.normal(size=(11, 4))
    lam = rng.normal(size=(11, 4))
    pen = PenalizedCost(base, z, lam, 10.0)
    eps = 1e-6
    for _ in range(5):
        traj = ilqr.Trajectory(rng.normal(size=(11, 4)) * 3, rng.normal(size=(10, 2)))
        l_x, l_u, _, _ = pen.expand(traj)
        for part, grad in enumerate((l_x, l_u)):
            for index in np.ndindex(grad.shape):
                up = ilqr.total_cost(pen, nudged(traj, part, index, eps))
                down = ilqr.total_cost(pen, nudged(traj, part, index, -eps))
                assert (up - down) / (2 * eps) == pytest.approx(grad[index], abs=1e-5)


def test_settings_validation():
    with pytest.raises(ValueError):
        ADMMSettings(sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        ADMMSettings(sigma=math.inf)
    with pytest.raises(ValueError):
        ADMMSettings(max_admm_iters=0)
    for field in ("sigma", "max_admm_iters"):
        with pytest.raises(ValueError):
            ADMMSettings(**{field: math.nan})
    for value in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="integer"):
            ADMMSettings(max_admm_iters=value)


def solve_scenario_admm(sid):
    cfg = builtin_scenario(sid)
    return cfg, admm_solve(build_problem(cfg), cfg.admm)


# ADMM iterations and final cost of the paper's scenarios.
PAPER_PINS = {1: (5, 517.79218269691), 2: (7, 107.53807473710)}


def test_dual_update_identity():
    # replay the loop by hand and check the multiplier identity per iteration
    cfg = builtin_scenario(1)
    problem = build_problem(cfg)
    cost, dynamics, constraints = problem.cost, problem.dynamics, problem.constraints
    T = cfg.horizon
    y = ilqr.rollout(dynamics, problem.x0, np.zeros((T, 2)))
    z = consensus_blocks(y)
    lam = np.zeros_like(z)
    sigma = cfg.admm.sigma
    for _ in range(4):
        pen = PenalizedCost(cost, z, lam, sigma)
        y = ilqr.solve(y, pen, dynamics, admm.PROBE_ILQR).trajectory
        sel = consensus_blocks(y)
        z = project_consensus(sel + lam / sigma, y.states[:, 2], constraints)
        lam_before = lam.copy()
        lam = lam + sigma * (sel - z)
        np.testing.assert_allclose(lam - lam_before, sigma * (sel - z), atol=1e-12)


def test_z_iterates_feasible():
    cfg = builtin_scenario(1)
    problem = build_problem(cfg)
    cost, dynamics, constraints = problem.cost, problem.dynamics, problem.constraints
    T = cfg.horizon
    y = ilqr.rollout(dynamics, problem.x0, np.zeros((T, 2)))
    z = consensus_blocks(y)
    lam = np.zeros_like(z)
    sigma = cfg.admm.sigma
    for _ in range(6):
        pen = PenalizedCost(cost, z, lam, sigma)
        y = ilqr.solve(y, pen, dynamics, admm.PROBE_ILQR).trajectory
        sel = consensus_blocks(y)
        z = project_consensus(sel + lam / sigma, y.states[:, 2], constraints)
        lam += sigma * (sel - z)
        assert constraints.box(z[:, 2:]).max() <= 1e-6
        assert keepout_at(constraints, np.arange(T + 1), z[:, :2]).max() <= 1e-6


def projection_case(case):
    """S1 or S2 (case 1 or 2), or an S1/S2 variant with the ellipses of one
    kind of benchmark corpus instance: rotated ellipses oriented by the ego
    heading, moving rotated ellipses, or overlapping ellipses in the lane
    that S2 changes into."""
    if case in (1, 2):
        return builtin_scenario(case)
    if case == "ego heading":
        return replace(builtin_scenario(1), ego_heading_ellipses=True, obstacles=[
            Obstacle((15.0, -0.5), heading=0.3, semi_major=4.0, semi_minor=2.0)])
    if case == "moving":
        return replace(builtin_scenario(1), obstacles=[
            Obstacle((14.0, 0.8), (2.0, -0.2), heading=-0.2, semi_major=4.5, semi_minor=2.0),
            Obstacle((30.0, -1.0), (2.0, -0.2), heading=0.1, semi_major=4.0, semi_minor=2.0)])
    return replace(builtin_scenario(2), obstacles=[
        Obstacle((0.0, 4.2), (6.0, 0.0), heading=0.1, semi_major=5.0, semi_minor=2.5),
        Obstacle((6.0, 5.0), (6.0, 0.0), heading=-0.15, semi_major=4.0, semi_minor=2.0),
        Obstacle((20.0, 0.0), (3.0, 0.0), semi_major=5.0, semi_minor=2.5)])


PROJECTION_CASES = [1, 2, "ego heading", "moving", "overlapping"]


def clamp(controls, bounds):
    """Controls (..., 2) clipped onto the box of `bounds`, independently of
    the constraint set's own limits."""
    return np.clip(controls, (-bounds.max_steer, bounds.min_accel),
                   (bounds.max_steer, bounds.max_accel))


@pytest.mark.parametrize("scenario", PROJECTION_CASES)
def test_stacked_projection_equals_per_stamp_projection(scenario, monkeypatch):
    # The projection targets of every ADMM iteration, as passed, and with
    # the inputs scaled past the box limits. In the solve, project_consensus
    # hands admm.project_timestep, the layer a profile sees, exactly the
    # stamps whose keep-out value exceeds FEASIBILITY_TOL, once each. The
    # per-stamp projections read a twin constraint set whose per-stamp
    # ellipse rows were filled in shuffled stamp order, and the controls are
    # clipped onto the bounds independently; the two must agree bit for bit.
    calls, projected = [], []

    def counting(position, constraints, tau, heading):
        projected.append(tau)
        return project_timestep(position, constraints, tau, heading)

    def spy(targets, headings, constraints):
        projected.clear()
        z = project_consensus(targets, headings, constraints)
        g = keepout_at(constraints, np.arange(len(targets)), targets[:, :2], headings)
        assert projected == np.flatnonzero((g > FEASIBILITY_TOL).any(axis=1)).tolist()
        calls.append((targets.copy(), headings.copy(), constraints))
        return z

    monkeypatch.setattr(admm, "project_timestep", counting)
    monkeypatch.setattr(admm, "project_consensus", spy)
    config = projection_case(scenario)
    solve_scenario(config, "admm")
    first, headings, constraints = calls[0]
    twin = ConstraintSet(config.bounds, constraints.obstacles, constraints.timestep,
                         constraints.use_ego_heading)
    for tau in np.random.default_rng(0).permutation(len(first)).tolist():
        project_timestep(first[tau, :2].tolist(), twin, tau, headings[tau])
    moved = clamped = 0
    for targets, headings, constraints in calls:
        for blocks in (targets, targets * [1.0, 1.0, 20.0, 20.0]):
            positions = [project_timestep(block[:2], twin, tau, heading)
                         for tau, (block, heading) in enumerate(zip(blocks, headings))]
            per_stamp = np.hstack([positions, clamp(blocks[:, 2:], config.bounds)])
            np.testing.assert_array_equal(project_consensus(blocks, headings, constraints),
                                          per_stamp)
            moved += np.count_nonzero((per_stamp[:, :2] != blocks[:, :2]).any(axis=1))
            clamped += np.count_nonzero((per_stamp[:, 2:] != blocks[:, 2:]).any(axis=1))
    assert len(calls) == PAPER_PINS.get(scenario, (len(calls),))[0]
    assert moved > 0 and clamped > 0


@st.composite
def consensus_targets(draw):
    """Projection targets of 2-40 stamps near or inside 1-3 rotated, moving
    ellipses, with controls up to 20 times the box and random headings, and
    their input bounds and constraint set, with or without the ego heading."""
    def real(lo, hi):
        return draw(st.floats(lo, hi))

    bounds = InputBounds(real(0.1, 1.0), real(0.5, 5.0), real(-5.0, -0.5))
    obstacles = []
    for _ in range(draw(st.integers(1, 3))):
        minor = real(0.5, 3.0)
        obstacles.append(Obstacle(center0=(real(-6.0, 6.0), real(-6.0, 6.0)),
                                  velocity=(real(-2.0, 2.0), real(-2.0, 2.0)),
                                  heading=real(-math.pi, math.pi),
                                  semi_major=minor + real(0.0, 4.0), semi_minor=minor))
    constraints = ConstraintSet(bounds, obstacles, 0.1, draw(st.booleans()))
    targets, headings = [], []
    for tau in range(draw(st.integers(2, 40))):
        near = draw(st.sampled_from(obstacles))
        cx, cy = center_at(near, tau, 0.1)
        targets.append((cx + near.semi_major * real(-1.5, 1.5),
                        cy + near.semi_major * real(-1.5, 1.5),
                        real(-20.0, 20.0) * bounds.max_steer,
                        real(20.0 * bounds.min_accel, 20.0 * bounds.max_accel)))
        headings.append(real(-math.pi, math.pi))
    return np.array(targets), np.array(headings), bounds, constraints


# Three overlapping ellipses around a pocket that cyclic projection cannot
# leave, entered at the second and third stamps.
@example(case=(np.array([[20.0, 20.0, 0.9, -4.0], [-1.1, 1.5, 0.0, 0.0],
                         [-1.1, 1.5, 0.0, 0.0]]), np.zeros(3), InputBounds(),
               ConstraintSet(InputBounds(), [
                   Obstacle((-2.3, -1.2), heading=0.07, semi_major=4.1, semi_minor=2.3),
                   Obstacle((2.0, -0.4), heading=2.17, semi_major=3.0, semi_minor=2.0),
                   Obstacle((-2.3, 1.6), heading=-3.01, semi_major=5.3, semi_minor=1.5)],
                   0.1)))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=consensus_targets())
def test_consensus_projection_splits_into_clamp_and_keepout_projection(case):
    # The box touches only the controls and the keep-outs only the position:
    # the controls are the clip onto the box and the positions are the
    # per-stamp keep-out projection where a keep-out value exceeds
    # FEASIBILITY_TOL and the target elsewhere, bit for bit. A stamp whose
    # projection fails ends the projection with its own time index.
    targets, headings, bounds, constraints = case
    g = keepout_at(constraints, np.arange(len(targets)), targets[:, :2], headings)
    positions = targets[:, :2].copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateProjection)
        try:
            for tau in np.flatnonzero((g > FEASIBILITY_TOL).any(axis=1)).tolist():
                positions[tau] = project_timestep(targets[tau, :2], constraints, tau,
                                                  headings[tau])
        except NonConvergence:
            with pytest.raises(NonConvergence, match=f"at time index {tau}$") as failure:
                project_consensus(targets, headings, constraints)
            assert failure.value.tau == tau
            return
        z = project_consensus(targets, headings, constraints)
    assert z[:, 2:].tobytes() == clamp(targets[:, 2:], bounds).tobytes()
    assert z[:, :2].tobytes() == positions.tobytes()


@pytest.mark.parametrize("scenario", PROJECTION_CASES)
def test_record_residuals_are_primal_residual_of_the_projected_z(scenario, monkeypatch):
    # The loop takes sel(y) - z once for the dual update and both residual
    # norms; each consensus record's residuals are the max-norm and 2-norm
    # of its iterate's blocks less the z that iteration projected, bit for bit.
    projected = []

    def spy(targets, headings, constraints):
        projected.append(project_consensus(targets, headings, constraints))
        return projected[-1]

    monkeypatch.setattr(admm, "project_consensus", spy)
    report = solve_scenario(projection_case(scenario), "admm")
    records = [r for r in report.records if r.weight is not None]
    assert len(records) == len(projected) > 0
    for record, z in zip(records, projected):
        d = consensus_blocks(record.trajectory) - z
        assert (record.residual_inf, record.residual_two) == (np.abs(d).max(), np.linalg.norm(d))


def test_inactive_splitting_matches_plain_ilqr():
    for sid in (1, 2):
        cfg = replace(builtin_scenario(sid), bounds=InputBounds(1e9, 1e9, -1e9), obstacles=[])
        problem = build_problem(cfg)
        report = admm_solve(problem, cfg.admm)
        plain = ilqr.solve(ilqr.rollout(problem.dynamics, problem.x0, np.zeros((cfg.horizon, 2))),
                           problem.cost, problem.dynamics, admm.PROBE_ILQR)
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
        dynamics = build_problem(cfg).dynamics
        assert report.trajectory.dynamics_break(dynamics, tol=1e-9) is None


def test_consensus_iterations_take_one_ilqr_step():
    # Every consensus iteration takes exactly one inner iLQR step, whether
    # the solve converges or runs out of iterations.
    reports = [solve_scenario_admm(sid)[1] for sid in (1, 2)]
    cfg = builtin_scenario(1)
    reports.append(admm_solve(build_problem(cfg), replace(cfg.admm, max_admm_iters=3)))
    assert [r.status for r in reports] == ["converged", "converged", "max_iters"]
    for report in reports:
        assert report.iterations > 1
        assert [r.inner.iterations for r in report.records] == [1] * report.iterations


def test_determinism_identical_reports():
    _, first = solve_scenario_admm(1)
    _, second = solve_scenario_admm(1)
    for field in ("residual_inf", "residual_two", "cost"):
        assert ([getattr(r, field) for r in first.records]
                == [getattr(r, field) for r in second.records])
    assert first.ilqr_iterations == second.ilqr_iterations
    np.testing.assert_array_equal(
        first.trajectory.states, second.trajectory.states
    )
    np.testing.assert_array_equal(
        first.trajectory.controls, second.trajectory.controls
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
    cfg = replace(builtin_scenario(1), obstacles=keepout_ring())
    report = admm_solve(build_problem(cfg), cfg.admm)
    assert report.status == "failed"
    assert report.message
    assert report.trajectory.states.shape == (cfg.horizon + 1, 4)


class NaNControlHessian:
    """The base cost with NaN control Hessians: no regularization of Q_uu helps."""

    def __init__(self, base):
        self.base = base

    def values(self, traj):
        return self.base.values(traj)

    def expand(self, traj):
        l_x, l_u, l_xx, l_uu = self.base.expand(traj)
        l_uu[:] = math.nan
        return l_x, l_u, l_xx, l_uu


def test_failed_probe_reports_the_seed_violation():
    # The probe's regularization is exhausted, so the solve returns the
    # zero-control rollout, which drives through the S1 obstacle.
    cfg = builtin_scenario(1)
    problem = build_problem(cfg)
    report = admm_solve(replace(problem, cost=NaNControlHessian(problem.cost)), cfg.admm)
    assert report.status == "failed" and not report.records
    assert report.max_violation > 0
    assert report.max_violation == trajectory_violation(report.trajectory, problem.constraints)


def test_trajectory_violation_reports_worst_breach():
    model, traj = straight_rollout(v0=4.0, horizon=20)
    bounds = InputBounds(0.6, 3.0, -3.0)
    # straight rollout through an obstacle sitting on the path
    obs = [Obstacle(center0=(0.4, 0.0), semi_major=0.3, semi_minor=0.2)]
    worst = trajectory_violation(traj, ConstraintSet(bounds, obs, 0.1))
    assert worst == pytest.approx(1.0)  # stamp 1 sits at the center


@pytest.mark.parametrize("sid", [1, 2])
def test_paper_runs_pinned(sid):
    # Pins the numerics of the paper's scenarios: a change that moves them
    # is a change of behaviour, not of speed.
    iterations, final_cost = PAPER_PINS[sid]
    _, report = solve_scenario_admm(sid)
    assert report.status == "converged"
    assert report.iterations == iterations
    assert report.ilqr_iterations == [1] * iterations
    assert report.final_cost == pytest.approx(final_cost, rel=1e-9)


def test_consensus_that_never_engages_ends_at_the_cap_still_descending():
    # S2 from 4 m/s: every iterate is feasible, so its projection is itself,
    # both residuals stay exactly 0, the penalty never acts and the loop is
    # plain one-step iLQR. The cap cuts it off while the cost still falls,
    # well above the cost the barrier reaches from the same start.
    cfg = builtin_scenario(2)
    cfg = replace(cfg, initial_state=replace(cfg.initial_state, v=4.0))
    report = admm_solve(build_problem(cfg), cfg.admm)
    assert report.status == "max_iters" and report.iterations == 20
    assert all(r.residual_inf == 0.0 and r.residual_two == 0.0 for r in report.records)
    assert report.max_violation == 0.0
    costs = [r.cost for r in report.records]
    assert all(later < earlier for earlier, later in zip(costs, costs[1:]))
    assert costs[0] == pytest.approx(367.25, abs=5e-3)
    assert costs[-1] == pytest.approx(86.70, abs=5e-3)
    barrier = barrier_solve(build_problem(cfg), cfg.barrier)
    assert barrier.status == "converged"
    assert barrier.final_cost == pytest.approx(72.94, abs=5e-3)


def report_of(case) -> SolveReport:
    cfg = builtin_scenario(2 if case == "S2" else 1)
    if case == "barrier":
        cfg = replace(cfg, initial_state=State(0.0, 0.0, 0.0, 0.0))
    if case == "barrier":
        return barrier_solve(build_problem(cfg), cfg.barrier)
    if case == "probe exit":
        cfg = replace(cfg, bounds=InputBounds(1e9, 1e9, -1e9), obstacles=[])
    elif case == "projection failure":
        cfg = replace(cfg, obstacles=keepout_ring())
    return admm_solve(build_problem(cfg), cfg.admm)


@pytest.mark.parametrize("case", ["S1", "S2", "probe exit", "barrier", "projection failure"])
def test_report_counts_and_costs_come_from_its_records(case):
    report = report_of(case)
    assert report.iterations == len(report.records)
    assert report.ilqr_iterations == [r.inner.iterations for r in report.records]
    if report.records:
        assert report.final_cost == report.records[-1].cost
        assert report.trajectory is report.records[-1].trajectory
    else:  # the projection fails in the first iteration
        assert case == "projection failure" and math.isnan(report.final_cost)
    if case == "probe exit":
        assert report.status == "converged" and report.iterations == 1
    weights = [r.weight for r in report.records]
    if case == "probe exit":
        assert weights == [None]
    elif case == "barrier":
        ladder = builtin_scenario(1).barrier
        assert weights == [ladder.initial_sharpness * ladder.tighten_factor**i
                           for i in range(ladder.outer_iters)]
    else:
        assert weights == [builtin_scenario(1).admm.sigma] * len(weights)


def test_each_record_keeps_its_own_iterate():
    # Records hold the iterates themselves, not copies; a solve that changed
    # a trajectory in place would turn every record into the last one.
    cfg = builtin_scenario(1)
    problem = build_problem(cfg)
    report = admm_solve(problem, cfg.admm)
    first, last = report.records[0].trajectory, report.records[-1].trajectory
    assert not np.array_equal(first.states, last.states)
    for record in report.records:
        again = ilqr.rollout(problem.dynamics, problem.x0, record.trajectory.controls)
        np.testing.assert_array_equal(again.states, record.trajectory.states)


class JacobiansFailAt(BicycleModel):
    """The bicycle model whose `fail_at`-th Jacobian call finds its rows at
    the kinematic domain boundary, which `step` still accepts."""

    def __init__(self, params, fail_at):
        super().__init__(params)
        self.calls, self.fail_at = 0, fail_at

    def jacobians(self, X, U):
        self.calls += 1
        if self.calls == self.fail_at:
            raise DomainError("jacobians undefined at time index 7: at or beyond the "
                              "kinematic domain boundary", tau=7)
        return super().jacobians(X, U)


@pytest.mark.parametrize("phase", ["probe", "consensus"])
def test_jacobian_domain_error_yields_failed_status(phase):
    cfg = builtin_scenario(1)
    problem = build_problem(cfg)
    rollout0 = ilqr.rollout(problem.dynamics, problem.x0, np.zeros((cfg.horizon, 2)))
    # One Jacobian call per inner iteration: the probe's, then one per
    # consensus iteration.
    probe_calls = ilqr.solve(rollout0, problem.cost, problem.dynamics, admm.PROBE_ILQR).iterations
    fail_at = 1 if phase == "probe" else probe_calls + 2
    dynamics = JacobiansFailAt(problem.dynamics.params, fail_at)
    report = admm_solve(replace(problem, dynamics=dynamics), cfg.admm)
    assert report.status == "failed"
    assert "time index 7" in report.message
    assert report.iterations == (0 if phase == "probe" else 1)
    assert report.trajectory.states.shape == (cfg.horizon + 1, 4)


def test_forced_line_search_rejections_show_in_the_records(monkeypatch):
    # Every full step leaves the kinematic domain, so every inner iteration
    # rejects at least one trial and accepts a shorter step.
    forward_pass = ilqr.forward_pass

    def no_full_steps(traj, gains, alpha, dynamics):
        if alpha == 1.0:
            raise DomainError("forward pass step at time index 0: forced", tau=0)
        return forward_pass(traj, gains, alpha, dynamics)

    monkeypatch.setattr(ilqr, "forward_pass", no_full_steps)
    cfg = builtin_scenario(1)
    admm_report = admm_solve(build_problem(cfg), replace(cfg.admm, max_admm_iters=3))
    cfg = replace(builtin_scenario(2), initial_state=State(0.0, 0.0, 0.0, 4.0))
    barrier_report = barrier_solve(build_problem(cfg), replace(cfg.barrier, outer_iters=2))
    for report in (admm_report, barrier_report):
        assert report.records
        for record in report.records:
            inner = record.inner
            assert inner.rejected_steps >= inner.iterations >= 1
            assert inner.alpha in ilqr.ALPHAS[1:]
            assert inner.peak_mu >= admm.PROBE_ILQR.mu_init


def test_unforced_records_report_full_steps():
    _, report = solve_scenario_admm(1)
    assert [(r.inner.alpha, r.inner.rejected_steps) for r in report.records] == \
        [(1.0, 0)] * report.iterations


def test_one_position_term_pass_per_change_of_trajectory(monkeypatch):
    # The tracking cost evaluates its position term (the closest points of
    # a polyline reference) once per trajectory, not once per values or
    # expand call; the seed rollout, read by the probe and again by the
    # first consensus iteration, is evaluated once.
    passes, contents = [], []

    def counting(function, into):
        def wrapped(*args):
            into.append(1)
            return function(*args)
        return wrapped

    def recording(method):
        def wrapped(self, traj):
            contents.append((traj.states.tobytes(), traj.controls.tobytes()))
            return method(self, traj)
        return wrapped

    monkeypatch.setattr(TrackingCost, "_evaluate", counting(TrackingCost._evaluate, passes))
    monkeypatch.setattr(TrackingCost, "values", recording(TrackingCost.values))
    monkeypatch.setattr(TrackingCost, "expand", recording(TrackingCost.expand))
    polyline = ((0.0, 0.0), (20.0, 0.0), (40.0, 1.0), (60.0, 1.0))
    cfg = replace(builtin_scenario(2), reference=Reference(polyline=polyline, v_ref=8.0))
    report = admm_solve(build_problem(cfg), cfg.admm)
    assert report.iterations == cfg.admm.max_admm_iters
    assert len(passes) == len(set(contents))
    assert 3 * len(passes) < len(contents)


@pytest.mark.parametrize("x0", [[math.nan, 0.0, 0.0, 4.0], [0.0, 0.0, math.inf, 4.0],
                                [0.0, 4.0], [[0.0, 0.0, 0.0, 4.0]]])
def test_problem_rejects_an_x0_that_is_not_four_finite_numbers(x0):
    # The lateral tracking cost never reads px, so a NaN px once planned to
    # a "converged" answer with an all-NaN px row.
    problem = build_problem(builtin_scenario(1))
    with pytest.raises(ValueError, match="x0 must be four finite numbers"):
        replace(problem, x0=np.array(x0))
