import math

import numpy as np
import pytest

from admmplan import ilqr
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.errors import RegularizationExhausted
from admmplan.ilqr import (
    ILQRSettings,
    Trajectory,
    backward_pass,
    forward_pass,
    rollout,
    solve,
    total_cost,
)
from admmplan.vehicle import BicycleModel, VehicleParams

from oracles import (
    LinearDynamics,
    QuadraticCost,
    gain_schedule,
    random_lqr_instance,
    riccati_optimal,
)

TIGHT = ILQRSettings(max_iters=100, cost_tolerance=1e-10, mu_init=1e-9)


def lqr_setup(seed):
    rng = np.random.default_rng(seed)
    A, B, Q, R, Qf, x0 = random_lqr_instance(rng)
    return LinearDynamics(A, B), QuadraticCost(Q, R, Qf), x0, (A, B, Q, R, Qf)


class ZeroCost:
    # l_uu is the identity so Q_uu stays positive definite and the gain
    # solve is well posed
    l_uu = np.eye(2)

    def values(self, traj):
        return np.zeros(traj.horizon + 1)

    def expand(self, traj):
        (N, n), T = traj.states.shape, traj.horizon
        return (np.zeros((N, n)), np.zeros((T, 2)), np.zeros((N, n, n)),
                np.tile(self.l_uu, (T, 1, 1)))


def test_trajectory_shape_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((5, 4)), np.zeros((5, 2)))


def test_trajectory_feasibility_check():
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((10, 2)))
    assert traj.dynamics_break(model) is None
    traj.states[3, 0] += 1e-6
    assert traj.dynamics_break(model) == 2
    traj.states[3, 0] = math.nan
    assert traj.dynamics_break(model) == 2


def test_backward_pass_zero_cost_gives_zero_gains():
    dynamics, _, x0, _ = lqr_setup(3)
    traj = rollout(dynamics, x0, np.zeros((20, 2)))
    gains, (_, _, dV), _ = backward_pass(traj, ZeroCost(), dynamics, 1e-8, ILQRSettings())
    np.testing.assert_allclose(gains.k, np.zeros((20, 2)), atol=1e-14)
    np.testing.assert_allclose(gains.K, np.zeros((20, 2, 4)), atol=1e-14)
    assert dV == pytest.approx(0.0, abs=1e-16)


def test_backward_pass_matches_riccati_gains():
    dynamics, cost, x0, (A, B, Q, R, Qf) = lqr_setup(4)
    horizon = 25
    _, K_opt, _, _ = riccati_optimal(A, B, Q, R, Qf, x0, horizon)
    traj = rollout(dynamics, x0, np.zeros((horizon, 2)))
    gains, _, _ = backward_pass(traj, cost, dynamics, 1e-12, ILQRSettings())
    for tau in range(horizon):
        np.testing.assert_allclose(gains.K[tau], -K_opt[tau], rtol=1e-8, atol=1e-10)


def test_backward_pass_regularization_exhausted():
    class ConcaveCost(ZeroCost):
        l_uu = -1e12 * np.eye(2)

    dynamics, _, x0, _ = lqr_setup(5)
    traj = rollout(dynamics, x0, np.zeros((10, 2)))
    with pytest.raises(RegularizationExhausted):
        backward_pass(traj, ConcaveCost(), dynamics, 1e-6, ILQRSettings())


def test_forward_pass_zero_gains_is_identity():
    dynamics, _, x0, _ = lqr_setup(6)
    traj = rollout(dynamics, x0, np.ones((15, 2)) * 0.1)
    gains = gain_schedule(np.zeros((15, 2)), np.zeros((15, 2, 4)))
    out = forward_pass(traj, gains, 1.0, dynamics)
    np.testing.assert_array_equal(out.states, traj.states)
    np.testing.assert_array_equal(out.controls, traj.controls)


def test_forward_pass_alpha_zero_reproduces_nominal():
    dynamics, cost, x0, _ = lqr_setup(7)
    traj = rollout(dynamics, x0, np.zeros((15, 2)))
    gains, _, _ = backward_pass(traj, cost, dynamics, 1e-9, ILQRSettings())
    out = forward_pass(traj, gains, 0.0, dynamics)
    np.testing.assert_allclose(out.states, traj.states, atol=1e-12)


def test_single_iteration_solves_lqr():
    dynamics, cost, x0, (A, B, Q, R, Qf) = lqr_setup(8)
    horizon = 30
    opt_cost, _, _, _ = riccati_optimal(A, B, Q, R, Qf, x0, horizon)
    traj = rollout(dynamics, x0, np.zeros((horizon, 2)))
    gains, _, _ = backward_pass(traj, cost, dynamics, 1e-12, ILQRSettings())
    out = forward_pass(traj, gains, 1.0, dynamics)
    assert total_cost(cost, out) == pytest.approx(opt_cost, rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_solve_matches_riccati_cost(seed):
    dynamics, cost, x0, (A, B, Q, R, Qf) = lqr_setup(seed)
    horizon = 60
    opt_cost, _, _, _ = riccati_optimal(A, B, Q, R, Qf, x0, horizon)
    result = solve(rollout(dynamics, x0, np.zeros((horizon, 2))), cost, dynamics, TIGHT)
    assert result.cost == pytest.approx(opt_cost, rel=1e-8)
    assert result.status == ilqr.STATUS_CONVERGED


def test_solve_monotone_descent_and_history():
    params = VehicleParams()
    dynamics = BicycleModel(params)
    cost = TrackingCost(CostWeights(), Reference(py_ref=1.0, v_ref=6.0))
    nominal = rollout(dynamics, np.array([0.0, 0.0, 0.0, 2.0]), np.zeros((40, 2)))
    result = solve(nominal, cost, dynamics, ILQRSettings())
    diffs = np.diff(result.cost_history)
    assert (diffs < 0).all()


def test_solve_warm_start_converges_immediately():
    dynamics, cost, x0, _ = lqr_setup(10)
    first = solve(rollout(dynamics, x0, np.zeros((30, 2))), cost, dynamics, TIGHT)
    again = solve(first.trajectory, cost, dynamics, TIGHT)
    assert again.status == ilqr.STATUS_CONVERGED
    assert again.iterations == 1
    assert again.cost == pytest.approx(first.cost, rel=1e-12)


def test_solve_from_a_solved_trajectory_equals_solve_from_its_rollout():
    # A solve returns the rollout of its own controls bit for bit, so handing
    # its trajectory to the next solve is the same as rolling the controls
    # out again.
    dynamics = BicycleModel(VehicleParams())
    x0 = np.array([0.0, 0.0, 0.0, 4.0])
    first = solve(rollout(dynamics, x0, np.zeros((40, 2))),
                  TrackingCost(CostWeights(), Reference(py_ref=1.0, v_ref=6.0)), dynamics)
    rolled = rollout(dynamics, x0, first.trajectory.controls)
    assert (rolled.states == first.trajectory.states).all()
    assert (rolled.controls == first.trajectory.controls).all()
    cost = TrackingCost(CostWeights(), Reference(py_ref=-0.5, v_ref=7.0))
    handed = solve(first.trajectory, cost, dynamics)
    again = solve(rolled, cost, dynamics)
    assert handed.iterations > 1
    assert handed.cost_history == again.cost_history
    assert (handed.trajectory.states == again.trajectory.states).all()
    assert (handed.trajectory.controls == again.trajectory.controls).all()
    assert handed.status == again.status and handed.iterations == again.iterations


def test_rerun_backward_pass_after_convergence_has_tiny_feedforward():
    dynamics, cost, x0, _ = lqr_setup(11)
    result = solve(rollout(dynamics, x0, np.zeros((30, 2))), cost, dynamics, TIGHT)
    gains, _, _ = backward_pass(result.trajectory, cost, dynamics, 1e-12, TIGHT)
    assert np.abs(gains.k).max() < 1e-6


def test_stationarity_at_convergence():
    dynamics, cost, x0, _ = lqr_setup(12)
    horizon = 30
    result = solve(rollout(dynamics, x0, np.zeros((horizon, 2))), cost, dynamics, TIGHT)
    traj = result.trajectory
    f_x, f_u = dynamics.jacobians(traj.states[:-1], traj.controls)
    l_x, l_u, l_xx, l_uu = cost.expand(traj)
    V_x, V_xx = l_x[horizon], l_xx[horizon]
    worst = 0.0
    for tau in range(horizon - 1, -1, -1):
        A, B = f_x[tau], f_u[tau]
        Q_x = l_x[tau] + A.T @ V_x
        Q_u = l_u[tau] + B.T @ V_x
        Q_xx = l_xx[tau] + A.T @ V_xx @ A
        Q_ux = B.T @ V_xx @ A
        Q_uu = l_uu[tau] + B.T @ V_xx @ B
        worst = max(worst, np.abs(Q_u).max())
        k = -np.linalg.solve(Q_uu, Q_u)
        K = -np.linalg.solve(Q_uu, Q_ux)
        V_x = Q_x - K.T @ Q_uu @ k
        V_xx = Q_xx - K.T @ Q_uu @ K
    assert worst < 1e-4


def test_feedback_consistency_quadratic_model():
    # Perturbing the start and rolling out under the converged policy should
    # change the cost according to the value expansion at the first stamp.
    dynamics = BicycleModel(VehicleParams())
    cost = TrackingCost(CostWeights(), Reference(py_ref=1.0, v_ref=6.0))
    x0 = np.array([0.0, 0.0, 0.0, 4.0])
    result = solve(rollout(dynamics, x0, np.zeros((40, 2))), cost, dynamics,
                   ILQRSettings(cost_tolerance=1e-9))
    traj = result.trajectory
    gains, (V_x, V_xx, _), _ = backward_pass(traj, cost, dynamics, 1e-9, ILQRSettings())
    np.testing.assert_array_equal(V_xx, V_xx.T)
    base = total_cost(cost, traj)
    rng = np.random.default_rng(13)
    for _ in range(5):
        delta = rng.normal(size=4)
        delta *= 1e-3 / np.linalg.norm(delta)
        shifted = Trajectory(traj.states.copy(), traj.controls.copy())
        shifted.states[0] = traj.states[0] + delta
        out = forward_pass(shifted, gains, 0.0, dynamics)
        actual = total_cost(cost, out) - base
        predicted = float(delta @ V_x + 0.5 * delta @ V_xx @ delta)
        assert actual == pytest.approx(predicted, rel=0.1)


def test_scenario_subproblem_reaches_reference_speed():
    dynamics = BicycleModel(VehicleParams())
    cost = TrackingCost(CostWeights(), Reference(py_ref=0.0, v_ref=8.0))
    nominal = rollout(dynamics, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((60, 2)))
    result = solve(nominal, cost, dynamics, ILQRSettings())
    assert result.trajectory.states[-1, 3] == pytest.approx(8.0, abs=0.1)


def test_settings_validation():
    with pytest.raises(ValueError):
        ILQRSettings(max_iters=0)
    with pytest.raises(ValueError):
        ILQRSettings(cost_tolerance=0.0)


@pytest.mark.parametrize(
    "field", ["max_iters", "cost_tolerance", "mu_init", "mu_growth", "mu_shrink", "mu_max",
              "line_search_steps"],
)
def test_settings_reject_nan(field):
    with pytest.raises(ValueError):
        ILQRSettings(**{field: math.nan})


@pytest.mark.parametrize(
    "field, value",
    [
        ("mu_init", 0.0),
        ("mu_init", -1e-6),
        ("mu_growth", 1.0),
        ("mu_shrink", 0.0),
        ("mu_shrink", 1.5),
        ("mu_max", 1e-7),
        ("line_search_steps", 0),
    ],
)
def test_settings_reject_values_that_hang(field, value):
    # Each of these stalls the regularization schedule or the line search.
    with pytest.raises(ValueError):
        ILQRSettings(**{field: value})


@pytest.mark.parametrize("field", ["max_iters", "line_search_steps"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_iteration_counts_must_be_integers(field, value):
    with pytest.raises(ValueError, match="integer"):
        ILQRSettings(**{field: value})


def test_settings_accept_boundary_values():
    ILQRSettings(mu_shrink=1.0, mu_max=1e-6, line_search_steps=1)


def test_total_cost_sums_stamps_in_order():
    class Stamps(ZeroCost):
        def values(self, traj):
            return np.array([1.0] * 8 + [1e16] + [1.0] * 7 + [-1e16])

    # In stamp order each 1.0 after 1e16 is lost to rounding, leaving 8; a
    # pairwise or compensated sum keeps more of them.
    traj = Trajectory(np.zeros((17, 4)), np.zeros((16, 2)))
    assert total_cost(Stamps(), traj) == 8.0
