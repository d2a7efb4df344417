import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from admmplan import ilqr
from admmplan.barrier import BarrierSettings
from admmplan.constraints import ConstraintSet, InputBounds, Obstacle
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.errors import RegularizationExhausted
from admmplan.ilqr import (
    Trajectory,
    backward_pass,
    forward_pass,
    rollout,
    solve,
    total_cost,
)
from admmplan.scenarios import ScenarioConfig
from admmplan.vehicle import BicycleModel, State, VehicleParams

from oracles import (
    LinearDynamics,
    QuadraticCost,
    gain_arrays,
    gain_rows,
    nudged,
    random_lqr_instance,
    riccati_optimal,
)

TIGHT = dict(max_iters=100, cost_tolerance=1e-10)


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


@pytest.mark.parametrize("value, real, count", [
    (1.5, True, False), (1, True, True), (7, True, True), (0, True, False),
    (-3, True, False), (2.0, True, False), (math.nan, True, False),
    (math.inf, True, False), (np.float64(1.5), True, False), (np.int64(3), True, True),
    (np.int64(0), True, False), (Fraction(1, 2), True, False), (Fraction(2), True, False),
    (True, False, False), (False, False, False), ("1.5", False, False), ("1", False, False),
    (None, False, False), (Decimal("1.5"), False, False), (Decimal(2), False, False),
    (1 + 0j, False, False),
], ids=repr)
def test_number_checks(value, real, count):
    # The exact-float/int fast path answers as the numbers ABCs do.
    assert ilqr.is_real(value) is real
    assert ilqr.is_count(value) is count


def _solve_at_tolerance(value):
    dynamics, cost, x0, _ = lqr_setup(3)
    return solve(rollout(dynamics, x0, np.zeros((10, 2))), cost, dynamics, cost_tolerance=value)


def _solve_with_cap(value):
    dynamics, cost, x0, _ = lqr_setup(3)
    return solve(rollout(dynamics, x0, np.zeros((10, 2))), cost, dynamics, max_iters=value)


NOT_REAL = (True, "1.5")
NOT_FINITE = (math.nan, math.inf, -math.inf) + NOT_REAL
NOT_COUNT = (True, 2.5, 2.0, math.nan, 0, -1, "3")
# Every single-value check, each by `ilqr.require`: how to build a value
# with the field, the start of its refusal message and the values it
# refuses with that message. An infinite box limit is an absent face, so
# a box limit that is a number is refused only for NaN or the wrong sign;
# the minor semi-axis is checked first, and the major one against it (the
# default minor is 2.5).
CHECKED_FIELDS = [
    ("max_steer", lambda v: InputBounds(max_steer=v), "max_steer must be positive",
     NOT_REAL + (math.nan, 0.0, -0.6, -math.inf)),
    ("max_accel", lambda v: InputBounds(max_accel=v), "max_accel must be positive",
     NOT_REAL + (math.nan, 0.0)),
    ("min_accel", lambda v: InputBounds(min_accel=v), "min_accel must be negative",
     NOT_REAL + (math.nan, 0.0, 1.0)),
    ("heading", lambda v: Obstacle((0.0, 0.0), heading=v), "heading must be a finite number",
     NOT_FINITE),
    ("semi_major", lambda v: Obstacle((0.0, 0.0), semi_major=v),
     "semi_major must be finite and at least semi_minor", NOT_FINITE + (1.0, 0.0)),
    ("semi_minor", lambda v: Obstacle((0.0, 0.0), semi_minor=v),
     "semi_minor must be positive and finite", NOT_FINITE + (0.0,)),
    *[(name, lambda v, name=name: CostWeights(**{name: v}),
       f"cost weight {name} must be finite and nonnegative", NOT_FINITE + (-1.0,))
      for name in ("position_weight", "velocity_weight", "steering_weight", "accel_weight",
                   "terminal_scale")],
    ("py_ref", lambda v: Reference(py_ref=v), "py_ref must be a finite number", NOT_FINITE),
    ("v_ref", lambda v: Reference(py_ref=0.0, v_ref=v), "v_ref must be a finite number",
     NOT_FINITE),
    *[(name, lambda v, name=name: VehicleParams(**{name: v}),
       f"{name} must be positive and finite", NOT_FINITE + (0.0,))
      for name in ("wheelbase", "timestep")],
    *[(name, lambda v, name=name: State(**{name: v}), f"state {name} must be a finite number",
       NOT_FINITE) for name in ("px", "py", "theta", "v")],
    ("initial_sharpness", lambda v: BarrierSettings(initial_sharpness=v),
     "initial_sharpness must be positive and finite", NOT_FINITE + (0.0,)),
    ("tighten_factor", lambda v: BarrierSettings(tighten_factor=v),
     "tighten_factor must exceed 1 and be finite", NOT_FINITE + (1.0,)),
    ("cost_tolerance", lambda v: BarrierSettings(cost_tolerance=v),
     "cost_tolerance must be positive", NOT_FINITE + (0.0,)),
    ("solve cost_tolerance", _solve_at_tolerance, "cost_tolerance must be positive",
     NOT_FINITE + (0.0,)),
    ("max_iters", _solve_with_cap, "max_iters must be an integer of at least 1", NOT_COUNT),
    ("outer_iters", lambda v: BarrierSettings(outer_iters=v),
     "outer_iters must be an integer of at least 1", NOT_COUNT),
    ("horizon", lambda v: ScenarioConfig("x", State(), horizon=v),
     "horizon must be an integer of at least 1", NOT_COUNT),
]


@pytest.mark.parametrize("build, prefix, value", [
    pytest.param(build, prefix, value, id=f"{label}={value!r}")
    for label, build, prefix, values in CHECKED_FIELDS for value in values])
def test_require_names_the_field_and_the_refused_value(build, prefix, value):
    # One rule checks every real-valued field: the message keeps the
    # field's own text and ends with the value it refused.
    with pytest.raises(ValueError) as info:
        build(value)
    message = str(info.value)
    assert message.startswith(prefix) and message.endswith(f"got {value!r}"), message


def test_trajectory_shape_validation():
    with pytest.raises(ValueError, match="^states must be one longer than controls, "
                                         "got 5 states and 5 controls$"):
        Trajectory(np.zeros((5, 4)), np.zeros((5, 2)))


def test_trajectory_feasibility_check():
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((10, 2)))
    assert traj.dynamics_break(model) is None
    assert nudged(traj, 0, (3, 0), 1e-6).dynamics_break(model) == 2
    assert nudged(traj, 0, (3, 0), math.nan).dynamics_break(model) == 2


def test_trajectory_is_read_only_and_keeps_one_evaluation_per_model():
    rng = np.random.default_rng(37)
    states, controls = rng.normal(size=(7, 4)) * 5, rng.normal(size=(6, 2))
    traj = Trajectory(states, controls)
    # The inputs are copied, not frozen.
    assert states.flags.writeable and controls.flags.writeable
    assert not np.shares_memory(traj.states, states)
    assert not np.shares_memory(traj.controls, controls)
    for array in (traj.states, traj.controls):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    calls = []

    def evaluate(t):
        calls.append(t)
        return len(calls)

    first, second = object(), object()
    for _ in range(2):
        assert [traj.evaluation(first, evaluate), traj.evaluation(second, evaluate)] == [1, 2]
    assert calls == [traj, traj]
    # An equal copy is evaluated on its own, to the same bits.
    copy = Trajectory(traj.states, traj.controls)
    assert copy.evaluation(first, evaluate) == 3
    cost = TrackingCost(CostWeights(), Reference(polyline=((0, 0), (10, 0), (20, 5)), v_ref=5.0))
    constraints = ConstraintSet(InputBounds(), [Obstacle((1.0, 0.5))], 0.1)
    kept, fresh = ([cost.values(t), *constraints.values(t), constraints.trajectory_gradient(t)]
                   for t in (traj, copy))
    assert not any(np.shares_memory(a, b) for a, b in zip(kept, fresh))
    assert [a.tobytes() for a in kept] == [a.tobytes() for a in fresh]


def test_passes_hand_over_read_only_arrays_and_callers_keep_theirs():
    # rollout and forward_pass give the Trajectory the arrays they build,
    # read-only and shared with nothing else; a Trajectory built by a caller,
    # and a rollout of a caller's controls, keep copies that the caller's
    # later writes leave unchanged.
    model = BicycleModel(VehicleParams())
    x0, controls = np.array([0.0, 0.0, 0.0, 4.0]), np.full((10, 2), 0.1)
    traj = rollout(model, x0, controls)
    moved = forward_pass(traj, [(0.0,) * 10] * 10, 1.0, model)
    for result in (traj, moved):
        for array in (result.states, result.controls):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
    pairs = [(a, b) for a in (traj.states, traj.controls, moved.states, moved.controls)
             for b in (traj.states, traj.controls, moved.states, moved.controls, x0, controls)
             if a is not b]
    assert not any(np.shares_memory(a, b) for a, b in pairs)
    states = traj.states.copy()
    built = Trajectory(states, controls)
    before = [array.tobytes() for array in (traj.states, traj.controls, built.states,
                                            built.controls)]
    x0[:], controls[:], states[:] = 9.0, 5.0, 7.0
    assert before == [array.tobytes() for array in (traj.states, traj.controls, built.states,
                                                    built.controls)]
    assert built.states.tobytes() == traj.states.tobytes()


def test_backward_pass_zero_cost_gives_zero_gains():
    dynamics, _, x0, _ = lqr_setup(3)
    traj = rollout(dynamics, x0, np.zeros((20, 2)))
    gains, (_, _, dV), _ = backward_pass(traj, ZeroCost(), dynamics, 1e-8)
    k, K = gain_arrays(gains)
    np.testing.assert_allclose(k, np.zeros((20, 2)), atol=1e-14)
    np.testing.assert_allclose(K, np.zeros((20, 2, 4)), atol=1e-14)
    assert dV == pytest.approx(0.0, abs=1e-16)


def test_backward_pass_matches_riccati_gains():
    dynamics, cost, x0, (A, B, Q, R, Qf) = lqr_setup(4)
    horizon = 25
    _, K_opt, _, _ = riccati_optimal(A, B, Q, R, Qf, x0, horizon)
    traj = rollout(dynamics, x0, np.zeros((horizon, 2)))
    gains, _, _ = backward_pass(traj, cost, dynamics, 1e-12)
    _, K = gain_arrays(gains)
    for tau in range(horizon):
        np.testing.assert_allclose(K[tau], -K_opt[tau], rtol=1e-8, atol=1e-10)


def test_backward_pass_regularization_exhausted():
    class ConcaveCost(ZeroCost):
        l_uu = -1e12 * np.eye(2)

    dynamics, _, x0, _ = lqr_setup(5)
    traj = rollout(dynamics, x0, np.zeros((10, 2)))
    with pytest.raises(RegularizationExhausted):
        backward_pass(traj, ConcaveCost(), dynamics, 1e-6)


@pytest.mark.parametrize("stamps", [slice(None), slice(4, 5)])
def test_nan_l_uu_exhausts_regularization(stamps):
    # NaN fails every comparison, so a NaN Q_uu must fail the positive
    # definiteness check at every mu instead of yielding NaN gains (which
    # then cost the solve every line-search trial of every iteration).
    class NaNCost(ZeroCost):
        def expand(self, traj):
            l_x, l_u, l_xx, l_uu = super().expand(traj)
            l_uu[stamps] = math.nan
            return l_x, l_u, l_xx, l_uu

    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((10, 2)))
    with pytest.raises(RegularizationExhausted):
        backward_pass(traj, NaNCost(), model, 1e-6)
    with pytest.raises(RegularizationExhausted, match="backward pass"):
        solve(traj, NaNCost(), model)


def test_forward_pass_zero_gains_is_identity():
    dynamics, _, x0, _ = lqr_setup(6)
    traj = rollout(dynamics, x0, np.ones((15, 2)) * 0.1)
    gains = gain_rows(np.zeros((15, 2)), np.zeros((15, 2, 4)))
    out = forward_pass(traj, gains, 1.0, dynamics)
    np.testing.assert_array_equal(out.states, traj.states)
    np.testing.assert_array_equal(out.controls, traj.controls)


def test_forward_pass_alpha_zero_reproduces_nominal():
    dynamics, cost, x0, _ = lqr_setup(7)
    traj = rollout(dynamics, x0, np.zeros((15, 2)))
    gains, _, _ = backward_pass(traj, cost, dynamics, 1e-9)
    out = forward_pass(traj, gains, 0.0, dynamics)
    np.testing.assert_allclose(out.states, traj.states, atol=1e-12)


def test_single_iteration_solves_lqr():
    dynamics, cost, x0, (A, B, Q, R, Qf) = lqr_setup(8)
    horizon = 30
    opt_cost, _, _, _ = riccati_optimal(A, B, Q, R, Qf, x0, horizon)
    traj = rollout(dynamics, x0, np.zeros((horizon, 2)))
    gains, _, _ = backward_pass(traj, cost, dynamics, 1e-12)
    out = forward_pass(traj, gains, 1.0, dynamics)
    assert total_cost(cost, out) == pytest.approx(opt_cost, rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_solve_matches_riccati_cost(seed):
    dynamics, cost, x0, (A, B, Q, R, Qf) = lqr_setup(seed)
    horizon = 60
    opt_cost, _, _, _ = riccati_optimal(A, B, Q, R, Qf, x0, horizon)
    result = solve(rollout(dynamics, x0, np.zeros((horizon, 2))), cost, dynamics, **TIGHT)
    assert result.cost == pytest.approx(opt_cost, rel=1e-8)
    assert result.status == ilqr.STATUS_CONVERGED


def test_solve_reports_full_steps_at_the_regularization_floor():
    dynamics, cost, x0, _ = lqr_setup(9)
    result = solve(rollout(dynamics, x0, np.zeros((30, 2))), cost, dynamics)
    assert result.alpha == 1.0
    assert result.rejected_steps == 0
    assert result.peak_mu == ilqr.MU_MIN


def test_solve_reports_rejected_steps_and_grown_regularization():
    # Q_uu = -1e-3 I: mu has to grow past 1e-3 for the gains, which are zero,
    # so every trial reproduces the nominal, no step lowers the cost and the
    # predicted change is zero.
    class SlightlyConcave(ZeroCost):
        l_uu = -1e-3 * np.eye(2)

    dynamics, _, x0, _ = lqr_setup(11)
    result = solve(rollout(dynamics, x0, np.zeros((10, 2))), SlightlyConcave(), dynamics)
    assert result.status == ilqr.STATUS_CONVERGED and result.iterations == 1
    assert result.alpha is None
    assert result.rejected_steps == len(ilqr.ALPHAS)
    assert 1e-3 < result.peak_mu < 1.1e-2


def test_solve_rejects_trials_whose_steer_is_infinite(monkeypatch):
    # A feedforward steer of inf at stamp 3 makes the step refuse every
    # trial there with a DomainError: each trial is rejected, and the solve
    # returns instead of raising.
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((10, 2)))
    k = np.zeros((10, 2))
    k[3, 0] = math.inf
    gains = gain_rows(k, np.zeros((10, 2, 4)))
    monkeypatch.setattr(ilqr, "backward_pass", lambda *args: (gains, (0.0, 0.0, 0.0), 1e-6))
    result = solve(traj, ZeroCost(), model)
    assert result.status == ilqr.STATUS_CONVERGED and result.iterations == 1
    assert result.alpha is None
    assert result.rejected_steps == len(ilqr.ALPHAS)
    assert result.trajectory is traj


def test_solve_monotone_descent_and_history():
    params = VehicleParams()
    dynamics = BicycleModel(params)
    cost = TrackingCost(CostWeights(), Reference(py_ref=1.0, v_ref=6.0))
    nominal = rollout(dynamics, np.array([0.0, 0.0, 0.0, 2.0]), np.zeros((40, 2)))
    result = solve(nominal, cost, dynamics)
    diffs = np.diff(result.cost_history)
    assert (diffs < 0).all()


def test_solve_warm_start_converges_immediately():
    dynamics, cost, x0, _ = lqr_setup(10)
    first = solve(rollout(dynamics, x0, np.zeros((30, 2))), cost, dynamics, **TIGHT)
    again = solve(first.trajectory, cost, dynamics, **TIGHT)
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
    result = solve(rollout(dynamics, x0, np.zeros((30, 2))), cost, dynamics, **TIGHT)
    gains, _, _ = backward_pass(result.trajectory, cost, dynamics, 1e-12)
    k, _ = gain_arrays(gains)
    assert np.abs(k).max() < 1e-6


def test_stationarity_at_convergence():
    dynamics, cost, x0, _ = lqr_setup(12)
    horizon = 30
    result = solve(rollout(dynamics, x0, np.zeros((horizon, 2))), cost, dynamics, **TIGHT)
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
    result = solve(rollout(dynamics, x0, np.zeros((40, 2))), cost, dynamics, cost_tolerance=1e-9)
    traj = result.trajectory
    gains, (V_x, V_xx, _), _ = backward_pass(traj, cost, dynamics, 1e-9)
    np.testing.assert_array_equal(V_xx, V_xx.T)
    base = total_cost(cost, traj)
    rng = np.random.default_rng(13)
    for _ in range(5):
        delta = rng.normal(size=4)
        delta *= 1e-3 / np.linalg.norm(delta)
        states = traj.states.copy()
        states[0] += delta
        out = forward_pass(Trajectory(states, traj.controls), gains, 0.0, dynamics)
        actual = total_cost(cost, out) - base
        predicted = float(delta @ V_x + 0.5 * delta @ V_xx @ delta)
        assert actual == pytest.approx(predicted, rel=0.1)


def test_scenario_subproblem_reaches_reference_speed():
    dynamics = BicycleModel(VehicleParams())
    cost = TrackingCost(CostWeights(), Reference(py_ref=0.0, v_ref=8.0))
    nominal = rollout(dynamics, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((60, 2)))
    result = solve(nominal, cost, dynamics)
    assert result.trajectory.states[-1, 3] == pytest.approx(8.0, abs=0.1)


def test_settings_validation():
    # The engine's cost tolerance must be a positive number: at zero no
    # improvement falls below it and a stalled solve runs to max_iters. Its
    # cap must be a count: 0 and -3 returned a zero-iteration result, True
    # ran one iteration, and 2.5 and NaN failed inside range().
    dynamics, cost, x0, _ = lqr_setup(3)
    nominal = rollout(dynamics, x0, np.zeros((10, 2)))
    for value in (0.0, -1e-4, True, "1e-4"):
        with pytest.raises(ValueError, match="cost_tolerance must be positive"):
            solve(nominal, cost, dynamics, cost_tolerance=value)
    # At inf every improvement falls below it: any solve stopped after one
    # iteration as converged.
    with pytest.raises(ValueError, match="cost_tolerance must be positive and finite, got inf"):
        solve(nominal, cost, dynamics, cost_tolerance=math.inf)
    for value in (0, -3, True, 2.5, 3.0, math.nan, "3"):
        with pytest.raises(ValueError, match="max_iters must be an integer of at least 1"):
            solve(nominal, cost, dynamics, max_iters=value)
    assert solve(nominal, cost, dynamics, max_iters=np.int64(1)).iterations == 1


@pytest.mark.parametrize("field", ["cost_tolerance"])
def test_settings_reject_nan(field):
    dynamics, cost, x0, _ = lqr_setup(3)
    nominal = rollout(dynamics, x0, np.zeros((10, 2)))
    with pytest.raises(ValueError):
        solve(nominal, cost, dynamics, **{field: math.nan})


def test_total_cost_sums_stamps_in_order():
    class Stamps(ZeroCost):
        def values(self, traj):
            return np.array([1.0] * 8 + [1e16] + [1.0] * 7 + [-1e16])

    # In stamp order each 1.0 after 1e16 is lost to rounding, leaving 8; a
    # pairwise or compensated sum keeps more of them.
    traj = Trajectory(np.zeros((17, 4)), np.zeros((16, 2)))
    assert total_cost(Stamps(), traj) == 8.0
