import math

import numpy as np
import pytest

from admmplan.errors import DomainError
from admmplan.vehicle import (
    BicycleModel,
    State,
    VehicleParams,
    back_roll,
    front_roll,
    jacobians,
    step,
)

PARAMS = VehicleParams(wheelbase=2.0, timestep=0.1)

# High-precision evaluations of the closed-form kinematics, frozen from a
# 50-digit arithmetic run.
BACK_ROLL_V8_W06 = 0.7119475529054942951
STEP_W03 = (0.38563093945705269708, 0.0, 0.0591385067755583433, 4.0)


def test_front_roll_values():
    assert front_roll(4.0, PARAMS) == pytest.approx(0.4)
    assert front_roll(0.0, PARAMS) == 0.0
    assert front_roll(8.0, PARAMS) == pytest.approx(0.8)


def test_back_roll_zero_steer_matches_front_roll():
    assert back_roll(4.0, 0.0, PARAMS) == pytest.approx(0.4)
    assert back_roll(0.0, 0.5, PARAMS) == 0.0


def test_back_roll_high_precision_value():
    assert back_roll(8.0, 0.6, PARAMS) == pytest.approx(BACK_ROLL_V8_W06, abs=1e-14)


def test_back_roll_outside_domain_raises():
    # front roll 10 * sin(pi/2) exceeds the wheelbase
    fast = VehicleParams(wheelbase=2.0, timestep=1.0)
    with pytest.raises(DomainError):
        back_roll(10.0, math.pi / 2.0, fast)


def test_step_straight_line():
    nxt = step(np.array([0.0, 0.0, 0.0, 4.0]), np.zeros(2), PARAMS)
    np.testing.assert_allclose(nxt, [0.4, 0.0, 0.0, 4.0], atol=1e-15)


def test_step_axis_symmetry():
    nxt = step(np.array([0.0, 0.0, math.pi / 2, 4.0]), np.array([0.0, 1.0]), PARAMS)
    np.testing.assert_allclose(nxt, [0.0, 0.4, math.pi / 2, 4.1], atol=1e-15)


def test_step_steered_high_precision_value():
    nxt = step(np.array([0.0, 0.0, 0.0, 4.0]), np.array([0.3, 0.0]), PARAMS)
    np.testing.assert_allclose(nxt, STEP_W03, atol=1e-14)


def test_step_translation_invariance():
    rng = np.random.default_rng(3)
    shift = np.array([12.5, -7.25, 0.0, 0.0])
    for _ in range(50):
        x = rng.uniform([-5, -5, -2, -1], [5, 5, 2, 10])
        u = rng.uniform([-0.6, -3], [0.6, 3])
        np.testing.assert_allclose(
            step(x + shift, u, PARAMS), np.asarray(step(x, u, PARAMS)) + shift, atol=1e-12
        )


def test_step_returns_four_floats_of_the_array_formula():
    # The kinematics of the module docstring evaluated into an array, against
    # the list that step returns, for list and array inputs alike.
    rng = np.random.default_rng(5)
    h, d = PARAMS.timestep, PARAMS.wheelbase
    for _ in range(50):
        x = rng.uniform([-10, -10, -3, -2], [10, 10, 3, 12])
        u = rng.uniform([-0.6, -3], [0.6, 3])
        px, py, theta, v = x.tolist()
        w, a = u.tolist()
        b = back_roll(v, w, PARAMS)
        expected = np.array([px + b * math.cos(theta), py + b * math.sin(theta),
                             theta + math.asin(h * v * math.sin(w) / d), v + h * a])
        for nxt in (step(x.tolist(), u.tolist(), PARAMS), step(x, u, PARAMS),
                    BicycleModel(PARAMS).step(x.tolist(), u.tolist())):
            assert type(nxt) is list and len(nxt) == 4
            assert all(isinstance(value, float) for value in nxt)
            assert nxt == expected.tolist()


def test_zero_steer_is_straight_line_at_any_heading():
    rng = np.random.default_rng(19)
    for _ in range(50):
        x = rng.uniform([-5, -5, -3, 0.1], [5, 5, 3, 10])
        nxt = step(x, np.array([0.0, rng.uniform(-2, 2)]), PARAMS)
        b = back_roll(x[3], 0.0, PARAMS)
        assert nxt[2] == x[2]
        assert nxt[1] == x[1] + b * math.sin(x[2])
        assert nxt[0] == x[0] + b * math.cos(x[2])


def test_rollout_determinism():
    model = BicycleModel(PARAMS)
    rng = np.random.default_rng(11)
    x0 = np.array([0.0, 0.0, 0.1, 4.0])
    controls = rng.uniform([-0.3, -2], [0.3, 2], size=(40, 2))
    first = [x0]
    second = [x0]
    for u in controls:
        first.append(model.step(first[-1], u))
        second.append(model.step(second[-1], u))
    np.testing.assert_array_equal(np.array(first), np.array(second))


def test_straight_line_jacobian_row():
    f_x, _ = jacobians(np.array([0.0, 0.0, 0.0, 4.0]), np.zeros(2), PARAMS)
    np.testing.assert_allclose(f_x[0], [1.0, 0.0, 0.0, PARAMS.timestep], atol=1e-15)


def test_zero_speed_kills_heading_response():
    _, f_u = jacobians(np.array([1.0, 2.0, 0.3, 0.0]), np.array([0.4, 0.0]), PARAMS)
    assert f_u[2, 0] == 0.0


def test_jacobians_match_central_differences():
    rng = np.random.default_rng(7)
    eps = 1e-6
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform([-10, -10, -3, -2], [10, 10, 3, 12])
        u = rng.uniform([-0.6, -3], [0.6, 3])
        f_x, f_u = jacobians(x, u, PARAMS)
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (np.asarray(step(x + dx, u, PARAMS))
                  - np.asarray(step(x - dx, u, PARAMS))) / (2 * eps)
            worst = max(worst, np.abs(fd - f_x[:, j]).max())
        for j in range(2):
            du = np.zeros(2)
            du[j] = eps
            fd = (np.asarray(step(x, u + du, PARAMS))
                  - np.asarray(step(x, u - du, PARAMS))) / (2 * eps)
            worst = max(worst, np.abs(fd - f_u[:, j]).max())
    assert worst < 1e-5


def test_jacobians_domain_boundary_raises():
    fast = VehicleParams(wheelbase=2.0, timestep=1.0)
    with pytest.raises(DomainError):
        jacobians(np.array([0.0, 0.0, 0.0, 2.0]), np.array([math.pi / 2, 0.0]), fast)


def test_stacked_jacobians_name_first_stamp_outside_domain():
    fast = VehicleParams(wheelbase=2.0, timestep=1.0)
    states = np.tile([0.0, 0.0, 0.0, 2.0], (8, 1))
    controls = np.zeros((8, 2))
    controls[[3, 6], 0] = math.pi / 2  # |front_roll * sin(steer)| = wheelbase
    with pytest.raises(DomainError) as info:
        jacobians(states, controls, fast)
    assert info.value.tau == 3
    with pytest.raises(DomainError) as info:
        BicycleModel(fast).jacobians(states[4:], controls[4:])
    assert info.value.tau == 2


def test_state_control_array_round_trip():
    s = State(1.0, 2.0, 0.3, 4.0)
    np.testing.assert_array_equal(s.as_array(), [1.0, 2.0, 0.3, 4.0])


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(wheelbase=0.0)
    with pytest.raises(ValueError):
        VehicleParams(timestep=-0.1)
