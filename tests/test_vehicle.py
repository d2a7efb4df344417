import math

import numpy as np
import pytest

from admmplan.errors import DomainError
from admmplan.vehicle import BicycleModel, State, VehicleParams, jacobians

PARAMS = VehicleParams(wheelbase=2.0, timestep=0.1)
step = BicycleModel(PARAMS).step

# High-precision evaluations of the closed-form kinematics, frozen from a
# 50-digit arithmetic run.
BACK_ROLL_V8_W06 = 0.7119475529054942951
STEP_W03 = (0.38563093945705269708, 0.0, 0.0591385067755583433, 4.0)


def rolls(v, w):
    """(front roll, back roll) of one step at speed v and steer w: how far a
    step from heading 0 moves the rear axle without steering and at steer w."""
    return step([0.0, 0.0, 0.0, v], [0.0, 0.0])[0], step([0.0, 0.0, 0.0, v], [w, 0.0])[0]


def docstring_step(x, u, params):
    # The kinematics of the module docstring, written out once more.
    px, py, theta, v = x
    w, a = u
    d, h = params.wheelbase, params.timestep
    f = h * v
    b = d + f * math.cos(w) - math.sqrt(d * d - (f * math.sin(w)) ** 2)
    return [px + b * math.cos(theta), py + b * math.sin(theta),
            theta + math.asin(f * math.sin(w) / d), v + h * a]


def test_front_roll_values():
    assert rolls(4.0, 0.0)[0] == pytest.approx(0.4)
    assert rolls(0.0, 0.0)[0] == 0.0
    assert rolls(8.0, 0.0)[0] == pytest.approx(0.8)


def test_back_roll_zero_steer_matches_front_roll():
    front, back = rolls(4.0, 0.0)
    assert back == front == pytest.approx(0.4)
    assert rolls(0.0, 0.5)[1] == 0.0


def test_back_roll_high_precision_value():
    assert rolls(8.0, 0.6)[1] == pytest.approx(BACK_ROLL_V8_W06, abs=1e-14)


def test_back_roll_outside_domain_raises():
    # front roll 10 * sin(pi/2) exceeds the wheelbase
    fast = BicycleModel(VehicleParams(wheelbase=2.0, timestep=1.0))
    with pytest.raises(DomainError):
        fast.step([0.0, 0.0, 0.0, 10.0], [math.pi / 2.0, 0.0])


def test_step_straight_line():
    nxt = step(np.array([0.0, 0.0, 0.0, 4.0]), np.zeros(2))
    np.testing.assert_allclose(nxt, [0.4, 0.0, 0.0, 4.0], atol=1e-15)


def test_step_axis_symmetry():
    nxt = step(np.array([0.0, 0.0, math.pi / 2, 4.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(nxt, [0.0, 0.4, math.pi / 2, 4.1], atol=1e-15)


def test_step_steered_high_precision_value():
    nxt = step(np.array([0.0, 0.0, 0.0, 4.0]), np.array([0.3, 0.0]))
    np.testing.assert_allclose(nxt, STEP_W03, atol=1e-14)


def test_step_translation_invariance():
    rng = np.random.default_rng(3)
    shift = np.array([12.5, -7.25, 0.0, 0.0])
    for _ in range(50):
        x = rng.uniform([-5, -5, -2, -1], [5, 5, 2, 10])
        u = rng.uniform([-0.6, -3], [0.6, 3])
        np.testing.assert_allclose(step(x + shift, u), np.asarray(step(x, u)) + shift, atol=1e-12)


def test_step_returns_four_floats_of_the_array_formula():
    # The kinematics of the module docstring evaluated into an array, against
    # the list that step returns, for list and array inputs alike.
    rng = np.random.default_rng(5)
    for params in (PARAMS, VehicleParams(2.7, 0.05)):
        model = BicycleModel(params)
        for _ in range(50):
            x = rng.uniform([-10, -10, -3, -2], [10, 10, 3, 12])
            u = rng.uniform([-0.6, -3], [0.6, 3])
            expected = np.array(docstring_step(x.tolist(), u.tolist(), params))
            for nxt in (model.step(x.tolist(), u.tolist()), model.step(x, u)):
                assert type(nxt) is list and len(nxt) == 4
                assert all(isinstance(value, float) for value in nxt)
                assert nxt == expected.tolist()


def test_step_domain_error_at_the_boundary():
    # d^2 - (h v sin(w))^2 < 0 is outside; = 0 is the last step inside.
    params = VehicleParams(2.7, 0.05)
    model = BicycleModel(params)
    w = math.pi / 2
    edge = params.wheelbase / (params.timestep * math.sin(w))
    assert model.step([0.0, 0.0, 0.0, edge], [w, 0.0]) == \
        docstring_step([0.0, 0.0, 0.0, edge], [w, 0.0], params)
    v = math.nextafter(edge, math.inf)
    with pytest.raises(DomainError) as info:
        model.step([1.0, 2.0, 0.3, v], [w, 0.5])
    assert str(info.value) == (f"back roll undefined for v={v}, steer={w}: "
                               f"|front_roll*sin(steer)| exceeds wheelbase 2.7")


def test_zero_steer_is_straight_line_at_any_heading():
    rng = np.random.default_rng(19)
    for _ in range(50):
        x = rng.uniform([-5, -5, -3, 0.1], [5, 5, 3, 10])
        nxt = step(x, np.array([0.0, rng.uniform(-2, 2)]))
        b = rolls(x[3], 0.0)[1]
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
            fd = (np.asarray(step(x + dx, u)) - np.asarray(step(x - dx, u))) / (2 * eps)
            worst = max(worst, np.abs(fd - f_x[:, j]).max())
        for j in range(2):
            du = np.zeros(2)
            du[j] = eps
            fd = (np.asarray(step(x, u + du)) - np.asarray(step(x, u - du))) / (2 * eps)
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
    controls[[3, 6], 0] = math.pi / 2  # |h * v * sin(steer)| = wheelbase
    with pytest.raises(DomainError) as info:
        jacobians(states, controls, fast)
    assert info.value.tau == 3
    with pytest.raises(DomainError) as info:
        BicycleModel(fast).jacobians(states[4:], controls[4:])
    assert info.value.tau == 2


def test_jacobians_read_an_overflowing_discriminant_as_outside():
    # At 1e200 m/s and steer 0.5, (h v sin(steer))^2 overflows: row 3 is
    # outside the domain, with no overflow warning.
    states = np.tile([0.0, 0.0, 0.0, 4.0], (6, 1))
    controls = np.zeros((6, 2))
    states[3, 3], controls[3, 0] = 1e200, 0.5
    with pytest.raises(DomainError) as info:
        jacobians(states, controls, PARAMS)
    assert info.value.tau == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steer, db_dw", [(0.0, 0.0), (1e-300, 5e97)])
def test_jacobians_are_finite_at_a_huge_speed_the_step_takes(steer, db_dw):
    # At 1e200 m/s, (h v)^2 overflows, but h v sin(steer) is far inside the
    # wheelbase: the step is defined, and so is every derivative, with no
    # warning. d(back roll)/d(steer) = (h v)^2 sin cos / root - h v sin.
    x, u = [0.0, 0.0, 0.0, 1e200], [steer, 0.0]
    assert all(map(math.isfinite, step(x, u)))
    f_x, f_u = jacobians(x, u, PARAMS)
    assert np.isfinite(f_x).all() and np.isfinite(f_u).all()
    assert f_u[0, 0] == pytest.approx(db_dw, rel=1e-12)
    assert f_u[1, 0] == 0.0
    # Stacked with an ordinary row, which keeps its single-row values.
    rows = jacobians([[0.0, 0.0, 0.0, 4.0], x], [[0.3, 0.0], u], PARAMS)
    for stacked, single, ordinary in zip(rows, (f_x, f_u),
                                         jacobians([0.0, 0.0, 0.0, 4.0], [0.3, 0.0], PARAMS)):
        np.testing.assert_array_equal(stacked[1], single)
        np.testing.assert_array_equal(stacked[0], ordinary)


@pytest.mark.filterwarnings("error")
def test_step_and_jacobians_refuse_an_infinite_front_roll():
    # At a 10 s timestep, h v overflows at v = 1e308: f sin(0) is NaN, which
    # a `disc < 0` test let through to NaN positions, and the Jacobians
    # warned of the overflow. The finite row is outside the domain, with no
    # warning; an infinite speed is too, and NaN in still gives NaN out.
    params = VehicleParams(timestep=10.0)
    model = BicycleModel(params)
    for v in (1e308, -1e308, math.inf):
        with pytest.raises(DomainError, match="front roll timestep\\*v is infinite"):
            model.step([0.0, 0.0, 0.0, v], [0.0, 0.0])
        with pytest.raises(DomainError) as info:
            jacobians([[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, v]], np.zeros((2, 2)), params)
        assert info.value.tau == 1
    for x, u in (([0.0, 0.0, 0.0, math.nan], [0.0, 0.0]), ([0.0, 0.0, 0.0, 1e308], [math.nan, 0.0])):
        assert all(map(math.isnan, model.step(x, u)[:3]))


def test_state_control_array_round_trip():
    s = State(1.0, 2.0, 0.3, 4.0)
    np.testing.assert_array_equal(s.as_array(), [1.0, 2.0, 0.3, 4.0])


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(wheelbase=0.0)
    with pytest.raises(ValueError):
        VehicleParams(timestep=-0.1)
