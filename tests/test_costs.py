import numpy as np
import pytest

from admmplan.costs import (
    CostWeights,
    Reference,
    TrackingCost,
    polyline_distance,
    stage_cost,
    stage_expansion,
    terminal_cost,
    terminal_expansion,
)
from admmplan.ilqr import Trajectory


def w(q1=1.0, q2=1.0, r1=1.0, r2=1.0, ts=1.0):
    return CostWeights(q1, q2, r1, r2, ts)


def test_polyline_distance_perpendicular_foot():
    dist, closest, tangent = polyline_distance((1.0, 1.0), [(0, 0), (2, 0)])
    assert dist == pytest.approx(1.0)
    np.testing.assert_allclose(closest, [1.0, 0.0])
    np.testing.assert_allclose(tangent, [1.0, 0.0])


def test_polyline_distance_on_polyline():
    dist, _, _ = polyline_distance((0.5, 0.0), [(0, 0), (2, 0)])
    assert dist == pytest.approx(0.0, abs=1e-15)


def test_polyline_distance_endpoint_clamp():
    dist, closest, _ = polyline_distance((3.0, 1.0), [(0, 0), (2, 0)])
    assert dist == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(closest, [2.0, 0.0])


def test_polyline_distance_tie_breaks_to_lower_segment():
    # Equidistant from both segments of a right angle; the first wins.
    poly = [(0, 0), (1, 0), (1, 1)]
    _, closest, tangent = polyline_distance((0.5, 0.5), poly)
    np.testing.assert_allclose(closest, [0.5, 0.0])
    np.testing.assert_allclose(tangent, [1.0, 0.0])


def test_reference_validation():
    with pytest.raises(ValueError):
        Reference()
    with pytest.raises(ValueError):
        Reference(py_ref=0.0, polyline=((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        Reference(polyline=((0, 0),))
    with pytest.raises(ValueError):
        Reference(polyline=((0, 0), (0, 0), (1, 0)))


def test_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(position_weight=-1.0)
    with pytest.raises(ValueError):
        CostWeights(0.0, 0.0, 0.0, 0.0, 1.0)


def test_stage_cost_perfect_tracking_is_zero():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    x = np.array([3.0, 0.0, 0.0, 8.0])
    assert stage_cost(x, np.zeros(2), w(), ref) == 0.0


def test_stage_cost_direct_value():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    x = np.array([0.0, 1.0, 0.0, 4.0])
    value = stage_cost(x, np.zeros(2), w(q1=1, q2=1, r1=0.0, r2=0.0), ref)
    assert value == pytest.approx(17.0)


def test_stage_cost_by_weights_wait_zero_weight_allowed():
    # r1 = r2 = 0 must be usable for pure state tracking.
    ref = Reference(py_ref=2.0)
    val = stage_cost(np.array([0, 0, 0, 0.0]), np.array([0.5, -1.0]), w(1, 0, 0, 0), ref)
    assert val == pytest.approx(4.0)


def test_quadratic_hessian_exact():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    weights = w(0.7, 1.3, 0.4, 2.1)
    _, _, l_xx, l_ux, l_uu = stage_expansion(np.ones(4), np.ones(2), weights, ref)
    np.testing.assert_allclose(l_xx, 2.0 * np.diag([0.0, 0.7, 0.0, 1.3]))
    np.testing.assert_allclose(l_uu, 2.0 * np.diag([0.4, 2.1]))
    np.testing.assert_allclose(l_ux, np.zeros((2, 4)))


def test_stationary_at_perfect_tracking():
    ref = Reference(py_ref=0.5, v_ref=6.0)
    x = np.array([2.0, 0.5, 0.0, 6.0])
    l_x, l_u, *_ = stage_expansion(x, np.zeros(2), w(), ref)
    np.testing.assert_allclose(l_x, np.zeros(4), atol=1e-15)
    np.testing.assert_allclose(l_u, np.zeros(2), atol=1e-15)


@pytest.mark.parametrize(
    "ref",
    [
        Reference(py_ref=1.0, v_ref=8.0),
        Reference(py_ref=-2.0),
        Reference(polyline=((0, 0), (10, 0), (20, 5), (30, 5)), v_ref=5.0),
    ],
    ids=["lateral+speed", "lateral-only", "polyline"],
)
def test_expansions_match_finite_differences(ref):
    weights = w(0.8, 1.1, 0.6, 0.3, ts=2.0)
    rng = np.random.default_rng(17)
    eps = 1e-6
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform([-5, -8, -2, -3], [35, 8, 2, 12])
        u = rng.uniform([-1, -4], [1, 4])
        l_x, l_u, l_xx, l_ux, l_uu = stage_expansion(x, u, weights, ref)
        g_x, g_xx = terminal_expansion(x, weights, ref)
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (
                stage_cost(x + dx, u, weights, ref)
                - stage_cost(x - dx, u, weights, ref)
            ) / (2 * eps)
            worst = max(worst, abs(fd - l_x[j]))
            fd_t = (
                terminal_cost(x + dx, weights, ref)
                - terminal_cost(x - dx, weights, ref)
            ) / (2 * eps)
            worst = max(worst, abs(fd_t - g_x[j]))
        for j in range(2):
            du = np.zeros(2)
            du[j] = eps
            fd = (
                stage_cost(x, u + du, weights, ref)
                - stage_cost(x, u - du, weights, ref)
            ) / (2 * eps)
            worst = max(worst, abs(fd - l_u[j]))
        for m in (l_xx, l_uu):
            evals = np.linalg.eigvalsh(0.5 * (m + m.T))
            assert evals.min() > -1e-12
    assert worst < 1e-5


def test_terminal_cost_scaling():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    x = np.array([1.0, 2.0, 0.3, 5.0])
    zero = CostWeights(1.0, 1.0, 1.0, 1.0, 0.0)
    assert terminal_cost(x, zero, ref) == 0.0
    unit = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    assert terminal_cost(x, unit, ref) == pytest.approx(
        stage_cost(x, np.zeros(2), unit, ref)
    )


def test_costs_nonnegative():
    rng = np.random.default_rng(23)
    ref = Reference(polyline=((0, 0), (5, 1), (9, -2)), v_ref=3.0)
    weights = w(0.5, 0.5, 0.5, 0.5, ts=3.0)
    for _ in range(300):
        x = rng.normal(size=4) * 10
        u = rng.normal(size=2) * 3
        assert stage_cost(x, u, weights, ref) >= 0.0
        assert terminal_cost(x, weights, ref) >= 0.0


def test_tracking_cost_adapter_matches_functions():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    weights = w()
    cost = TrackingCost(weights, ref)
    rng = np.random.default_rng(5)
    traj = Trajectory(rng.normal(size=(8, 4)), rng.normal(size=(7, 2)))
    values = cost.values(traj)
    for tau in range(7):
        x, u = traj.states[tau], traj.controls[tau]
        assert values[tau] == stage_cost(x, u, weights, ref)
    assert values[7] == terminal_cost(traj.states[7], weights, ref)
