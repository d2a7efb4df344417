import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.ilqr import Trajectory


def w(q1=1.0, q2=1.0, r1=1.0, r2=1.0, ts=1.0):
    return CostWeights(q1, q2, r1, r2, ts)


def at(x, u=(0.0, 0.0)):
    """One-stamp trajectory holding state x: row 0 of `values` and `expand`
    is the stage term at (x, u), row 1 the terminal term at x."""
    x = np.asarray(x, dtype=float)
    return Trajectory(np.array([x, x]), np.array([u], dtype=float))


def polyline_probe(point, polyline):
    """(distance, closest point, tangent projector t t') of a point against a
    polyline, read off a unit position cost: its value is d^2, its gradient
    2 (p - closest) and its Hessian 2 (I - t t') (2 I at a vertex)."""
    cost = TrackingCost(w(1.0, 0.0, 0.0, 0.0), Reference(polyline=polyline))
    traj = at((*point, 0.0, 0.0))
    l_x, _, l_xx, _ = cost.expand(traj)
    closest = np.asarray(point, dtype=float) - 0.5 * l_x[0, :2]
    return math.sqrt(cost.values(traj)[0]), closest, np.eye(2) - 0.5 * l_xx[0, :2, :2]


def test_polyline_distance_perpendicular_foot():
    dist, closest, projector = polyline_probe((1.0, 1.0), [(0, 0), (2, 0)])
    assert dist == pytest.approx(1.0)
    np.testing.assert_allclose(closest, [1.0, 0.0])
    np.testing.assert_allclose(projector, [[1.0, 0.0], [0.0, 0.0]])


def test_polyline_distance_on_polyline():
    dist, _, _ = polyline_probe((0.5, 0.0), [(0, 0), (2, 0)])
    assert dist == pytest.approx(0.0, abs=1e-15)


def test_polyline_distance_endpoint_clamp():
    dist, closest, projector = polyline_probe((3.0, 1.0), [(0, 0), (2, 0)])
    assert dist == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(closest, [2.0, 0.0])
    np.testing.assert_allclose(projector, np.zeros((2, 2)), atol=1e-15)


def test_polyline_distance_tie_breaks_to_lower_segment():
    # Equidistant from both segments of a right angle; the first wins.
    poly = [(0, 0), (1, 0), (1, 1)]
    _, closest, projector = polyline_probe((0.5, 0.5), poly)
    np.testing.assert_allclose(closest, [0.5, 0.0])
    np.testing.assert_allclose(projector, [[1.0, 0.0], [0.0, 0.0]])


def test_reference_validation():
    with pytest.raises(ValueError):
        Reference()
    with pytest.raises(ValueError):
        Reference(py_ref=0.0, polyline=((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        Reference(polyline=((0, 0),))
    with pytest.raises(ValueError):
        Reference(polyline=((0, 0), (0, 0), (1, 0)))
    for polyline in (((0, 0, 0), (40, 2, 0)), ((0,), (40,))):
        with pytest.raises(ValueError, match="two finite numbers each"):
            Reference(polyline=polyline)


def test_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(position_weight=-1.0)
    with pytest.raises(ValueError, match=re.escape(
            "at least one cost weight must be positive, got position_weight=0.0, "
            "velocity_weight=0.0, steering_weight=0.0, accel_weight=0.0")):
        CostWeights(0.0, 0.0, 0.0, 0.0, 1.0)


def test_stage_cost_perfect_tracking_is_zero():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    x = np.array([3.0, 0.0, 0.0, 8.0])
    assert TrackingCost(w(), ref).values(at(x))[0] == 0.0


def test_stage_cost_direct_value():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    x = np.array([0.0, 1.0, 0.0, 4.0])
    cost = TrackingCost(w(q1=1, q2=1, r1=0.0, r2=0.0), ref)
    assert cost.values(at(x))[0] == pytest.approx(17.0)


def test_stage_cost_by_weights_wait_zero_weight_allowed():
    # r1 = r2 = 0 must be usable for pure state tracking.
    cost = TrackingCost(w(1, 0, 0, 0), Reference(py_ref=2.0))
    val = cost.values(at(np.zeros(4), (0.5, -1.0)))[0]
    assert val == pytest.approx(4.0)


def test_quadratic_hessian_exact():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    cost = TrackingCost(w(0.7, 1.3, 0.4, 2.1), ref)
    _, _, l_xx, l_uu = cost.expand(at(np.ones(4), np.ones(2)))
    np.testing.assert_allclose(l_xx[0], 2.0 * np.diag([0.0, 0.7, 0.0, 1.3]))
    np.testing.assert_allclose(l_uu[0], 2.0 * np.diag([0.4, 2.1]))


def test_stationary_at_perfect_tracking():
    ref = Reference(py_ref=0.5, v_ref=6.0)
    x = np.array([2.0, 0.5, 0.0, 6.0])
    l_x, l_u, _, _ = TrackingCost(w(), ref).expand(at(x))
    np.testing.assert_allclose(l_x, np.zeros((2, 4)), atol=1e-15)
    np.testing.assert_allclose(l_u, np.zeros((1, 2)), atol=1e-15)


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
    cost = TrackingCost(w(0.8, 1.1, 0.6, 0.3, ts=2.0), ref)
    rng = np.random.default_rng(17)
    eps = 1e-6
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform([-5, -8, -2, -3], [35, 8, 2, 12])
        u = rng.uniform([-1, -4], [1, 4])
        l_x, l_u, l_xx, l_uu = cost.expand(at(x, u))
        # Rows 0 (stage) and 1 (terminal) move together with x.
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (cost.values(at(x + dx, u)) - cost.values(at(x - dx, u))) / (2 * eps)
            worst = max(worst, np.abs(fd - l_x[:, j]).max())
        for j in range(2):
            du = np.zeros(2)
            du[j] = eps
            fd = (cost.values(at(x, u + du)) - cost.values(at(x, u - du))) / (2 * eps)
            worst = max(worst, abs(fd[0] - l_u[0, j]))
        for m in (l_xx[0], l_xx[1], l_uu[0]):
            evals = np.linalg.eigvalsh(0.5 * (m + m.T))
            assert evals.min() > -1e-12
    assert worst < 1e-5


def test_terminal_cost_scaling():
    ref = Reference(py_ref=0.0, v_ref=8.0)
    traj = at(np.array([1.0, 2.0, 0.3, 5.0]))
    zero = CostWeights(1.0, 1.0, 1.0, 1.0, 0.0)
    assert TrackingCost(zero, ref).values(traj)[1] == 0.0
    unit = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    stage, terminal = TrackingCost(unit, ref).values(traj)
    assert terminal == pytest.approx(stage)


def test_costs_nonnegative():
    rng = np.random.default_rng(23)
    ref = Reference(polyline=((0, 0), (5, 1), (9, -2)), v_ref=3.0)
    cost = TrackingCost(w(0.5, 0.5, 0.5, 0.5, ts=3.0), ref)
    for _ in range(300):
        x = rng.normal(size=4) * 10
        u = rng.normal(size=2) * 3
        assert np.all(cost.values(at(x, u)) >= 0.0)


def test_tracking_cost_adapter_matches_functions():
    # The stacked values against the cost written out term by term.
    cost = TrackingCost(w(ts=3.0), Reference(py_ref=0.0, v_ref=8.0))
    rng = np.random.default_rng(5)
    traj = Trajectory(rng.normal(size=(8, 4)), rng.normal(size=(7, 2)))
    X, U = traj.states, traj.controls
    state = X[:, 1] ** 2 + (X[:, 3] - 8.0) ** 2
    want = np.append(state[:7] + U[:, 0] ** 2 + U[:, 1] ** 2, 3.0 * state[7])
    np.testing.assert_allclose(cost.values(traj), want, rtol=1e-14)


# One evaluation per trajectory, kept by the trajectory, bitwise equal to a
# fresh TrackingCost whatever came before.
REFERENCES = [Reference(py_ref=1.0, v_ref=8.0),
              Reference(polyline=((0, 0), (10, 0), (20, 5), (30, 5)), v_ref=5.0)]
REFERENCE_IDS = ["lateral", "polyline"]


def random_trajectory(rng, horizon=6):
    states = rng.uniform([-5, -8, -2, -3], [35, 8, 2, 12], size=(horizon + 1, 4))
    return Trajectory(states, rng.uniform([-1, -4], [1, 4], size=(horizon, 2)))


def evaluation(cost, traj):
    """Values and expansion arrays of traj, as bytes."""
    return [a.tobytes() for a in (cost.values(traj), *cost.expand(traj))]


@pytest.mark.parametrize("ref", REFERENCES, ids=REFERENCE_IDS)
def test_trajectory_changed_in_place_is_evaluated_afresh(ref):
    # A write into a trajectory raises and leaves its evaluation as it was;
    # the changed content is a new trajectory, which the same cost
    # evaluates afresh.
    weights = w(0.8, 1.1, 0.6, 0.3, ts=2.0)
    cost = TrackingCost(weights, ref)
    traj = random_trajectory(np.random.default_rng(29))
    before = evaluation(cost, traj)
    with pytest.raises(ValueError):
        traj.states[2, :2] += 0.5
    with pytest.raises(ValueError):
        traj.controls[1, 0] -= 0.1
    assert evaluation(cost, traj) == before
    states, controls = traj.states.copy(), traj.controls.copy()
    states[2, :2] += 0.5
    controls[1, 0] -= 0.1
    changed = Trajectory(states, controls)
    after = evaluation(cost, changed)
    assert after == evaluation(TrackingCost(weights, ref), changed)
    assert all(a != b for a, b in zip(before[:3], after[:3]))
    assert evaluation(cost, traj) == before


@pytest.mark.parametrize("ref", REFERENCES, ids=REFERENCE_IDS)
def test_values_read_only_and_expansions_fresh(ref):
    cost = TrackingCost(w(0.8, 1.1, 0.6, 0.3, ts=2.0), ref)
    traj = random_trajectory(np.random.default_rng(31))
    values = cost.values(traj)
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0.0
    first = cost.expand(traj)
    want = [a.tobytes() for a in first]
    for array in first:
        assert array.flags.writeable
        array += 1.0
    again = cost.expand(traj)
    assert [a.tobytes() for a in again] == want
    assert not any(np.shares_memory(a, b) for a, b in zip(first, again))
    assert cost.values(traj) is values


@settings(max_examples=60, deadline=None)
@given(ref=st.sampled_from(REFERENCES), seed=st.integers(0, 2**32 - 1),
       calls=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=16))
def test_shared_cost_matches_fresh_evaluation(ref, seed, calls):
    # A sequence of trajectories with repeats (and equal copies), each one
    # read as values or as an expansion through one TrackingCost.
    rng = np.random.default_rng(seed)
    pool = [random_trajectory(rng, horizon=4) for _ in range(3)]
    pool.append(Trajectory(pool[0].states.copy(), pool[0].controls.copy()))
    weights = w(0.8, 1.1, 0.6, 0.3, ts=2.0)
    shared = TrackingCost(weights, ref)
    for index, expand in calls:
        traj, fresh = pool[index], TrackingCost(weights, ref)
        if expand:
            got, want = shared.expand(traj), fresh.expand(traj)
        else:
            got, want = [shared.values(traj)], [fresh.values(traj)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
