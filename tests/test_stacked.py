"""Whole-trajectory evaluations against stamp-by-stamp ones.

The solvers read dynamics Jacobians, cost values and cost expansions over
whole trajectories as stacked arrays. Each check here rebuilds the same
arrays one stamp at a time, from one-stamp slices of the tracking cost and
single-stamp `jacobians` and `ConstraintSet` evaluations, and requires
agreement to 1e-12. The barrier's stacked terms must also equal, bit for
bit, the same terms formed one constraint column at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmplan.admm import PenalizedCost
from admmplan.barrier import BarrierCost
from admmplan.constraints import ConstraintSet, InputBounds, Obstacle
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.errors import BarrierDomainViolation
from admmplan.ilqr import Trajectory, total_cost
from admmplan.vehicle import VehicleParams, jacobians

from oracles import (
    column_barrier_expansion, column_barrier_values, consensus_blocks, keepout_at,
    keepout_gradient_at,
)

TOL = 1e-12
POLYLINE = ((0.0, 0.0), (10.0, 0.0), (20.0, 5.0), (30.0, 5.0))
# Before the first vertex, past the last, and outside the first bend: each
# clamps to a vertex.
CLAMPED = [(-4.0, 3.0, 0.1, 5.0), (34.0, 8.0, -0.2, 6.0), (10.5, -3.0, 0.0, 4.0)]


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def trajectories(draw, horizon=st.integers(1, 8), extra_states=()):
    T = draw(horizon)
    state = st.tuples(floats(-10, 40), floats(-10, 15), floats(-3, 3),
                      floats(-2, 12))
    control = st.tuples(floats(-0.6, 0.6), floats(-3, 3))
    states = list(extra_states) + draw(st.lists(state, min_size=T + 1, max_size=T + 1))
    n = len(states) - 1
    controls = draw(st.lists(control, min_size=n, max_size=n))
    return Trajectory(np.array(states), np.array(controls))


@st.composite
def weights(draw):
    w = st.floats(0.0, 5.0)
    return CostWeights(draw(st.floats(0.01, 5.0)), draw(w), draw(w), draw(w),
                       draw(st.floats(0.0, 200.0)))


@st.composite
def references(draw):
    v_ref = draw(st.none() | floats(0.0, 10.0))
    if draw(st.booleans()):
        return Reference(py_ref=draw(floats(-5, 5)), v_ref=v_ref)
    return Reference(polyline=POLYLINE, v_ref=v_ref)


def stampwise(cost, traj):
    """Values and expansions of a tracking cost, one stamp at a time: stamp t
    is row 0 of the one-step slice starting at t, the terminal stamp row 1 of
    the last slice."""
    X, U, T = traj.states, traj.controls, traj.horizon
    slices = [Trajectory(X[t:t + 2], U[t:t + 1]) for t in range(T)]
    rows = [(cost.values(one), cost.expand(one)) for one in slices]
    last_values, (last_x, _, last_xx, _) = rows[-1]
    values = np.array([v[0] for v, _ in rows] + [last_values[1]])
    l_x = np.array([e[0][0] for _, e in rows] + [last_x[1]])
    l_u = np.array([e[1][0] for _, e in rows])
    l_xx = np.array([e[2][0] for _, e in rows] + [last_xx[1]])
    l_uu = np.array([e[3][0] for _, e in rows])
    return values, (l_x, l_u, l_xx, l_uu)


@settings(max_examples=200, deadline=None)
@given(traj=trajectories())
def test_jacobians_stacked_equal_single_stamp(traj):
    params = VehicleParams()
    f_x, f_u = jacobians(traj.states[:-1], traj.controls, params)
    assert f_x.shape == (traj.horizon, 4, 4) and f_u.shape == (traj.horizon, 4, 2)
    for t in range(traj.horizon):
        one_x, one_u = jacobians(traj.states[t], traj.controls[t], params)
        close(f_x[t], one_x)
        close(f_u[t], one_u)


@settings(max_examples=200, deadline=None)
@given(w=weights(), reference=references(), traj=trajectories(extra_states=CLAMPED))
def test_tracking_cost_stacked_equal_single_stamp(w, reference, traj):
    cost = TrackingCost(w, reference)
    values, expansion = stampwise(cost, traj)
    close(cost.values(traj), values)
    assert total_cost(cost, traj) == pytest.approx(float(np.sum(values)),
                                                   rel=TOL, abs=TOL)
    for got, want in zip(cost.expand(traj), expansion):
        close(got, want)


def test_clamped_points_take_the_vertex_hessian():
    # Guards the polyline strategy above: the fixed rows do clamp to vertices.
    w = CostWeights(1.0, 0.0, 0.0, 0.0, 1.0)
    cost = TrackingCost(w, Reference(polyline=POLYLINE))
    traj = Trajectory(np.array(CLAMPED), np.zeros((len(CLAMPED) - 1, 2)))
    l_xx = cost.expand(traj)[2]
    for h in l_xx:
        close(h[:2, :2], 2.0 * np.eye(2))


@settings(max_examples=200, deadline=None)
@given(w=weights(), reference=references(), traj=trajectories(), data=st.data())
def test_penalized_cost_stacked_equal_single_stamp(w, reference, traj, data):
    blocks = st.lists(st.tuples(*[floats(-20, 20)] * 4),
                      min_size=traj.horizon + 1, max_size=traj.horizon + 1)
    z, lam = np.array(data.draw(blocks)), np.array(data.draw(blocks))
    sigma = data.draw(st.floats(1e-3, 100.0))
    base = TrackingCost(w, reference)
    cost = PenalizedCost(base, z, lam, sigma)

    values, (l_x, l_u, l_xx, l_uu) = stampwise(base, traj)
    T = traj.horizon
    centers = z - lam / sigma
    for t in range(T + 1):
        n = 4 if t < T else 2  # the terminal stamp penalizes position only
        off = consensus_blocks(traj)[t, :n] - centers[t, :n]
        values[t] += 0.5 * sigma * float(off @ off)
        l_x[t, :2] += sigma * off[:2]
        l_xx[t, [0, 1], [0, 1]] += sigma
        if t < T:
            l_u[t] += sigma * off[2:]
            l_uu[t, [0, 1], [0, 1]] += sigma
    close(cost.values(traj), values)
    for got, want in zip(cost.expand(traj), (l_x, l_u, l_xx, l_uu)):
        close(got, want)


@st.composite
def obstacles(draw):
    minor = draw(st.floats(0.5, 4.0))
    return Obstacle(
        center0=(draw(floats(0, 30)), draw(floats(-5, 10))),
        velocity=(draw(floats(-5, 5)), draw(floats(-2, 2))),
        heading=draw(floats(-math.pi, math.pi)),
        semi_major=minor + draw(st.floats(0.0, 6.0)),
        semi_minor=minor,
    )


@settings(max_examples=300, deadline=None)
@given(
    w=weights(),
    reference=references(),
    traj=trajectories(),
    obs=st.lists(obstacles(), max_size=3),
    use_ego_heading=st.booleans(),
    sharpness=st.floats(0.1, 100.0),
    bounds=st.sampled_from([InputBounds(0.6, 3.0, -3.0), InputBounds(0.4, 2.0, -2.5),
                            InputBounds(1e9, 1e9, -1e9)]),
)
def test_barrier_cost_stacked_equal_single_stamp(
    w, reference, traj, obs, use_ego_heading, sharpness, bounds
):
    margin = 1e-6
    constraints = ConstraintSet(bounds, obs, 0.1, use_ego_heading)
    base = TrackingCost(w, reference)
    cost = BarrierCost(base, constraints, sharpness, margin)

    values, (l_x, l_u, l_xx, l_uu) = stampwise(base, traj)
    T = traj.horizon
    outside = []
    for t in range(T + 1):
        x = traj.states[t]
        keep = keepout_at(constraints, t, x[:2], x[2])
        grad = keepout_gradient_at(constraints, t, x[:2], x[2])
        box = constraints.box(traj.controls[t]) if t < T else np.zeros(0)
        if np.any(-keep <= margin) or np.any(-box <= margin):
            outside.append(t)
            values[t] = math.inf
            continue
        values[t] -= (np.sum(np.log(-box)) + np.sum(np.log(-keep))) / sharpness
        for g, dg in zip(keep, grad):
            l_x[t, :2] -= dg / g / sharpness
            l_xx[t, :2, :2] += np.outer(dg, dg) / g**2 / sharpness
        for (i, sign, _), g in zip(constraints.faces, box):
            l_u[t, i] -= sign / g / sharpness
            l_uu[t, i, i] += 1.0 / g**2 / sharpness

    close(cost.values(traj), values)
    # The stacked barrier terms are the column-by-column ones, bit for bit.
    assert cost.values(traj).tobytes() == column_barrier_values(cost, traj).tobytes()
    assert math.isinf(total_cost(cost, traj)) == bool(outside)
    if outside:
        with pytest.raises(BarrierDomainViolation) as info:
            cost.expand(traj)
        assert info.value.tau == outside[0]
    else:
        expansion = cost.expand(traj)
        for got, want, column in zip(expansion, (l_x, l_u, l_xx, l_uu),
                                     column_barrier_expansion(cost, traj)):
            close(got, want)
            assert got.tobytes() == column.tobytes()
