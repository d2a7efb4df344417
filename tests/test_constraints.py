import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmplan.constraints import (
    ConstraintSet,
    InputBounds,
    Obstacle,
    ellipse_shape,
    project_inputs,
    project_timestep,
)
from admmplan.errors import DegenerateProjection, NonConvergence
from admmplan.ilqr import Trajectory

from oracles import dense_ellipse_boundary, nearest_on_boundary


def test_ellipse_shape_axis_aligned():
    np.testing.assert_allclose(ellipse_shape(0.0, 5.0, 2.5), np.diag([0.04, 0.16]),
                               atol=1e-15)


def test_ellipse_shape_quarter_turn_swaps_axes():
    np.testing.assert_allclose(
        ellipse_shape(math.pi / 2, 5.0, 2.5), np.diag([0.16, 0.04]), atol=1e-15
    )


def test_ellipse_shape_point_symmetry():
    np.testing.assert_allclose(
        ellipse_shape(math.pi, 5.0, 2.5), ellipse_shape(0.0, 5.0, 2.5), atol=1e-15
    )


def make_bounds():
    return InputBounds(max_steer=0.6, max_accel=3.0, min_accel=-3.0)


def test_violation_at_center_is_one():
    constraints = ConstraintSet(make_bounds(), [Obstacle(center0=(3.0, -1.0))], 0.1)
    assert constraints.keepout(0, (3.0, -1.0))[0] == pytest.approx(1.0)


def test_violation_zero_on_major_axis_boundary():
    obs = Obstacle(center0=(0.0, 0.0), heading=0.4, semi_major=5.0, semi_minor=2.5)
    p = (5.0 * math.cos(0.4), 5.0 * math.sin(0.4))
    g = ConstraintSet(make_bounds(), [obs], 0.1).keepout(0, p)[0]
    assert g == pytest.approx(0.0, abs=1e-12)


def test_violation_scenario_point():
    obs = Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)
    g = ConstraintSet(make_bounds(), [obs], 0.1).keepout(0, (15.0, 2.0))[0]
    assert g == pytest.approx(-0.44)


def test_violation_moving_obstacle_center():
    obs = Obstacle(center0=(0.0, 0.0), velocity=(3.0, 0.0))
    np.testing.assert_allclose(obs.center_at(10, 0.1), [3.0, 0.0])
    g = ConstraintSet(make_bounds(), [obs], 0.1).keepout(10, (3.0, 0.0))[0]
    assert g == pytest.approx(1.0)


def test_violation_rotation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        center = rng.normal(size=2) * 5
        heading = rng.uniform(-3, 3)
        p = rng.normal(size=2) * 8
        angle = rng.uniform(-3, 3)
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        a = Obstacle(center0=tuple(center), heading=heading, semi_major=4.0,
                     semi_minor=1.5)
        b = Obstacle(center0=tuple(rot @ center), heading=heading + angle,
                     semi_major=4.0, semi_minor=1.5)
        va = ConstraintSet(make_bounds(), [a], 0.1).keepout(0, p)[0]
        vb = ConstraintSet(make_bounds(), [b], 0.1).keepout(0, rot @ p)[0]
        assert va == pytest.approx(vb, abs=1e-12)


def test_project_inputs_clamps_to_paper_limits():
    bounds = InputBounds(max_steer=0.6, max_accel=3.0, min_accel=-3.0)
    np.testing.assert_allclose(project_inputs((0.9, 0.0), bounds), [0.6, 0.0])
    np.testing.assert_allclose(project_inputs((0.0, -5.0), bounds), [0.0, -3.0])
    np.testing.assert_allclose(project_inputs((-0.2, 1.0), bounds), [-0.2, 1.0])


def test_bounds_validation():
    with pytest.raises(ValueError):
        InputBounds(max_steer=0.0)
    with pytest.raises(ValueError):
        InputBounds(min_accel=1.0)


def test_obstacle_validation():
    with pytest.raises(ValueError):
        Obstacle(center0=(0, 0), semi_major=1.0, semi_minor=2.0)


def test_obstacle_geometry_validation():
    # A third coordinate or a non-finite entry would be misread by the
    # stacked ellipse columns of ConstraintSet.
    for bad in ((15.0, 7.0, -1.0), (1.0,), (0.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="center0"):
            Obstacle(center0=bad)
        with pytest.raises(ValueError, match="velocity"):
            Obstacle(center0=(0.0, 0.0), velocity=bad)
    with pytest.raises(ValueError, match="heading"):
        Obstacle(center0=(0.0, 0.0), heading=math.nan)
    obs = Obstacle(center0=[1, 2], velocity=np.array([3.0, 4.0]))
    assert obs.center0 == (1.0, 2.0) and obs.velocity == (3.0, 4.0)


def project_point(p, center, heading, a, b):
    """Position part of `project_timestep` against one static ellipse."""
    obs = Obstacle(center0=tuple(center), heading=heading, semi_major=a, semi_minor=b)
    block = np.concatenate([np.asarray(p, dtype=float), np.zeros(2)])
    return project_timestep(block, ConstraintSet(make_bounds(), [obs], 0.1), 0)[:2]


def test_projection_leaves_exterior_points_alone():
    p = np.array([9.0, 4.0])
    np.testing.assert_array_equal(project_point(p, (0, 0), 0.3, 5.0, 2.5), p)


def test_projection_leaves_boundary_points_alone():
    p = np.array([5.0, 0.0])
    np.testing.assert_array_equal(project_point(p, (0, 0), 0.0, 5.0, 2.5), p)


def test_projection_interior_on_major_axis_goes_to_minor_side():
    # Inside the evolute cusp the nearest boundary point leaves the axis.
    out = project_point([1.0, 0.0], (0.0, 0.0), 0.0, 5.0, 2.5)
    np.testing.assert_allclose(
        out, [4.0 / 3.0, 2.4094720491334934], atol=1e-9
    )
    boundary = dense_ellipse_boundary((0, 0), 0.0, 5.0, 2.5, 1_000_000)
    best = nearest_on_boundary([1.0, 0.0], boundary)
    assert np.linalg.norm(out - best) < 1e-4


def test_projection_center_degenerate_flagged():
    center = np.array([2.0, -3.0])
    with pytest.warns(DegenerateProjection):
        out = project_point(center, center, 0.7, 5.0, 2.5)
    # lands on the minor axis of the rotated ellipse
    minor = np.array([-math.sin(0.7), math.cos(0.7)]) * 2.5
    np.testing.assert_allclose(out, center + minor, atol=1e-12)


@pytest.mark.parametrize("heading", [0.0, 0.9, -2.2])
def test_projection_matches_dense_sampling(heading):
    rng = np.random.default_rng(int(abs(heading) * 100) + 1)
    center = np.array([4.0, -2.0])
    a, b = 5.0, 2.5
    shape = ellipse_shape(heading, a, b)
    boundary = dense_ellipse_boundary(center, heading, a, b, 1_000_000)
    for _ in range(50):
        # random interior point (rejection-free: sample inside unit disk)
        r = math.sqrt(rng.uniform(0.0, 0.98))
        phi = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(heading), math.sin(heading)
        rot = np.array([[c, -s], [s, c]])
        p = center + rot @ np.array([a * r * math.cos(phi), b * r * math.sin(phi)])
        out = project_point(p, center, heading, a, b)
        assert abs(1.0 - (out - center) @ shape @ (out - center)) < 1e-9
        best = nearest_on_boundary(p, boundary)
        assert np.linalg.norm(out - best) < 1e-4


def test_projection_nearest_point_optimality():
    rng = np.random.default_rng(9)
    center = np.zeros(2)
    shape = ellipse_shape(0.5, 4.0, 1.5)
    boundary = dense_ellipse_boundary(center, 0.5, 4.0, 1.5, 10_000)
    for _ in range(100):
        p = rng.normal(size=2) * 1.2
        if 1.0 - p @ shape @ p <= 0.0:
            continue
        out = project_point(p, center, 0.5, 4.0, 1.5)
        dist = np.linalg.norm(out - p)
        sampled = np.linalg.norm(boundary - p, axis=1).min()
        assert dist <= sampled + 1e-6


def test_project_timestep_identity_when_feasible():
    block = np.array([100.0, 100.0, 0.1, 1.0])
    obs = [Obstacle(center0=(0.0, 0.0))]
    np.testing.assert_array_equal(
        project_timestep(block, ConstraintSet(make_bounds(), obs, 0.1), 0), block
    )


def test_project_timestep_single_obstacle_matches_single_projection():
    obs = Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)
    block = np.array([15.5, 0.0, 0.2, 1.0])
    out = project_timestep(block, ConstraintSet(make_bounds(), [obs], 0.1), 0)
    boundary = dense_ellipse_boundary(obs.center0, obs.heading, obs.semi_major,
                                      obs.semi_minor, 1_000_000)
    assert np.linalg.norm(out[:2] - nearest_on_boundary(block[:2], boundary)) < 1e-4
    np.testing.assert_array_equal(out[2:], block[2:])


def test_project_timestep_inactive_second_obstacle():
    near = Obstacle(center0=(0.0, 0.0), semi_major=2.0, semi_minor=1.0)
    far = Obstacle(center0=(100.0, 0.0), semi_major=2.0, semi_minor=1.0)
    block = np.array([0.5, 0.2, 0.0, 0.0])
    both = project_timestep(block, ConstraintSet(make_bounds(), [near, far], 0.1), 0)
    alone = project_timestep(block, ConstraintSet(make_bounds(), [near], 0.1), 0)
    np.testing.assert_allclose(both, alone, atol=1e-12)


def test_project_timestep_clamps_inputs_and_clears_obstacles():
    obs = Obstacle(center0=(0.0, 0.0), semi_major=5.0, semi_minor=2.5)
    block = np.array([1.0, 0.5, 0.9, -4.5])
    constraints = ConstraintSet(make_bounds(), [obs], 0.1)
    out = project_timestep(block, constraints, 0)
    assert out[2] == pytest.approx(0.6)
    assert out[3] == pytest.approx(-3.0)
    assert constraints.keepout(0, out[:2])[0] <= 1e-6


def test_project_timestep_idempotent():
    rng = np.random.default_rng(31)
    obstacles = [
        Obstacle(center0=(0.0, 0.0), heading=0.3, semi_major=4.0, semi_minor=2.0),
        Obstacle(center0=(5.0, 1.0), heading=-0.5, semi_major=3.0, semi_minor=1.0),
    ]
    constraints = ConstraintSet(make_bounds(), obstacles, 0.1)
    for _ in range(200):
        block = np.concatenate([rng.normal(size=2) * 4, rng.normal(size=2) * 2])
        once = project_timestep(block, constraints, 0)
        twice = project_timestep(once, constraints, 0)
        np.testing.assert_allclose(twice, once, atol=1e-9)


def test_project_timestep_moving_obstacle_uses_time_index():
    obs = Obstacle(center0=(0.0, 0.0), velocity=(10.0, 0.0), semi_major=2.0,
                   semi_minor=1.0)
    block = np.array([10.0, 0.1, 0.0, 0.0])
    constraints = ConstraintSet(make_bounds(), [obs], 0.1)
    moved = project_timestep(block, constraints, 10)
    assert constraints.keepout(10, moved[:2])[0] <= 1e-6
    unmoved = project_timestep(block, constraints, 0)
    np.testing.assert_array_equal(unmoved, block)


def test_project_timestep_nonconvergence_on_impossible_cover():
    # A dense ring of overlapping ellipses around the point leaves no nearby
    # feasible position for cyclic projection to settle in.
    ring = [
        Obstacle(center0=(3.0 * math.cos(t), 3.0 * math.sin(t)),
                 heading=t + math.pi / 2, semi_major=40.0, semi_minor=3.5)
        for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)
    ]
    with pytest.raises(NonConvergence):
        project_timestep(np.zeros(4), ConstraintSet(make_bounds(), ring, 0.1), 0)


def test_ego_heading_convention_switch():
    obs = Obstacle(center0=(0.0, 0.0), heading=0.0, semi_major=5.0, semi_minor=2.5)
    block = np.array([0.0, 3.0, 0.0, 0.0])  # outside with heading 0 (minor = 2.5)
    own = ConstraintSet(make_bounds(), [obs], 0.1)
    default = project_timestep(block, own, 0, ego_heading=1.2)
    np.testing.assert_array_equal(default, block)  # ego heading ignored
    ego = ConstraintSet(make_bounds(), [obs], 0.1, use_ego_heading=True)
    rotated = project_timestep(block, ego, 0, ego_heading=math.pi / 2)
    # with the ellipse rotated a quarter turn the point sits inside
    assert np.linalg.norm(rotated[:2] - block[:2]) > 0.5


@st.composite
def obstacles(draw):
    minor = draw(st.floats(0.1, 10.0))
    return Obstacle(
        center0=(draw(st.floats(-50, 50)), draw(st.floats(-50, 50))),
        velocity=(draw(st.floats(-10, 10)), draw(st.floats(-10, 10))),
        heading=draw(st.floats(-math.pi, math.pi)),
        semi_major=minor + draw(st.floats(0.0, 10.0)),
        semi_minor=minor,
    )


@settings(max_examples=300, deadline=None)
@given(
    obs=obstacles(),
    tau=st.integers(0, 60),
    p=st.tuples(st.floats(-80, 80), st.floats(-80, 80)),
    ego_heading=st.floats(-10.0, 10.0),
    use_ego_heading=st.booleans(),
)
def test_keepout_matches_shape_matrix_form(obs, tau, p, ego_heading, use_ego_heading):
    constraints = ConstraintSet(make_bounds(), [obs], 0.1, use_ego_heading)
    g = constraints.keepout(tau, p, ego_heading)[0]
    gx, gy = constraints.keepout_gradient(tau, p, ego_heading)[0]
    heading = ego_heading if use_ego_heading else obs.heading
    A = ellipse_shape(heading, obs.semi_major, obs.semi_minor)
    d = np.asarray(p) - obs.center_at(tau, 0.1)
    scale = 1.0 + float(d @ A @ d)
    assert g == pytest.approx(1.0 - float(d @ A @ d), rel=1e-12, abs=1e-12 * scale)
    grad = -2.0 * A @ d
    np.testing.assert_allclose([gx, gy], grad, rtol=1e-12,
                               atol=1e-12 * (1.0 + float(np.abs(grad).max())))


@settings(max_examples=100, deadline=None)
@given(
    obs=st.lists(obstacles(), max_size=3),
    horizon=st.integers(1, 6),
    data=st.data(),
    use_ego_heading=st.booleans(),
)
def test_violation_is_worst_pointwise_value(obs, horizon, data, use_ego_heading):
    values = st.floats(-20, 20)
    states = np.array(data.draw(st.lists(st.tuples(values, values, values, values),
                                         min_size=horizon + 1, max_size=horizon + 1)))
    controls = np.array(data.draw(st.lists(st.tuples(values, values),
                                           min_size=horizon, max_size=horizon)))
    bounds = InputBounds(max_steer=data.draw(st.floats(0.1, 1.0)),
                         max_accel=data.draw(st.floats(0.5, 5.0)),
                         min_accel=-data.draw(st.floats(0.5, 5.0)))
    traj = Trajectory(states, controls)
    brute = [0.0]
    for tau in range(horizon + 1):
        for o in obs:
            one = ConstraintSet(bounds, [o], 0.1, use_ego_heading)
            brute.append(one.keepout(tau, states[tau, :2], states[tau, 2])[0])
    for steer, accel in controls:
        brute += [abs(steer) - bounds.max_steer, accel - bounds.max_accel,
                  bounds.min_accel - accel]
    constraints = ConstraintSet(bounds, obs, 0.1, use_ego_heading)
    assert constraints.violation(traj) == max(brute)
