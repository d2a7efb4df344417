import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmplan.constraints import (
    AXIS_TOL,
    FEASIBILITY_TOL,
    ConstraintSet,
    InputBounds,
    Obstacle,
    _nearest_boundary_point,
    project_timestep,
)
from admmplan.admm import project_consensus
from admmplan.errors import DegenerateProjection, NonConvergence
from admmplan.ilqr import Trajectory

from oracles import (
    center_at,
    closure_nearest_boundary_point,
    dense_ellipse_boundary,
    ellipse_shape,
    frame_project_timestep,
    keepout_at,
    keepout_gradient_at,
    nearest_on_boundary,
)


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
    assert keepout_at(constraints, 0, (3.0, -1.0))[0] == pytest.approx(1.0)


def test_violation_zero_on_major_axis_boundary():
    obs = Obstacle(center0=(0.0, 0.0), heading=0.4, semi_major=5.0, semi_minor=2.5)
    p = (5.0 * math.cos(0.4), 5.0 * math.sin(0.4))
    g = keepout_at(ConstraintSet(make_bounds(), [obs], 0.1), 0, p)[0]
    assert g == pytest.approx(0.0, abs=1e-12)


def test_violation_scenario_point():
    obs = Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)
    g = keepout_at(ConstraintSet(make_bounds(), [obs], 0.1), 0, (15.0, 2.0))[0]
    assert g == pytest.approx(-0.44)


def test_violation_moving_obstacle_center():
    obs = Obstacle(center0=(0.0, 0.0), velocity=(3.0, 0.0))
    np.testing.assert_allclose(center_at(obs, 10, 0.1), [3.0, 0.0])
    g = keepout_at(ConstraintSet(make_bounds(), [obs], 0.1), 10, (3.0, 0.0))[0]
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
        va = keepout_at(ConstraintSet(make_bounds(), [a], 0.1), 0, p)[0]
        vb = keepout_at(ConstraintSet(make_bounds(), [b], 0.1), 0, rot @ p)[0]
        assert va == pytest.approx(vb, abs=1e-12)


def test_consensus_projection_clamps_inputs_to_paper_limits():
    bounds = InputBounds(max_steer=0.6, max_accel=3.0, min_accel=-3.0)
    targets = np.array([[0.0, 0.0, 0.9, 0.0], [0.0, 0.0, 0.0, -5.0], [0.0, 0.0, -0.2, 1.0]])
    z = project_consensus(targets, np.zeros(3), ConstraintSet(bounds, [], 0.1))
    np.testing.assert_allclose(z[0, 2:], [0.6, 0.0])
    np.testing.assert_allclose(z[1, 2:], [0.0, -3.0])
    np.testing.assert_allclose(z[2, 2:], [-0.2, 1.0])


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
    """`project_timestep` against one static ellipse, as an array."""
    obs = Obstacle(center0=tuple(center), heading=heading, semi_major=a, semi_minor=b)
    return np.array(project_timestep(p, ConstraintSet(make_bounds(), [obs], 0.1), 0))


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
    p = np.array([100.0, 100.0])
    obs = [Obstacle(center0=(0.0, 0.0))]
    np.testing.assert_array_equal(
        project_timestep(p, ConstraintSet(make_bounds(), obs, 0.1), 0), p
    )


def test_project_timestep_single_obstacle_matches_single_projection():
    obs = Obstacle(center0=(15.0, -1.0), semi_major=5.0, semi_minor=2.5)
    block = np.array([15.5, 0.0, 0.2, 1.0])
    constraints = ConstraintSet(make_bounds(), [obs], 0.1)
    out = project_timestep(block[:2], constraints, 0)
    boundary = dense_ellipse_boundary(obs.center0, obs.heading, obs.semi_major,
                                      obs.semi_minor, 1_000_000)
    assert np.linalg.norm(np.subtract(out, nearest_on_boundary(block[:2], boundary))) < 1e-4
    # The consensus projection moves the position alone: inputs inside the
    # box pass unchanged.
    np.testing.assert_array_equal(project_consensus(block[None], np.zeros(1), constraints)[0],
                                  [*out, *block[2:]])


def test_project_timestep_inactive_second_obstacle():
    near = Obstacle(center0=(0.0, 0.0), semi_major=2.0, semi_minor=1.0)
    far = Obstacle(center0=(100.0, 0.0), semi_major=2.0, semi_minor=1.0)
    p = np.array([0.5, 0.2])
    both = project_timestep(p, ConstraintSet(make_bounds(), [near, far], 0.1), 0)
    alone = project_timestep(p, ConstraintSet(make_bounds(), [near], 0.1), 0)
    np.testing.assert_allclose(both, alone, atol=1e-12)


def test_consensus_projection_clamps_inputs_and_clears_obstacles():
    obs = Obstacle(center0=(0.0, 0.0), semi_major=5.0, semi_minor=2.5)
    block = np.array([1.0, 0.5, 0.9, -4.5])
    constraints = ConstraintSet(make_bounds(), [obs], 0.1)
    out = project_consensus(block[None], np.zeros(1), constraints)[0]
    assert out[2] == pytest.approx(0.6)
    assert out[3] == pytest.approx(-3.0)
    assert keepout_at(constraints, 0, out[:2])[0] <= 1e-6


def test_project_timestep_idempotent():
    rng = np.random.default_rng(31)
    obstacles = [
        Obstacle(center0=(0.0, 0.0), heading=0.3, semi_major=4.0, semi_minor=2.0),
        Obstacle(center0=(5.0, 1.0), heading=-0.5, semi_major=3.0, semi_minor=1.0),
    ]
    constraints = ConstraintSet(make_bounds(), obstacles, 0.1)
    for _ in range(200):
        p = rng.normal(size=2) * 4
        once = project_timestep(p, constraints, 0)
        twice = project_timestep(once, constraints, 0)
        np.testing.assert_allclose(twice, once, atol=1e-9)


def test_project_timestep_moving_obstacle_uses_time_index():
    obs = Obstacle(center0=(0.0, 0.0), velocity=(10.0, 0.0), semi_major=2.0,
                   semi_minor=1.0)
    p = np.array([10.0, 0.1])
    constraints = ConstraintSet(make_bounds(), [obs], 0.1)
    moved = project_timestep(p, constraints, 10)
    assert keepout_at(constraints, 10, moved)[0] <= 1e-6
    unmoved = project_timestep(p, constraints, 0)
    np.testing.assert_array_equal(unmoved, p)


def test_project_timestep_nonconvergence_on_impossible_cover():
    # A dense ring of overlapping ellipses around the point leaves no nearby
    # feasible position for cyclic projection to settle in.
    ring = [
        Obstacle(center0=(3.0 * math.cos(t), 3.0 * math.sin(t)),
                 heading=t + math.pi / 2, semi_major=40.0, semi_minor=3.5)
        for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)
    ]
    with pytest.raises(NonConvergence):
        project_timestep(np.zeros(2), ConstraintSet(make_bounds(), ring, 0.1), 0)


def test_ego_heading_convention_switch():
    obs = Obstacle(center0=(0.0, 0.0), heading=0.0, semi_major=5.0, semi_minor=2.5)
    p = np.array([0.0, 3.0])  # outside with heading 0 (minor = 2.5)
    own = ConstraintSet(make_bounds(), [obs], 0.1)
    default = project_timestep(p, own, 0, ego_heading=1.2)
    np.testing.assert_array_equal(default, p)  # ego heading ignored
    ego = ConstraintSet(make_bounds(), [obs], 0.1, use_ego_heading=True)
    rotated = project_timestep(p, ego, 0, ego_heading=math.pi / 2)
    # with the ellipse rotated a quarter turn the point sits inside
    assert np.linalg.norm(np.subtract(rotated, p)) > 0.5


@settings(max_examples=500, deadline=None)
@given(
    minor=st.floats(0.1, 10.0),
    stretch=st.floats(1.0, 10.0),
    radius=st.floats(0.0, 1.0, exclude_max=True),
    angle=st.floats(0.0, math.pi / 2),
)
# Near the major axis, on both sides of AXIS_TOL, and near the center.
@example(minor=2.5, stretch=2.0, radius=0.5, angle=0.0)
@example(minor=2.5, stretch=2.0, radius=0.5, angle=0.9 * AXIS_TOL / 0.5)
@example(minor=2.5, stretch=2.0, radius=0.5, angle=1.1 * AXIS_TOL / 0.5)
@example(minor=2.5, stretch=2.0, radius=0.9, angle=1e-9)
@example(minor=2.5, stretch=2.0, radius=1e-9, angle=0.7)
@example(minor=2.5, stretch=2.0, radius=1e-15, angle=1.5)
@example(minor=2.5, stretch=1.0, radius=0.3, angle=0.2)
def test_nearest_boundary_point_equals_the_closure_version_bitwise(minor, stretch, radius,
                                                                   angle):
    # An interior point of the closed first quadrant, as project_timestep
    # folds it, at `radius` of the way from the center to the boundary.
    a, b = minor * stretch, minor
    qx, qy = a * radius * math.cos(angle), b * radius * math.sin(angle)
    want = closure_nearest_boundary_point(qx, qy, a, b)
    assert struct.pack("2d", *_nearest_boundary_point(qx, qy, a, b)) == struct.pack("2d", *want)


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
    # The set's trajectory evaluator, at stamp tau of a trajectory through p.
    constraints = ConstraintSet(make_bounds(), [obs], 0.1, use_ego_heading)
    states = np.zeros((tau + 1, 4))
    states[tau, :3] = (*p, ego_heading)
    traj = Trajectory(states, np.zeros((tau, 2)))
    g = constraints.values(traj)[1][tau, 0]
    gx, gy, *heading_gradient = constraints.trajectory_gradient(traj)[tau, 0]
    heading = ego_heading if use_ego_heading else obs.heading
    A = ellipse_shape(heading, obs.semi_major, obs.semi_minor)
    d = np.asarray(p) - center_at(obs, tau, 0.1)
    scale = 1.0 + float(d @ A @ d)
    assert g == pytest.approx(1.0 - float(d @ A @ d), rel=1e-12, abs=1e-12 * scale)
    grad = -2.0 * A @ d
    np.testing.assert_allclose([gx, gy], grad, rtol=1e-12,
                               atol=1e-12 * (1.0 + float(np.abs(grad).max())))
    # The ego heading turns the frame: dA/dheading = J A - A J, J the
    # quarter-turn generator, so dg/dheading = -d' (J A - A J) d.
    assert len(heading_gradient) == use_ego_heading
    if use_ego_heading:
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert heading_gradient[0] == pytest.approx(-float(d @ (J @ A - A @ J) @ d),
                                                    rel=1e-9, abs=1e-9 * scale)


@settings(max_examples=300, deadline=None)
@given(
    obs=st.lists(obstacles(), min_size=1, max_size=3),
    tau=st.integers(0, 60),
    near=st.integers(0, 2),
    offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    ego_heading=st.floats(-10.0, 10.0),
    use_ego_heading=st.booleans(),
)
# A target 1e-46 from the common center of two ellipses: the side it leaves
# the first one by must not depend on rounding noise.
@example(
    obs=[Obstacle(center0=(0.0, 0.0), heading=0.0625, semi_major=3.0, semi_minor=3.0),
         Obstacle(center0=(0.0, 0.0), heading=0.0625, semi_major=5.0, semi_minor=3.0)],
    tau=0, near=0, offset=(0.0, -2.83e-47), ego_heading=0.0,
    use_ego_heading=False,
)
# A target on the line of centers of two overlapping circles: the cyclic
# projection multiplies the rounding noise a hundredfold per sweep.
@example(
    obs=[Obstacle(center0=(0.0, 0.0), heading=1.0, semi_major=1.0, semi_minor=1.0),
         Obstacle(center0=(0.0, 0.0), velocity=(0.0, 1.0), semi_major=1.0, semi_minor=1.0)],
    tau=11, near=0, offset=(0.0, 1.0), ego_heading=0.0,
    use_ego_heading=False,
)
def test_projection_matches_frame_reference(obs, tau, near, offset, ego_heading,
                                            use_ego_heading):
    # Targets around one obstacle's center at tau, so most start inside it
    # and often inside a second, overlapping ellipse too.
    near = obs[near % len(obs)]
    p = center_at(near, tau, 0.1) + near.semi_major * np.array(offset)
    constraints = ConstraintSet(make_bounds(), obs, 0.1, use_ego_heading)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateProjection)
        try:
            expected = frame_project_timestep(p, constraints, tau, ego_heading)
        except NonConvergence:
            with pytest.raises(NonConvergence):
                project_timestep(p, constraints, tau, ego_heading)
            return
        out = project_timestep(p, constraints, tau, ego_heading)
    np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-9)
    assert keepout_at(constraints, tau, out, ego_heading).max() <= FEASIBILITY_TOL


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
            brute.append(keepout_at(one, tau, states[tau, :2], states[tau, 2])[0])
    for steer, accel in controls:
        brute += [abs(steer) - bounds.max_steer, accel - bounds.max_accel,
                  bounds.min_accel - accel]
    constraints = ConstraintSet(bounds, obs, 0.1, use_ego_heading)
    assert constraints.violation(traj) == max(brute)


def rolled_trajectory(seed, horizon=12):
    rng = np.random.default_rng(seed)
    states = np.column_stack([np.linspace(0.0, 20.0, horizon + 1), rng.normal(size=horizon + 1),
                              rng.normal(scale=0.3, size=horizon + 1), np.full(horizon + 1, 5.0)])
    return Trajectory(states, rng.normal(scale=[0.5, 2.0], size=(horizon, 2)))


TWO_ELLIPSES = [Obstacle((8.0, 0.5), (1.0, -0.5), 0.4, 5.0, 2.5), Obstacle((15.0, -1.0))]


@pytest.mark.parametrize("use_ego_heading", [False, True])
def test_trajectory_values_are_read_only_and_match_the_stamp_evaluators(use_ego_heading):
    # One evaluation per trajectory, handed out read-only; the values and
    # the gradient are the per-stamp evaluator's, bit for bit.
    constraints = ConstraintSet(make_bounds(), TWO_ELLIPSES, 0.1, use_ego_heading)
    traj = rolled_trajectory(0)
    box, keepout = constraints.values(traj)
    assert not box.flags.writeable and not keepout.flags.writeable
    with pytest.raises(ValueError):
        keepout[0, 0] = 0.0
    stamps, x = np.arange(len(traj.states)), traj.states
    assert np.array_equal(box, constraints.box(traj.controls))
    assert keepout.tobytes() == keepout_at(constraints, stamps, x[:, :2], x[:, 2]).tobytes()
    assert (constraints.trajectory_gradient(traj).tobytes()
            == keepout_gradient_at(constraints, stamps, x[:, :2], x[:, 2]).tobytes())


MOVING = [Obstacle((8.0, 0.5), (1.0, -0.5), 0.4, 5.0, 2.5),
          Obstacle((15.0, -1.0), (-2.0, 0.75), -1.1, 3.0, 1.5)]


@pytest.mark.parametrize("use_ego_heading", [False, True])
def test_two_horizons_through_one_set_match_each_stamp(use_ego_heading):
    # The set keeps the obstacle centers per horizon; whichever horizon it
    # evaluated first, each trajectory's values and gradients are the
    # per-stamp evaluators', bit for bit, and so is the consensus scan.
    constraints = ConstraintSet(make_bounds(), MOVING, 0.1, use_ego_heading)
    for seed, horizon in ((2, 12), (3, 7), (4, 12)):
        traj = rolled_trajectory(seed, horizon)
        box, keepout = constraints.values(traj)
        gradient = constraints.trajectory_gradient(traj)
        for tau, x in enumerate(traj.states):
            assert keepout[tau].tobytes() == keepout_at(constraints, tau, x[:2], x[2]).tobytes()
            assert (gradient[tau].tobytes()
                    == keepout_gradient_at(constraints, tau, x[:2], x[2]).tobytes())
        for tau, u in enumerate(traj.controls):
            assert box[tau].tobytes() == constraints.box(u).tobytes()
        scan = constraints.horizon_keepout(traj.states[:, :2], traj.states[:, 2])
        assert scan.tobytes() == keepout.tobytes()


def test_trajectory_changed_in_place_is_evaluated_again():
    # A write into a trajectory raises and leaves its evaluation as it was;
    # the changed content is a new trajectory, which the same constraint
    # set evaluates again.
    constraints = ConstraintSet(make_bounds(), TWO_ELLIPSES, 0.1)
    rolled = rolled_trajectory(1)
    states, controls = rolled.states.copy(), rolled.controls.copy()
    states[3, :2] = (8.5, 30.0)
    controls[2, 0] = 0.0
    traj = Trajectory(states, controls)
    first = [a.copy() for a in constraints.values(traj)]
    gradient = constraints.trajectory_gradient(traj).copy()
    with pytest.raises(ValueError):
        traj.states[3, :2] = (8.5, 0.5)
    with pytest.raises(ValueError):
        traj.controls[2, 0] = 1.0
    for kept, was in zip(constraints.values(traj), first):
        assert kept.tobytes() == was.tobytes()
    states[3, :2] = (8.5, 0.5)  # into the first ellipse
    controls[2, 0] = 1.0  # past the steer limit
    changed = Trajectory(states, controls)
    box, keepout = constraints.values(changed)
    assert keepout[3, 0] > 0.0 > first[1][3, 0] and box[2, 0] > 0.0 > first[0][2, 0]
    assert not np.array_equal(constraints.trajectory_gradient(changed), gradient)
    fresh = ConstraintSet(make_bounds(), TWO_ELLIPSES, 0.1)
    for kept, new in zip(constraints.values(changed), fresh.values(changed)):
        assert kept.tobytes() == new.tobytes()
