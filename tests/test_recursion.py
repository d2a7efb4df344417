"""The float backward and forward passes against the stamp-by-stamp array
references in oracles.py.

Both passes reorder floating-point arithmetic, so they agree with the
references to a tolerance fixed from float64 rounding before the comparison
was first run, not bit for bit. The regularization mu they settle on is
decided by sign tests alone and must be identical. The cases cover the costs
the solvers pass: the tracking cost (lane and polyline references), the
ADMM consensus penalty and the log barrier, plus dense linear-quadratic
instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmplan import ilqr
from admmplan.admm import PenalizedCost, admm_solve, select
from admmplan.barrier import BarrierCost
from admmplan.constraints import ConstraintSet, InputBounds, Obstacle
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.errors import DomainError
from admmplan.harness import build_problem
from admmplan.ilqr import (
    ILQRSettings,
    backward_pass,
    forward_pass,
    rollout,
    total_cost,
)
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, VehicleParams

from oracles import (
    LinearDynamics,
    QuadraticCost,
    gain_schedule,
    random_lqr_instance,
    reference_backward_pass,
    reference_forward_pass,
)

RTOL = 1e-10  # normwise: max |actual - expected| <= RTOL * max |expected|
SETTINGS = ILQRSettings()


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= RTOL * np.max(np.abs(expected))


def linear_case(seed, horizon=25):
    rng = np.random.default_rng(seed)
    A, B, Q, R, Qf, x0 = random_lqr_instance(rng)
    dynamics = LinearDynamics(A, B)
    traj = rollout(dynamics, x0, rng.normal(size=(horizon, 2)))
    return traj, QuadraticCost(Q, R, Qf), dynamics


def bicycle_case(scenario, seed=0):
    config = builtin_scenario(scenario)
    x0, cost, dynamics = build_problem(config)
    rng = np.random.default_rng(seed)
    controls = rng.normal(scale=[0.03, 0.5], size=(config.horizon, 2))
    return rollout(dynamics, x0, controls), cost, dynamics


def penalized_case(scenario):
    # ADMM's real subproblem cost: consensus centers z - lam/sigma away from
    # the trajectory, so the penalty moves every gradient and Hessian diagonal.
    traj, cost, dynamics = bicycle_case(scenario)
    rng = np.random.default_rng(scenario)
    z = select(traj) + rng.normal(scale=[1.0, 1.0, 0.05, 0.5], size=(traj.horizon + 1, 4))
    lam = rng.normal(scale=5.0, size=z.shape)
    return traj, PenalizedCost(cost, z, lam, 10.0), dynamics


def barrier_case(seed):
    # The log barrier on a strictly feasible trajectory: a rotated, moving
    # ellipse beside the path gives position Hessians with off-diagonal terms.
    config = builtin_scenario(1)
    x0, cost, dynamics = build_problem(config)
    rng = np.random.default_rng(seed)
    traj = rollout(dynamics, x0, rng.normal(scale=[0.01, 0.3], size=(config.horizon, 2)))
    obstacles = [Obstacle((12.0, 4.5), (1.0, 0.2), 0.4, 5.0, 2.5)]
    constraints = ConstraintSet(InputBounds(), obstacles, dynamics.params.timestep)
    barrier = BarrierCost(cost, constraints, sharpness=2.0)
    assert constraints.violation(traj) == 0.0 and np.isfinite(total_cost(barrier, traj))
    return traj, barrier, dynamics


def polyline_case(seed):
    # A tracking cost whose reference bends: on the slanted segment the
    # position Hessian is a rotated, non-diagonal outer product.
    dynamics = BicycleModel(VehicleParams())
    reference = Reference(polyline=((0.0, 0.0), (10.0, 0.0), (30.0, 8.0), (50.0, 8.0)), v_ref=6.0)
    rng = np.random.default_rng(seed)
    x0 = np.array([8.0, 0.5, 0.3, 6.0])
    traj = rollout(dynamics, x0, rng.normal(scale=[0.03, 0.5], size=(40, 2)))
    return traj, TrackingCost(CostWeights(), reference), dynamics


def indefinite_case(seed):
    # Weak actuation and a concave steer weight: Q_uu is indefinite at the
    # initial mu, so the recursion restarts several times.
    rng = np.random.default_rng(seed)
    A, B, Q, R, Qf, x0 = random_lqr_instance(rng)
    dynamics = LinearDynamics(A, 0.05 * B)
    cost = QuadraticCost(Q, np.diag([-1.0, 0.5]), Qf)
    return rollout(dynamics, x0, rng.normal(size=(20, 2))), cost, dynamics


CASES = (
    [pytest.param(linear_case, s, 1e-9, id=f"linear{s}") for s in range(4)]
    + [pytest.param(linear_case, 4, 1e-3, id="linear4-mu1e-3")]
    + [pytest.param(bicycle_case, s, 1e-6, id=f"bicycle-S{s}") for s in (1, 2)]
    + [pytest.param(indefinite_case, s, 1e-6, id=f"indefinite{s}") for s in range(2)]
    + [pytest.param(penalized_case, 1, 1e-6, id="penalized-S1")]
    + [pytest.param(barrier_case, 0, 1e-6, id="barrier")]
    + [pytest.param(polyline_case, 0, 1e-6, id="polyline")]
)


def assert_matches_reference(traj, cost, dynamics, mu):
    gains, (V_x, V_xx, dV), mu_used = backward_pass(traj, cost, dynamics, mu, SETTINGS)
    ref, (ref_V_x, ref_V_xx, ref_dV), ref_mu = reference_backward_pass(
        traj, cost, dynamics, mu, SETTINGS
    )
    assert mu_used == ref_mu
    assert_close(gains.k, ref.k)
    assert_close(gains.K, ref.K)
    assert_close(V_x, ref_V_x)
    assert_close(V_xx, ref_V_xx)
    assert_close(dV, ref_dV)
    return ref_mu


@pytest.mark.parametrize("build, arg, mu", CASES)
def test_backward_pass_matches_reference_recursion(build, arg, mu):
    mu_used = assert_matches_reference(*build(arg), mu)
    if build is indefinite_case:
        assert mu_used > 100 * mu  # the case really restarts


def test_cost_cases_reach_their_structure():
    # Guards for what the cost cases are there to cover.
    traj, cost, _ = polyline_case(0)
    _, _, l_xx, _ = cost.expand(traj)
    assert np.max(np.abs(l_xx[:, 0, 1])) > 1e-3
    traj, cost, _ = barrier_case(0)
    _, _, l_xx, _ = cost.expand(traj)
    assert np.max(np.abs(l_xx[:, 0, 1])) > 1e-6
    traj, cost, _ = penalized_case(1)
    assert np.min(np.abs(cost.centers[:-1] - select(traj)[:-1])) > 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 30),
       scale=st.floats(0.01, 10.0), log_mu=st.floats(-9.0, 0.0))
def test_backward_pass_matches_reference_on_dense_lqr(seed, horizon, scale, log_mu):
    # Dense A, B, Q, R and Qf: every Jacobian and Hessian entry is read.
    rng = np.random.default_rng(seed)
    A, B, Q, R, Qf, x0 = random_lqr_instance(rng)
    dynamics = LinearDynamics(A, B)
    traj = rollout(dynamics, x0, rng.normal(scale=scale, size=(horizon, 2)))
    assert_matches_reference(traj, QuadraticCost(Q, R, Qf), dynamics, 10.0**log_mu)


@pytest.mark.parametrize("build, arg, mu", CASES)
@pytest.mark.parametrize("alpha", [1.0, 0.25])
def test_forward_pass_matches_array_formula(build, arg, mu, alpha):
    # The float gain rows of the solver's own backward pass, read by the
    # float pass as rows and by the reference through the k and K arrays.
    traj, cost, dynamics = build(arg)
    gains, _, _ = backward_pass(traj, cost, dynamics, mu, SETTINGS)
    out = forward_pass(traj, gains, alpha, dynamics)
    ref = reference_forward_pass(traj, gains, alpha, dynamics)
    assert_close(out.states, ref.states)
    assert_close(out.controls, ref.controls)


def test_rollout_steps_arrays_exactly():
    traj, _, dynamics = bicycle_case(1)
    states = [traj.states[0]]
    for u in traj.controls:
        states.append(dynamics.step(states[-1], u))
    np.testing.assert_array_equal(traj.states, np.array(states))


class CountingDynamics:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def step(self, x, u):
        self.calls += 1
        return self.inner.step(x, u)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_forward_pass_domain_error_at_the_same_stamp():
    # At 25 m/s one step rolls 2.5 m against a 2 m wheelbase, so a steer
    # above asin(0.8) leaves the kinematic domain.
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 25.0]), np.zeros((12, 2)))
    rng = np.random.default_rng(3)
    k = np.zeros((12, 2))
    k[7, 0] = 1.2
    gains = gain_schedule(k, 1e-3 * rng.normal(size=(12, 2, 4)))
    stamps = []
    for roll in (forward_pass, reference_forward_pass):
        counter = CountingDynamics(model)
        with pytest.raises(DomainError):
            roll(traj, gains, 1.0, counter)
        stamps.append(counter.calls - 1)
    assert stamps == [7, 7]
    with pytest.raises(DomainError, match="time index 7") as info:
        forward_pass(traj, gains, 1.0, model)
    assert info.value.tau == 7


def test_admm_solve_rolls_out_once(monkeypatch):
    # Every step of an S1 solve belongs to a forward pass or to the single
    # zero-control rollout: no solve rolls out its nominal controls again.
    passes = []

    def counted_forward_pass(*args):
        passes.append(args)
        return forward_pass(*args)

    monkeypatch.setattr(ilqr, "forward_pass", counted_forward_pass)
    config = builtin_scenario(1)
    x0, cost, dynamics = build_problem(config)
    counter = CountingDynamics(dynamics)
    report = admm_solve(x0, cost, counter, config.bounds, config.obstacles, config.horizon,
                        config.admm)
    assert report.status == "converged" and len(passes) > report.iterations
    assert counter.calls == config.horizon * (len(passes) + 1)


def test_rollout_domain_error_names_its_stamp():
    model = BicycleModel(VehicleParams())
    controls = np.zeros((12, 2))
    controls[5, 0] = 1.2  # above asin(0.8) at 25 m/s, as above
    with pytest.raises(DomainError, match="time index 5") as info:
        rollout(model, np.array([0.0, 0.0, 0.0, 25.0]), controls)
    assert info.value.tau == 5
