"""The augmented backward pass and the float forward pass against the
stamp-by-stamp array references in oracles.py.

Both passes reorder floating-point arithmetic, so they agree with the
references to a tolerance fixed from float64 rounding before the comparison
was first run, not bit for bit. The regularization mu they settle on is
decided by sign tests alone and must be identical.
"""

import numpy as np
import pytest

from admmplan.errors import DomainError
from admmplan.harness import build_problem
from admmplan.ilqr import GainSchedule, ILQRSettings, backward_pass, forward_pass, rollout
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, VehicleParams

from oracles import (
    LinearDynamics,
    QuadraticCost,
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
)


@pytest.mark.parametrize("build, arg, mu", CASES)
def test_backward_pass_matches_reference_recursion(build, arg, mu):
    traj, cost, dynamics = build(arg)
    gains, (V_x, V_xx, dV), mu_used = backward_pass(traj, cost, dynamics, mu, SETTINGS)
    ref, (ref_V_x, ref_V_xx, ref_dV), ref_mu = reference_backward_pass(
        traj, cost, dynamics, mu, SETTINGS
    )
    assert mu_used == ref_mu
    if build is indefinite_case:
        assert ref_mu > 100 * mu  # the case really restarts
    assert_close(gains.k, ref.k)
    assert_close(gains.K, ref.K)
    assert_close(V_x, ref_V_x)
    assert_close(V_xx, ref_V_xx)
    assert_close(dV, ref_dV)


@pytest.mark.parametrize("build, arg, mu", CASES)
@pytest.mark.parametrize("alpha", [1.0, 0.25])
def test_forward_pass_matches_array_formula(build, arg, mu, alpha):
    traj, cost, dynamics = build(arg)
    gains, _, _ = reference_backward_pass(traj, cost, dynamics, mu, SETTINGS)
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


def test_forward_pass_domain_error_at_the_same_stamp():
    # At 25 m/s one step rolls 2.5 m against a 2 m wheelbase, so a steer
    # above asin(0.8) leaves the kinematic domain.
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 25.0]), np.zeros((12, 2)))
    rng = np.random.default_rng(3)
    k = np.zeros((12, 2))
    k[7, 0] = 1.2
    gains = GainSchedule(k, 1e-3 * rng.normal(size=(12, 2, 4)))
    stamps = []
    for roll in (forward_pass, reference_forward_pass):
        counter = CountingDynamics(model)
        with pytest.raises(DomainError):
            roll(traj, gains, 1.0, counter)
        stamps.append(counter.calls - 1)
    assert stamps == [7, 7]
