"""The float backward and forward passes against the stamp-by-stamp array
references in oracles.py.

The backward pass reorders floating-point arithmetic, so it agrees with its
reference to a tolerance fixed from float64 rounding before the comparison
was first run, not bit for bit. The regularization mu it settles on is
decided by sign tests alone and must be identical. The forward pass and its
reference sum the feedback in the same order and agree bit for bit. The
cases cover the costs the solvers pass: the tracking cost (lane and polyline
references), the ADMM consensus penalty and the log barrier, plus dense
linear-quadratic instances.

The float sweep is generated per pattern of row entries that are 0.0, 1.0 or
another value at every stamp; the kernel for a pattern must return exactly
what the dense kernel returns on the same rows, and compute no value that it
does not read.
"""

import dis
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmplan import ilqr
from admmplan.admm import PenalizedCost, admm_solve
from admmplan.barrier import BarrierCost
from admmplan.constraints import InputBounds, Obstacle
from admmplan.costs import CostWeights, Reference, TrackingCost
from admmplan.errors import DomainError
from admmplan.harness import build_problem
from admmplan.ilqr import Trajectory, backward_pass, forward_pass, rollout, total_cost
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import BicycleModel, VehicleParams

from oracles import (
    LinearDynamics,
    QuadraticCost,
    consensus_blocks,
    gain_arrays,
    gain_rows,
    random_lqr_instance,
    reference_backward_pass,
    reference_forward_pass,
)

RTOL = 1e-10  # normwise: max |actual - expected| <= RTOL * max |expected|


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
    problem = build_problem(builtin_scenario(scenario))
    rng = np.random.default_rng(seed)
    controls = rng.normal(scale=[0.03, 0.5], size=(problem.horizon, 2))
    return rollout(problem.dynamics, problem.x0, controls), problem.cost, problem.dynamics


def penalized_case(scenario):
    # ADMM's real subproblem cost: consensus centers z - lam/sigma away from
    # the trajectory, so the penalty moves every gradient and Hessian diagonal.
    traj, cost, dynamics = bicycle_case(scenario)
    rng = np.random.default_rng(scenario)
    z = consensus_blocks(traj) + rng.normal(scale=[1.0, 1.0, 0.05, 0.5],
                                            size=(traj.horizon + 1, 4))
    lam = rng.normal(scale=5.0, size=z.shape)
    return traj, PenalizedCost(cost, z, lam, 10.0), dynamics


def barrier_case(seed):
    # The log barrier on a strictly feasible trajectory: a rotated, moving
    # ellipse beside the path gives position Hessians with off-diagonal terms.
    obstacles = [Obstacle((12.0, 4.5), (1.0, 0.2), 0.4, 5.0, 2.5)]
    problem = build_problem(replace(builtin_scenario(1), bounds=InputBounds(), obstacles=obstacles))
    rng = np.random.default_rng(seed)
    controls = rng.normal(scale=[0.01, 0.3], size=(problem.horizon, 2))
    traj = rollout(problem.dynamics, problem.x0, controls)
    barrier = BarrierCost(problem.cost, problem.constraints, sharpness=2.0)
    assert problem.constraints.violation(traj) == 0.0 and np.isfinite(total_cost(barrier, traj))
    return traj, barrier, problem.dynamics


def polyline_case(seed):
    # A tracking cost whose reference bends: on the slanted segment the
    # position Hessian is a rotated, non-diagonal outer product.
    dynamics = BicycleModel(VehicleParams())
    reference = Reference(polyline=((0.0, 0.0), (10.0, 0.0), (30.0, 8.0), (50.0, 8.0)), v_ref=6.0)
    rng = np.random.default_rng(seed)
    x0 = np.array([8.0, 0.5, 0.3, 6.0])
    traj = rollout(dynamics, x0, rng.normal(scale=[0.03, 0.5], size=(40, 2)))
    return traj, TrackingCost(CostWeights(), reference), dynamics


def zero_control_case(seed):
    # Straight at constant speed: theta = 0 and steer = 0 make sin(theta),
    # tan(steer) and their Jacobian entries exactly 0.0 at every stamp, so
    # the sweep is specialized to more constant entries than in a solve.
    problem = build_problem(builtin_scenario(seed))
    traj = rollout(problem.dynamics, problem.x0, np.zeros((problem.horizon, 2)))
    assert not traj.states[:, 1:3].any()
    return traj, problem.cost, problem.dynamics


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
    + [pytest.param(zero_control_case, 1, 1e-6, id="zero-control-S1")]
    + [pytest.param(indefinite_case, s, 1e-6, id=f"indefinite{s}") for s in range(2)]
    + [pytest.param(penalized_case, 1, 1e-6, id="penalized-S1")]
    + [pytest.param(barrier_case, 0, 1e-6, id="barrier")]
    + [pytest.param(polyline_case, 0, 1e-6, id="polyline")]
)


def assert_matches_reference(traj, cost, dynamics, mu):
    gains, (V_x, V_xx, dV), mu_used = backward_pass(traj, cost, dynamics, mu)
    ref, (ref_V_x, ref_V_xx, ref_dV), ref_mu = reference_backward_pass(traj, cost, dynamics, mu)
    assert mu_used == ref_mu
    (k, K), (ref_k, ref_K) = gain_arrays(gains), gain_arrays(ref)
    assert_close(k, ref_k)
    assert_close(K, ref_K)
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
    assert np.min(np.abs(cost.centers[:-1] - consensus_blocks(traj)[:-1])) > 0.0


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


DENSE = ilqr._sweep_kernel(b"")


@pytest.mark.parametrize("build, arg, mu", CASES)
def test_backward_pass_equals_dense_sweep(build, arg, mu, monkeypatch):
    # The sweep specialized to the case's constant entries against the
    # dense sweep on the same rows: equal, not just close.
    traj, cost, dynamics = build(arg)
    results = []
    for kernel in (ilqr._sweep_kernel, lambda pattern: DENSE):
        monkeypatch.setattr(ilqr, "_sweep_kernel", kernel)
        gains, (V_x, V_xx, dV), mu_used = backward_pass(traj, cost, dynamics, mu)
        results.append((gains, V_x.tolist(), V_xx.tolist(), dV, mu_used))
    assert results[0] == results[1]


def unread_names(function):
    # The local names a function assigns and never reads, from its bytecode
    # ("_" discards on purpose).
    stored, loaded = set(), set()
    for instruction in dis.get_instructions(function):
        names = instruction.argval
        names = names if isinstance(names, tuple) else (names,)
        for op, name in zip(re.findall(r"(STORE|LOAD)_FAST", instruction.opname), names):
            (stored if op == "STORE" else loaded).add(name)
    return stored - loaded - {"_"}


@settings(max_examples=300, deadline=None)
@given(mask=st.lists(st.sampled_from(".01c"), min_size=50, max_size=50),
       units=st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 3)),
       diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 8))
def test_specialized_sweep_equals_dense_sweep(mask, units, diagonal, seed, horizon):
    # Rows honouring a random pattern of constant 0.0 (of either sign), 1.0
    # and other constant ("c") slots, with some columns of [f_x f_u] unit
    # vectors, or the unit diagonal of the bicycle model's f_x: the kernel
    # generated for the pattern, which reads the other constants once,
    # returns exactly what the dense kernel returns, None included, at every
    # mu, and assigns no name it never reads.
    mask = list(mask)
    if diagonal:
        units = dict(units, a=0, b=1, c=2, d=3)
    for c, k in units.items():
        for i in range(4):
            mask[ilqr._ROW.index(f"{c}{i}")] = "1" if i == k else "0"
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(horizon, 50))
    for k, slot in enumerate(mask):
        if slot == "c":
            rows[:, k] = rng.normal()
        elif slot != ".":
            rows[:, k] = 1.0 if slot == "1" else rng.choice([0.0, -0.0], size=horizon)
    terminal = rng.normal(size=20).tolist()
    pattern = b"".join(bytes(m in slots for m in mask) for slots in ("0", "1", "01c"))
    sweep, columns, once = ilqr._sweep_kernel(pattern)
    dense, dense_columns, dense_once = DENSE
    assert dense_once.size == 0
    constant = {k for k, m in enumerate(mask) if m == "c"}
    assert set(once.tolist()) <= constant and not set(columns.tolist()) & constant
    assert unread_names(sweep) == unread_names(dense) == set()
    for mu in (1e-6, 1e-1, 1e2, 1e6):
        assert (plain(sweep(rows[:, columns].tolist(), rows[0, once].tolist(), terminal, mu))
                == plain(dense(rows[:, dense_columns].tolist(), [], terminal, mu)))


def test_bicycle_pattern_folds_the_unit_diagonal(monkeypatch):
    # The pattern a bicycle backward pass keys its kernel by marks the f_x
    # diagonal as 1.0 at every stamp, so the kernel reads none of it; the
    # time step in f_u[3, 1] is constant too, so the kernel reads it once per
    # sweep instead of at every stamp.
    traj, cost, dynamics = bicycle_case(2)
    kernel, patterns = ilqr._sweep_kernel, []
    monkeypatch.setattr(ilqr, "_sweep_kernel", lambda pattern: patterns.append(pattern)
                        or kernel(pattern))
    backward_pass(traj, cost, dynamics, 1e-6)
    (pattern,) = patterns
    diagonal = [ilqr._ROW.index(name) for name in ("a0", "b1", "c2", "d3")]
    n = len(ilqr._ROW)
    ones, fixed = pattern[n:2 * n], pattern[2 * n:]
    assert [(pattern[k], ones[k], fixed[k]) for k in diagonal] == [(0, 1, 1)] * 4
    sweep, columns, once = kernel(pattern)
    assert not set(diagonal) & (set(columns.tolist()) | set(once.tolist()))
    assert ilqr._ROW.index("f3") in once.tolist()
    assert unread_names(sweep) == set()


def plain(result):
    # A sweep's result with its arrays as nested lists, for ==.
    if result is None:
        return None
    gains, (V_x, V_xx, corner) = result
    return gains, V_x.tolist(), V_xx.tolist(), corner


@pytest.mark.parametrize("build, arg, mu", CASES)
@pytest.mark.parametrize("alpha", [1.0, 0.25])
def test_forward_pass_matches_array_formula(build, arg, mu, alpha):
    # The float gain rows of the solver's own backward pass, read by the
    # float pass as flat rows and by the reference through the k and K
    # arrays; both sum the feedback in state order, so they agree bit for
    # bit. The pass's states are its controls stepped through the dynamics,
    # also bit for bit, in read-only float arrays of the nominal's shapes.
    traj, cost, dynamics = build(arg)
    gains, _, _ = backward_pass(traj, cost, dynamics, mu)
    out = forward_pass(traj, gains, alpha, dynamics)
    ref = reference_forward_pass(traj, gains, alpha, dynamics)
    np.testing.assert_array_equal(out.states, ref.states)
    np.testing.assert_array_equal(out.controls, ref.controls)
    assert_read_only_floats(out, traj.horizon)
    np.testing.assert_array_equal(out.states, stepped(dynamics, out.states[0], out.controls))


def assert_read_only_floats(traj, horizon):
    for array, shape in ((traj.states, (horizon + 1, 4)), (traj.controls, (horizon, 2))):
        assert array.shape == shape and array.dtype == np.float64
        assert not array.flags.writeable


def stepped(dynamics, x0, controls):
    """States from stepping `dynamics.step` through controls, one stamp at a time."""
    states = [np.asarray(x0, dtype=float)]
    for u in controls:
        states.append(np.asarray(dynamics.step(states[-1], u), dtype=float))
    return np.array(states)


@pytest.mark.parametrize("build, arg, mu", CASES)
def test_rollout_steps_arrays_exactly(build, arg, mu):
    traj, _, dynamics = build(arg)
    rolled = rollout(dynamics, traj.states[0], traj.controls)
    assert_read_only_floats(rolled, traj.horizon)
    np.testing.assert_array_equal(rolled.states, stepped(dynamics, traj.states[0], traj.controls))
    np.testing.assert_array_equal(rolled.controls, traj.controls)


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
    gains = gain_rows(k, 1e-3 * rng.normal(size=(12, 2, 4)))
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
    problem = build_problem(config)
    counter = CountingDynamics(problem.dynamics)
    report = admm_solve(replace(problem, dynamics=counter))
    assert report.status == "converged" and len(passes) > report.iterations
    assert counter.calls == config.horizon * (len(passes) + 1)


def test_rollout_domain_error_names_its_stamp():
    model = BicycleModel(VehicleParams())
    controls = np.zeros((12, 2))
    controls[5, 0] = 1.2  # above asin(0.8) at 25 m/s, as above
    with pytest.raises(DomainError, match="time index 5") as info:
        rollout(model, np.array([0.0, 0.0, 0.0, 25.0]), controls)
    assert info.value.tau == 5


def test_an_infinite_steer_is_a_domain_error_at_its_stamp():
    # The bicycle step refuses an infinite steer (math.sin's ValueError) and
    # a speed whose f sin(w) is too large to square (OverflowError) with a
    # DomainError; the rollout and the forward pass name the stamp, and the
    # write-time recheck reports the stamp as the break.
    model = BicycleModel(VehicleParams())
    for speed, steer in [(4.0, math.inf), (1e200, 0.5)]:
        x0 = np.array([0.0, 0.0, 0.0, speed])
        with pytest.raises(DomainError):
            model.step(x0.tolist(), [steer, 0.0])
        controls = np.zeros((12, 2))
        controls[1, 0] = steer
        with pytest.raises(DomainError, match="rollout step at time index 1") as info:
            rollout(model, x0, controls)
        assert info.value.tau == 1
        traj = rollout(model, x0, np.zeros((12, 2)))
        k = np.zeros((12, 2))
        k[7, 0] = steer / 0.5
        with pytest.raises(DomainError, match="forward pass step at time index 7") as info:
            forward_pass(traj, gain_rows(k, np.zeros((12, 2, 4))), 0.5, model)
        assert info.value.tau == 7
        controls = traj.controls.copy()
        controls[4, 0] = steer
        assert Trajectory(traj.states, controls).dynamics_break(model) == 4


def test_a_value_error_at_a_finite_stamp_propagates_unchanged():
    # The engine interprets only DomainError: any other error of a
    # caller-supplied model propagates unchanged, also at an infinite control.
    error = ValueError("not a domain error")

    class Refusing:
        def step(self, x, u):
            raise error

    traj = rollout(BicycleModel(VehicleParams()), np.array([0.0, 0.0, 0.0, 4.0]),
                   np.zeros((3, 2)))
    infinite = traj.controls.copy()
    infinite[0, 0] = math.inf
    k = np.zeros((3, 2))
    k[0, 0] = math.inf
    for controls, feedforward in [(traj.controls, np.zeros((3, 2))), (infinite, k)]:
        with pytest.raises(ValueError) as info:
            rollout(Refusing(), traj.states[0], controls)
        assert info.value is error
        with pytest.raises(ValueError) as info:
            forward_pass(traj, gain_rows(feedforward, np.zeros((3, 2, 4))), 1.0, Refusing())
        assert info.value is error
        with pytest.raises(ValueError) as info:
            Trajectory(traj.states, controls).dynamics_break(Refusing())
        assert info.value is error
