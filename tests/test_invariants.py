"""Solver invariants on randomized planning problems with the benchmark
corpus's structure, checked for both solvers on every drawn instance."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmplan.admm import PRIMAL_TOLERANCE, admm_solve, trajectory_violation
from admmplan.barrier import MARGIN, barrier_solve, check_strict_feasibility
from admmplan.constraints import Obstacle
from admmplan.costs import Reference
from admmplan.errors import BarrierDomainViolation
from admmplan.harness import build_problem
from admmplan.ilqr import Trajectory, rollout
from admmplan.scenarios import builtin_scenario
from admmplan.vehicle import State

from oracles import dynamics_gap, worst_constraint

HORIZON = 30  # 3 s: long enough to reach the first ellipses, short enough to be cheap
DYNAMICS_TOL = 1e-8
# Rounding between the oracle's shape-matrix form and the solvers' ellipse frames.
ORACLE_TOL = 1e-9


def _ellipse(real, center, velocity, spin=0.4, turn=0.0):
    return Obstacle(center0=center, velocity=velocity, heading=turn + real(-spin, spin),
                    semi_major=real(3.5, 5.5), semi_minor=real(1.5, 2.5))


def _crossing(real, anchor, velocity):
    """An ellipse centered inside `anchor`, turned a quarter turn against it."""
    phi, r = real(0.0, 2.0 * math.pi), real(0.4, 0.8)
    c, s = math.cos(anchor.heading), math.sin(anchor.heading)
    lx, ly = r * anchor.semi_major * math.cos(phi), r * anchor.semi_minor * math.sin(phi)
    center = (anchor.center0[0] + c * lx - s * ly, anchor.center0[1] + s * lx + c * ly)
    return _ellipse(real, center, velocity, turn=anchor.heading + 0.5 * math.pi)


@st.composite
def corpus_configs(draw):
    """S1 (lane keeping at py = 0 past ellipses in or near the lane) or S2 (a
    lane change to py = 4 into moving traffic) at horizon 30, with 1-3
    ellipses, the second of which may cross the first, static or moving,
    each oriented by its own or by the ego's heading, a lane or polyline
    reference and a start speed."""
    def real(lo, hi):
        return draw(st.floats(lo, hi))

    base = draw(st.sampled_from((1, 2)))
    count = draw(st.integers(1, 3))
    crossing = count >= 2 and draw(st.booleans())
    polyline = draw(st.booleans())
    if base == 1:
        v0 = real(0.0, 8.0)
        velocity = (real(1.0, 4.0), real(-0.3, 0.3)) if draw(st.booleans()) else (0.0, 0.0)
        obstacles = [_ellipse(real, (real(8.0, 16.0), real(-1.5, 1.5)), velocity)]
        if crossing:
            obstacles.append(_crossing(real, obstacles[0], velocity))
        while len(obstacles) < count:
            ahead = obstacles[-1].center0[0] + real(8.0, 14.0)
            obstacles.append(_ellipse(real, (ahead, real(-4.0, 4.0)), velocity))
        v_ref = real(6.0, 10.0)
        reference = (Reference(polyline=((-5.0, 0.0), (15.0, real(-1.0, 1.0)),
                                         (50.0, real(-1.0, 1.0))), v_ref=v_ref)
                     if polyline else Reference(py_ref=0.0, v_ref=v_ref))
    else:
        v0 = real(4.0, 10.0)
        merge = _ellipse(real, (real(-5.0, 5.0), 4.0 + real(-0.5, 0.5)), (real(5.0, 8.0), 0.0),
                         spin=0.2)
        obstacles = [merge]
        if crossing:
            obstacles.append(_crossing(real, merge, merge.velocity))
        if len(obstacles) < count:
            lead = (real(10.0, 18.0), real(-0.5, 0.5))
            obstacles.append(_ellipse(real, lead, (real(1.0, 5.0), 0.0), spin=0.2))
        if len(obstacles) < count:
            ahead = (real(25.0, 35.0), 4.0 + real(-0.5, 0.5))
            obstacles.append(_ellipse(real, ahead, (real(2.0, 5.0), 0.0), spin=0.2))
        bend = real(5.0, 12.0)
        reference = (Reference(polyline=((-5.0, 0.0), (bend, 0.0),
                                         (bend + real(10.0, 15.0), 4.0), (60.0, 4.0)))
                     if polyline else Reference(py_ref=4.0))
    return replace(builtin_scenario(base), horizon=HORIZON,
                   initial_state=State(0.0, 0.0, 0.0, v0), reference=reference,
                   obstacles=obstacles, ego_heading_ellipses=draw(st.booleans()))


def _check_report(report, problem):
    """The invariants that every report of either solver keeps."""
    for record in report.records:
        assert record.trajectory.dynamics_break(problem.dynamics, tol=DYNAMICS_TOL) is None
        assert dynamics_gap(record.trajectory, problem.x0, problem.dynamics.params) <= DYNAMICS_TOL
    if report.status == "failed":
        assert re.search(r"time index \d+", report.message), report.message
    # The seed is the zero-control rollout from the start state.
    assert not report.seed.controls.any()
    assert dynamics_gap(report.seed, problem.x0, problem.dynamics.params) <= DYNAMICS_TOL
    last = report.records[-1].trajectory if report.records else report.seed
    assert report.trajectory is last
    # A new trajectory of the same content keeps no evaluations: a fresh scan.
    fresh = Trajectory(last.states, last.controls)
    assert report.max_violation == trajectory_violation(fresh, problem.constraints)
    assert report.max_violation == pytest.approx(
        max(worst_constraint(last, problem.constraints), 0.0), rel=0.0, abs=ORACLE_TOL)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=corpus_configs())
def test_consensus_solve_invariants(config):
    problem = build_problem(config)
    report = admm_solve(problem)
    _check_report(report, problem)
    if report.status == "converged":
        assert report.max_violation <= PRIMAL_TOLERANCE


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=corpus_configs())
def test_barrier_solve_invariants(config):
    problem = build_problem(config)
    try:
        report = barrier_solve(problem, config.barrier)
    except BarrierDomainViolation:
        # Only at the seed: the zero-control rollout is not strictly feasible.
        seed = rollout(problem.dynamics, problem.x0, np.zeros((HORIZON, 2)))
        assert worst_constraint(seed, problem.constraints) >= -MARGIN - ORACLE_TOL
        return
    _check_report(report, problem)
    check_strict_feasibility(report.trajectory, problem.constraints)
    assert worst_constraint(report.trajectory, problem.constraints) < -MARGIN + ORACLE_TOL
