"""Gauss-Newton iterative LQR over a nonlinear dynamics model.

Each iteration quadraticizes the cost and linearizes the dynamics around the
nominal trajectory, runs the backward Riccati-style recursion for affine
control updates, and rolls the updated policy through the true dynamics with
a backtracking line search on the feedforward term. Second-order dynamics
terms are dropped (Gauss-Newton), and no cost couples state and control
(l_ux = 0), so the per-step model is

    Q_x  = l_x  + f_x' V_x          Q_u  = l_u  + f_u' V_x
    Q_xx = l_xx + f_x' V_xx f_x     Q_ux = f_u' V_xx f_x
    Q_uu = l_uu + f_u' V_xx f_u

with gains k = -(Q_uu + mu I)^-1 Q_u and K = -(Q_uu + mu I)^-1 Q_ux, and the
value recursion

    dV    = -1/2 k' Q_uu k
    V_x   = Q_x  - K' Q_uu k
    V_xx  = Q_xx - K' Q_uu K.

The Levenberg-style mu keeps Q_uu positive definite near flat or indefinite
regions; it grows on failed line searches and shrinks after accepted steps.
Its schedule is fixed: the floor `MU_MIN`, the growth and shrink factors
`MU_GROWTH` and `MU_SHRINK`, the cap `MU_MAX` and the line search's step
lengths `ALPHAS`. A solve takes only its iteration cap and cost tolerance.

The engine reads its models over whole trajectories: `dynamics.jacobians(X,
U)` gives the stacked (T, 4, 4) and (T, 4, 2) Jacobians, `cost.values(traj)`
the T stage costs and the terminal cost (inf outside the cost's domain), and
`cost.expand(traj)` the stacked (l_x, l_u, l_xx, l_uu), terminal terms in row
T. A cost may also offer `cost.admits(steer, accel)`, False only when
`values` is inf at every stamp that applies this control; the line search
then rejects a trial whose first control it does not admit before rolling
it out (`solve`). Only the Riccati recursion and the rollouts run stamp by
stamp, on plain Python floats written out for four states and two
controls: on blocks this small a float operation costs far less than a
numpy call. Between those loops the data stay floats: `dynamics.step`
returns a list of four, the gains are one float row per stamp, the rollouts
read the nominal and collect the new states and controls as flat float
lists, each of which becomes its array in one conversion, and a solve
starts from the nominal trajectory it is handed, such as the previous
solve's, without rolling it out again.

Most Jacobian and expansion entries hold one value at every stamp: 0.0,
1.0 (the bicycle model's f_x diagonal) or another (f_u[3, 1] = h), so the
recursion is generated from the formulas above once per pattern of such
entries (`_sweep_kernel`, cached by the pattern's bytes, at most 64
kernels): products with a constant 0.0 are dropped, 1.0 * x is x, the other
constants are read once per sweep and no unread value is computed. No other
rounding step changes: on finite input the result equals the dense
recursion's up to the sign of an exact zero; inf or NaN input runs dense.
"""

import functools
import math
import numbers
import re
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DomainError, RegularizationExhausted

# Solve statuses of an iLQR result and of the constrained solvers' reports;
# only a constrained solve reports "failed".
STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_FAILED = "failed"


def is_count(value) -> bool:
    """Whether value is an integer of at least 1: False for 2.5, NaN and True.
    An exact int skips the ABC check."""
    return (type(value) is int or (isinstance(value, numbers.Integral)
                                   and not isinstance(value, bool))) and bool(value >= 1)


def is_real(value) -> bool:
    """Whether value is a real number: False for True, "1.5" and None, True
    for NaN and inf. An exact float or int skips the ABC check."""
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


def require(value, name, ok, what):
    """Raise ValueError(f"{name} must {what}, got {value!r}") unless value is
    real (`is_real`) and `ok(value)` holds. `ok` is a comparison or
    `math.isfinite`, which NaN fails, or `is_count`."""
    if not (is_real(value) and ok(value)):
        raise ValueError(f"{name} must {what}, got {value!r}")


# The regularization schedule and the line search are fixed: mu starts at
# MU_MIN, grows by MU_GROWTH on a failed positive-definiteness check or line
# search, shrinks by MU_SHRINK (down to MU_MIN) after an accepted step, and
# the solve gives up past MU_MAX; the line search tries the step lengths
# ALPHAS = 1, 1/2, ..., 2**-10 in turn.
MU_MIN = 1e-6
MU_GROWTH = 10.0
MU_SHRINK = 0.5
MU_MAX = 1e10
ALPHAS = tuple(0.5**i for i in range(11))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Paired state/control sequences: states has one more row than controls.

    A read-only value: it keeps read-only float copies of the arrays it is
    given, and each model's evaluation of it (`evaluation`).
    """

    states: np.ndarray  # (T+1, 4)
    controls: np.ndarray  # (T, 2)
    _evaluations: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("states", "controls"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if len(self.states) != len(self.controls) + 1:
            raise ValueError("states must be one longer than controls, got "
                             f"{len(self.states)} states and {len(self.controls)} controls")

    @classmethod
    def _own(cls, states, controls):  # frozen, not copied: arrays nothing else holds
        states.flags.writeable = controls.flags.writeable = False
        traj = object.__new__(cls)
        traj.__dict__.update(states=states, controls=controls, _evaluations={})
        return traj

    @property
    def horizon(self) -> int:
        return len(self.controls)

    def evaluation(self, model, evaluate):
        """`evaluate(self)`, computed on the first call for `model` (a dict
        key; models compare by identity) and kept; `evaluate` should return
        read-only arrays."""
        if model not in self._evaluations:
            self._evaluations[model] = evaluate(self)
        return self._evaluations[model]

    def dynamics_break(self, dynamics, tol: float = 1e-10) -> int | None:
        """First time index whose step misses the next state by more than tol, by
        NaN, or that the model refuses with a DomainError; any other error of
        the model propagates unchanged."""
        states, step = self.states.tolist(), dynamics.step
        try:
            for tau, u in enumerate(self.controls.tolist()):
                nxt = step(states[tau], u)
                if not all(abs(a - b) <= tol for a, b in zip(nxt, states[tau + 1])):
                    return tau
        except DomainError:
            return tau
        return None


@dataclass
class ILQRResult:
    trajectory: Trajectory
    cost_history: list = field(default_factory=list)
    iterations: int = 0
    status: str = STATUS_MAX_ITERS
    alpha: float | None = None  # last accepted step length; None if none was
    rejected_steps: int = 0  # line-search trials rejected, DomainError and screened ones included
    peak_mu: float | None = None  # largest mu a backward pass used

    @property
    def cost(self) -> float:
        return self.cost_history[-1]


def rollout(dynamics, x0, controls) -> Trajectory:
    """Integrate an open-loop control sequence through the dynamics; a step
    the model refuses with a DomainError raises a DomainError that adds its
    stamp, and any other error of the model propagates unchanged.

    The states are collected as one flat float list, which becomes the
    states array in one conversion."""
    controls = np.array(controls, dtype=float)
    x, step = np.asarray(x0, dtype=float).tolist(), dynamics.step
    states = list(x)
    try:
        for u in controls.tolist():
            x = step(x, u)
            states += x
    except DomainError as exc:
        tau = len(states) // len(x) - 1
        raise DomainError(f"rollout step at time index {tau}: {exc}", tau=tau) from exc
    return Trajectory._own(np.array(states).reshape(len(controls) + 1, -1), controls)


def total_cost(cost, traj: Trajectory) -> float:
    """Per-stamp costs summed in stamp order; inf outside the cost's domain."""
    value = float(cost.values(traj).cumsum()[-1])
    return value if math.isfinite(value) else math.inf


# One stamp's row: f_x (columns a..d), f_u (columns e, f), l_x, l_u (m), l_xx
# and l_uu (n), row-major; l_x is the last column of h = [l_xx | l_x].
_ROW = ([f"{c}{i}" for i in range(4) for c in "abcd"] + [f"{c}{i}" for i in range(4) for c in "ef"]
        + [f"h{i}4" for i in range(4)] + ["m0", "m1"]
        + [f"h{i}{j}" for i in range(4) for j in range(4)] + ["n00", "n01", "n10", "n11"])
_SWEEP = """def sweep(rows, fixed, terminal, mu):
    v00, v01, v02, v03, _, v11, v12, v13, _, _, v22, v23, _, _, _, v33, x0, x1, x2, x3 = terminal
    ({fixed}) = fixed
    corner, gains = 0.0, []
    for ({row}) in rows:
        {body}
    V_xx = [[v00, v01, v02, v03], [v01, v11, v12, v13], [v02, v12, v22, v23], [v03, v13, v23, v33]]
    return gains, (np.array([x0, x1, x2, x3]), np.array(V_xx), corner)
"""


# The two constants a row column may hold at every stamp, as a column vector
# to compare a row against.
_CONSTANTS = np.array([[0.0], [1.0]])


@functools.lru_cache(maxsize=64)
def _sweep_kernel(pattern: bytes):
    """The sweep for `pattern` and the row columns it reads per stamp and
    once. The pattern is three runs of one byte per `_ROW` slot, 1 if the
    slot is 0.0, 1.0, or the same value at every stamp; b"" is dense.
    `sweep(rows, fixed, terminal, mu)` returns the gain rows, latest stamp
    first, and (V_x, V_xx, 2 dV) at the first stamp; or None as soon as a
    regularized Q_uu is not positive definite."""
    # Constant row slots, and intermediates that come out as a constant or
    # as a bare name (1.0 * x is x), are not assigned but read as this
    # stand-in. A name standing in must not be read after it is reassigned.
    n = len(_ROW)
    zero, one, fixed = pattern[:n], pattern[n:2 * n], pattern[2 * n:] or bytes(n)
    stand = {name: "0.0" if is_zero else "1.0"
             for name, is_zero, is_one in zip(_ROW, zero, one) if is_zero or is_one}
    reassigned = set()
    body = []

    def sym(name):
        expr = stand.get(name, name)
        assert expr == name or expr not in reassigned, f"{name} read after {expr} changed"
        return expr

    def times(a, b):
        return b if a == "1.0" else a if b == "1.0" else f"{a}*{b}"

    def dot(*pairs):  # summed left to right, as in the dense sweep
        return " + ".join(times(a, b) for a, b in ((sym(a), sym(b)) for a, b in pairs)
                          if "0.0" not in (a, b)) or "0.0"

    def comb(a, op, b):  # a op b, without an exact-zero operand
        a, b = sym(a), sym(b)
        return a if b == "0.0" else b if a == "0.0" and op == "+" else f"({a}) {op} ({b})"

    def let(name, expr):
        if expr in ("0.0", "1.0") or expr.isidentifier():
            stand[name] = expr
        else:
            body.append(f"{name} = {expr}")

    # V_xx (v) and V_x (x) as one augmented matrix [V_xx | V_x].
    V = lambda i, j: f"x{i}" if j == 4 else f"v{min(i, j)}{max(i, j)}"  # noqa: E731
    col = lambda c, w: dot(*((f"{c}{k}", f"{w}{k}") for k in range(4)))  # noqa: E731
    # W = V_xx F, one column of F = [f_x f_u] at a time.
    for c, i in product("abcdef", range(4)):
        let(f"w{c}{i}", dot(*((V(i, k), f"{c}{k}") for k in range(4))))
    # The Q blocks: q + h = [Q_xx | Q_x] (upper triangle), r = [Q_ux | Q_u]
    # and u = Q_uu.
    for i, j in ((i, j) for i in range(4) for j in range(i, 4)):
        let(f"q{i}{j}", col("abcd"[i], "w" + "abcd"[j]))
    for i in range(4):
        let(f"q{i}4", col("abcd"[i], "x"))
    for u, j in product(range(2), range(4)):
        let(f"r{u}{j}", col("ef"[u], "w" + "abcd"[j]))
    for u in range(2):
        let(f"r{u}4", comb(f"m{u}", "+", col("ef"[u], "x")))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        let(f"u{i}{j}", comb(f"n{i}{j}", "+", col("ef"[i], "w" + "ef"[j])))
    # Closed-form solve of the regularized 2x2 system; NaN fails the check.
    let("ra", comb("u00", "+", "mu"))
    let("rd", comb("u11", "+", "mu"))
    let("det", comb(dot(("ra", "rd")), "-", dot(("u01", "u01"))))
    ra, rd, det = sym("ra"), sym("rd"), sym("det")
    body.append(f"if not ({ra} > 0.0 and {det} > 0.0): return None")
    let("i00", f"-{rd}/{det}")  # -(Q_uu + mu I)^-1
    let("i01", f"{sym('u01')}/{det}")
    let("i11", f"-{ra}/{det}")
    # Gains G = [K | k] = -(Q_uu + mu I)^-1 r (rows k0., k1.) and P = Q_uu G.
    for u, j in product(range(2), range(5)):
        let(f"k{u}{j}", dot((f"i0{u}", f"r0{j}"), (f"i{u}1", f"r1{j}")))
    gains = ", ".join(sym(f"k{u}{j}") for u in range(2) for j in range(5))
    body.append(f"gains.append(({gains}))")
    for u, j in product(range(2), range(5)):
        let(f"p{u}{j}", dot((f"u0{u}", f"k0{j}"), (f"u{u}1", f"k1{j}")))
    # [[V_xx, V_x], [V_x', corner]] = [[Q_xx, Q_x], [Q_x', corner]] - G' P,
    # in place: a q that aliases an entry reassigned before it is read is
    # copied first.
    pairs = [(i, j) for i in range(4) for j in range(i, 5)]
    for n, (i, j) in enumerate(pairs):
        if stand.get(f"q{i}{j}") in [V(*pair) for pair in pairs[:n]]:
            body.append(f"q{i}{j} = {stand.pop(f'q{i}{j}')}")
    for i, j in pairs:
        body.append(f"{V(i, j)} = " + comb(comb(f"h{i}{j}", "+", f"q{i}{j}"), "-",
                                           dot((f"k0{i}", f"p0{j}"), (f"k1{i}", f"p1{j}"))))
        reassigned.add(V(i, j))
    body.append("corner = " + comb("corner", "-", dot(("k04", "p04"), ("k14", "p14"))))
    # Drop the temporaries that no later line reads (V is read at the next stamp).
    kept, read = [], {V(i, j) for i, j in pairs} | {"corner"}
    for line in reversed(body):
        if " = " not in line or line.split(" = ")[0] in read:
            kept.append(line)
            read.update(re.findall(r"[a-z_]\w*", line))
    body = kept[::-1]
    # Only the upper triangles of the symmetric l_xx (h) and l_uu (n) are read.
    slots = [k for k, name in enumerate(_ROW)
             if name not in stand and (name[0] not in "hn" or name[1] <= name[2])]
    columns, once = [k for k in slots if not fixed[k]], [k for k in slots if fixed[k]]
    source = _SWEEP.format(row="".join(f"{_ROW[k]}, " for k in columns),
                           fixed="".join(f"{_ROW[k]}, " for k in once),
                           body="\n        ".join(body))
    scope = {"np": np}
    exec(compile(source, "<riccati sweep>", "exec"), scope)
    return scope["sweep"], np.array(columns, dtype=np.intp), np.array(once, dtype=np.intp)


def backward_pass(traj: Trajectory, cost, dynamics, mu: float):
    """Compute the affine control update along the nominal trajectory.

    Requires four states and two controls. The Jacobians and cost expansions
    are stacked once; the columns that are constant throughout are found by
    comparing every row with the first, and the first with 0.0 and 1.0. The
    sweep (`_sweep_kernel`) reads the other constants once and the varying
    columns, latest stamp first, as float rows. It forms the Q blocks of the
    module docstring, solves the regularized 2x2 system in closed form for
    G = [K | k], and updates the value model with the unregularized Q_uu,

        [[V_xx, V_x], [V_x', c]] = [[Q_xx, Q_x], [Q_x', c]] - G' Q_uu G,

    over its upper triangle, so V_xx stays symmetric. The corner c starts at
    0 and only ever loses k' Q_uu k, so at the first stamp it holds twice the
    predicted cost change dV. Whenever a regularized Q_uu fails its positive
    definiteness check, only the sweep restarts, at a larger mu.

    Returns:
        (gains, value, mu): the update u = u_nom + (k + K (x - x_nom)) as
        one float row (K[0], k[0], K[1], k[1]) per stamp; the value model at
        the first stamp as (V_x, V_xx, dV), where dV is the predicted total
        cost change sum(-1/2 k' Q_uu k), nonpositive; and the mu actually
        used.

    Raises:
        RegularizationExhausted: mu grew past MU_MAX.
    """
    T = traj.horizon
    f_x, f_u = dynamics.jacobians(traj.states[:-1], traj.controls)
    l_x, l_u, l_xx, l_uu = cost.expand(traj)
    rows = np.concatenate([f_x.reshape(T, 16), f_u.reshape(T, 8), l_x[:T], l_u,
                           l_xx[:T].reshape(T, 16), l_uu.reshape(T, 4)], axis=1)
    terminal = l_xx[T].ravel().tolist() + l_x[T].tolist()
    pattern = b""  # dense where inf or NaN may meet a constant 0.0 (0.0 * inf is NaN)
    if np.isfinite(rows).all() and all(map(math.isfinite, terminal)):
        first, fixed = rows[0], (rows == rows[0]).all(0)
        pattern = ((first == _CONSTANTS) & fixed).tobytes() + fixed.tobytes()
    sweep, columns, once = _sweep_kernel(pattern)
    rows, fixed = rows[::-1, columns].tolist(), rows[0, once].tolist()
    while mu <= MU_MAX:
        result = sweep(rows, fixed, terminal, mu)
        if result is not None:
            gains, (V_x, V_xx, corner) = result
            gains.reverse()
            return gains, (V_x, V_xx, 0.5 * corner), mu
        mu *= MU_GROWTH
    raise RegularizationExhausted(
        f"backward pass found no positive-definite Q_uu below mu={MU_MAX}"
    )


def forward_pass(traj: Trajectory, gains: list, alpha: float, dynamics):
    """Roll the affine policy through the true dynamics from the nominal start.

    The feedforward term is scaled by alpha; feedback is applied at full
    strength against the deviation from the nominal states. The policy runs
    on plain floats over the four states and two controls of a Trajectory
    and the float gain rows, which cost less per stamp than small arrays: it
    reads the nominal as flat float lists and collects the new states and
    controls as flat float lists, each of which becomes its array in one
    conversion. A step the model refuses with a DomainError raises a
    DomainError that adds its stamp; any other error of the model propagates
    unchanged.
    """
    x, step = traj.states[0].tolist(), dynamics.step
    states, controls = list(x), []
    nominal, applied = iter(traj.states.ravel().tolist()), iter(traj.controls.ravel().tolist())
    rows = zip(gains, nominal, nominal, nominal, nominal, applied, applied)
    try:
        for (K00, K01, K02, K03, k0, K10, K11, K12, K13, k1), n0, n1, n2, n3, w, a in rows:
            d0, d1, d2, d3 = x[0] - n0, x[1] - n1, x[2] - n2, x[3] - n3
            u = (w + (alpha * k0 + (K00 * d0 + K01 * d1 + K02 * d2 + K03 * d3)),
                 a + (alpha * k1 + (K10 * d0 + K11 * d1 + K12 * d2 + K13 * d3)))
            x = step(x, u)
            controls += u
            states += x
    except DomainError as exc:
        tau = len(controls) // 2
        raise DomainError(f"forward pass step at time index {tau}: {exc}", tau=tau) from exc
    return Trajectory._own(np.array(states).reshape(-1, 4), np.array(controls).reshape(-1, 2))


def solve(traj: Trajectory, cost, dynamics, max_iters: int = 100,
          cost_tolerance: float = 1e-4) -> ILQRResult:
    """Minimize the summed stage plus terminal cost subject to the dynamics.

    `traj` is the first nominal trajectory: the rollout of its controls from
    its first state, as `rollout` and every solve return it, so it is not
    rolled out again. Iterations alternate backward and forward passes,
    accepting the first backtracking step that strictly decreases the cost;
    the loop stops when the accepted improvement (or the predicted one, if
    no step is acceptable) falls below `cost_tolerance`, an absolute change
    of the objective, or after `max_iters` iterations. The result also
    reports the last accepted step length, the number of rejected line-search
    trials and the largest mu a backward pass used.

    When the cost has `admits`, each trial's first control is screened
    before its rollout: it is u_nom,0 + alpha k_0, since the state deviation
    at stamp 0 is zero. A trial not admitted is rejected, and counted with
    the rejected trials, without a forward pass or a cost evaluation. Its
    control differs from the forward pass's at most in the sign of an exact
    zero, so the screen rejects only trials the rollout would reject.

    Raises ValueError for a `max_iters` that is not an integer of at least 1
    (`is_count`), and for a `cost_tolerance` that is not a positive finite
    number: at zero or NaN no improvement falls below it, so a stalled solve
    runs to `max_iters`, and at inf every one does, so any solve stops after
    one iteration as converged.
    """
    require(max_iters, "max_iters", is_count, "be an integer of at least 1")
    require(cost_tolerance, "cost_tolerance", lambda v: math.inf > v > 0, "be positive and finite")
    cost_now = total_cost(cost, traj)
    history = [cost_now]
    mu = MU_MIN
    status = STATUS_MAX_ITERS
    iterations = 0
    last_alpha, rejected, peak_mu = None, 0, mu
    admits = getattr(cost, "admits", None)

    for iterations in range(1, max_iters + 1):
        gains, (_, _, expected), mu = backward_pass(traj, cost, dynamics, mu)
        peak_mu = max(peak_mu, mu)
        accepted = None
        if admits is not None:  # the first control and its feedforward gains k_0
            (steer, accel), (k_steer, k_accel) = traj.controls[0].tolist(), gains[0][4::5]
        for alpha in ALPHAS:
            if admits is not None and not admits(steer + alpha * k_steer, accel + alpha * k_accel):
                rejected += 1
                continue
            try:
                candidate = forward_pass(traj, gains, alpha, dynamics)
            except DomainError:
                rejected += 1
                continue
            cost_candidate = total_cost(cost, candidate)
            if cost_candidate < cost_now:
                accepted = (candidate, cost_candidate, alpha)
                break
            rejected += 1
        if accepted is not None:
            improvement = cost_now - accepted[1]
            traj, cost_now, last_alpha = accepted
            history.append(cost_now)
            mu = max(MU_MIN, mu * MU_SHRINK)
            if improvement < cost_tolerance:
                status = STATUS_CONVERGED
                break
        else:
            if abs(expected) < cost_tolerance:
                status = STATUS_CONVERGED
                break
            mu *= MU_GROWTH
            if mu > MU_MAX:
                raise RegularizationExhausted(
                    "line search failed and regularization is exhausted"
                )

    return ILQRResult(traj, history, iterations, status, last_alpha, rejected, peak_mu)
