"""Layer tracing installed from outside the planner.

`Tracer.install` replaces module attributes at the places where the planner
looks them up (`admmplan.ilqr.backward_pass`, `admmplan.admm.project_timestep`,
...), wraps the cost and dynamics objects that `harness.build_problem`
creates in proxies, and wraps the methods of the consensus-penalty and
log-barrier cost wrappers. `Tracer.uninstall` puts every original back.

Each wrapped call is timed. A layer's self time is its duration minus the
time of the wrapped calls made inside it. Calls above the per-stamp level are
kept as spans with a parent link and the plan they belong to; per-stamp calls
(dynamics, costs, projection) are only counted and timed, so memory stays
bounded on long runs.
"""

import json
import math
from collections import defaultdict
from time import perf_counter

import admmplan.admm
import admmplan.barrier
import admmplan.harness
import admmplan.ilqr

# Layers recorded as spans; every other traced name is a per-stamp call.
SPAN_NAMES = {
    "plan", "admm.solve", "barrier.solve", "ilqr.solve", "ilqr.backward",
    "ilqr.forward", "ilqr.total_cost", "ilqr.rollout", "constraints.scan",
}

# (module, attribute, layer name) for functions looked up as module globals.
FUNCTION_HOOKS = [
    (admmplan.harness, "admm_solve", "admm.solve"),
    (admmplan.harness, "barrier_solve", "barrier.solve"),
    (admmplan.ilqr, "solve", "ilqr.solve"),
    (admmplan.ilqr, "backward_pass", "ilqr.backward"),
    (admmplan.ilqr, "forward_pass", "ilqr.forward"),
    (admmplan.ilqr, "total_cost", "ilqr.total_cost"),
    (admmplan.ilqr, "rollout", "ilqr.rollout"),
    (admmplan.admm, "project_timestep", "constraints.project"),
    (admmplan.admm, "trajectory_violation", "constraints.scan"),
    (admmplan.barrier, "trajectory_violation", "constraints.scan"),
    (admmplan.barrier, "check_strict_feasibility", "constraints.scan"),
]

# (class name in its module, layer name) for the cost wrappers' methods.
COST_METHODS = ("stage", "stage_expansion", "terminal", "terminal_expansion")
CLASS_HOOKS = [
    (admmplan.admm, "PenalizedCost", "admm.penalty"),
    (admmplan.barrier, "BarrierCost", "barrier.cost"),
]

# Methods of the objects built by harness.build_problem.
PROXY_METHODS = {
    "TrackingCost": {
        "stage": "costs.stage",
        "terminal": "costs.stage",
        "stage_expansion": "costs.expansion",
        "terminal_expansion": "costs.expansion",
    },
    "BicycleModel": {"step": "vehicle.step", "jacobians": "vehicle.jacobians"},
}


class _Frame:
    __slots__ = ("name", "span_id", "start", "child", "last_tau", "solves")

    def __init__(self, name, span_id, start):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child = 0.0
        self.last_tau = None
        self.solves = 0


class Layer:
    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = defaultdict(int)


class _Proxy:
    """Forwards every attribute to `inner`; traced methods are set on top."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock  # seconds; spans and self times are read from it
        self.layers = defaultdict(Layer)
        self.spans = []  # (span_id, parent_id, plan, name, start, end, self)
        self.stack = []
        self.plan = None
        self.counters = defaultdict(int)
        self.missing = set()
        self._saved = []

    # -- core --------------------------------------------------------------

    def call(self, name, fn, args, kwargs, after=None):
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = len(self.spans) if name in SPAN_NAMES else None
        if span_id is not None:
            self.spans.append(None)  # reserve the id; filled in on exit
        frame = _Frame(name, span_id, self.clock())
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.layers[name].errors[type(exc).__name__] += 1
            raise
        finally:
            end = self.clock()
            stack.pop()
            duration = end - frame.start
            layer = self.layers[name]
            layer.calls += 1
            layer.total += duration
            layer.self_time += duration - frame.child
            if parent is not None:
                parent.child += duration
            if span_id is not None:
                parent_id = parent.span_id if parent is not None else None
                self.spans[span_id] = (
                    span_id, parent_id, self.plan, name, frame.start, end, duration - frame.child
                )
        if after is not None:
            after(frame, parent, args, result)
        return result

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        traced.__wrapped__ = fn
        return traced

    # -- per-layer observations -------------------------------------------

    def _after_solve(self, frame, parent, args, result):
        # Each accepted line-search step appends one cost to the history.
        self.counters["ilqr.iterations"] += getattr(result, "iterations", 0)
        self.counters["ilqr.accepted"] += len(getattr(result, "cost_history", [None])) - 1
        if parent is not None:
            parent.solves += 1

    def _after_admm(self, frame, parent, args, report):
        if frame.solves == 1 and getattr(report, "status", None) == "converged":
            self.counters["admm.probe_exits"] += 1

    def _after_total_cost(self, frame, parent, args, value):
        if isinstance(value, float) and math.isinf(value) and any(f.name == "barrier.solve" for f in self.stack):
            self.counters["barrier.inf_cost_trials"] += 1

    def _note_stage_expansion(self, tau):
        # The backward recursion walks tau downwards; a tau that does not
        # decrease means it restarted with a larger regularization.
        top = self.stack[-1] if self.stack else None
        if top is not None and top.name == "ilqr.backward":
            if top.last_tau is not None and tau >= top.last_tau:
                self.counters["ilqr.backward.restarts"] += 1
            top.last_tau = tau

    def _traced_method(self, name, fn, method):
        if method != "stage_expansion":
            return self.wrap(name, fn)

        def traced(obj, tau, *args, **kwargs):
            self._note_stage_expansion(tau)
            return self.call(name, fn, (obj, tau) + args, kwargs)

        return traced

    def _proxy_factory(self, cls, methods):
        tracer = self

        def build(*args, **kwargs):
            inner = cls(*args, **kwargs)
            proxy = _Proxy(inner)
            for method, name in methods.items():
                bound = getattr(inner, method, None)
                if bound is None:
                    tracer.missing.add(f"{cls.__name__}.{method}")
                    continue
                if method == "stage_expansion":
                    def traced(tau, *a, _fn=bound, _name=name, **k):
                        tracer._note_stage_expansion(tau)
                        return tracer.call(_name, _fn, (tau,) + a, k)
                    setattr(proxy, method, traced)
                else:
                    setattr(proxy, method, tracer.wrap(name, bound))
            return proxy

        return build

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "ilqr.solve": self._after_solve,
            "admm.solve": self._after_admm,
            "ilqr.total_cost": self._after_total_cost,
        }
        for module, attr, name in FUNCTION_HOOKS:
            fn = module.__dict__.get(attr)
            if fn is None:
                self.missing.add(f"{module.__name__}.{attr}")
                continue
            self._patch(module, attr, self.wrap(name, fn, after.get(name)))
        for module, cls_name, name in CLASS_HOOKS:
            cls = module.__dict__.get(cls_name)
            if cls is None:
                self.missing.add(f"{module.__name__}.{cls_name}")
                continue
            for method in COST_METHODS:
                fn = cls.__dict__.get(method)
                if fn is None:
                    self.missing.add(f"{cls_name}.{method}")
                    continue
                self._patch(cls, method, self._traced_method(name, fn, method))
        for cls_name, methods in PROXY_METHODS.items():
            cls = admmplan.harness.__dict__.get(cls_name)
            if cls is None:
                self.missing.add(f"admmplan.harness.{cls_name}")
                continue
            self._patch(admmplan.harness, cls_name, self._proxy_factory(cls, methods))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def plan_call(self, index, fn, *args):
        """Run one plan as the root span, tagged with its index."""
        self.plan = index
        try:
            return self.call("plan", fn, args, {})
        finally:
            self.plan = None

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                span_id, parent, plan, name, start, end, self_time = span
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "plan": plan, "name": name,
                    "start": start, "end": end, "self_s": self_time,
                }) + "\n")
