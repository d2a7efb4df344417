"""One workload in one fresh process: set up, plan in a closed loop, check.

Started by run.py with the checkout root as working directory. Prints one
JSON object on its last line of standard output.

    --setup-only   import, build the inputs and plan once; report setup_s
    --trace 0      plan whole units until --seconds have passed; report the
                   end-to-end figures
    --trace 1      plan the workload's fixed trace units untraced, then again
                   traced; report the per-layer figures and check that the
                   traced plans match the untraced ones
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from admmplan import builtin_scenario  # noqa: E402
from admmplan.harness import solve_scenario  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
# Kernel time per step on the reference host (2-vCPU KVM Xeon, Python 3.11,
# numpy 2.4) in a quiet spell, so reference seconds read as wall seconds there.
REF_STEP_S = 2e-6
SAMPLE_STEPS = 100  # one speed sample, about 0.2 ms at the reference speed
SAMPLE_EVERY_S = 0.005


@dataclass
class Plan:
    instance: int
    wall: float  # measured seconds
    method: str
    key: tuple  # status, iteration counts and final cost; must repeat exactly
    solved: bool
    error: bool
    iterations: int
    status: str  # the report's status, or "raised"
    violations: dict  # keep-out, box and dynamics residuals from checks.judge
    seconds: float = 0.0  # reference seconds, see `SpeedMeter`


def kernel(steps):
    """Time a fixed interpreter-bound kernel of small numpy calls."""
    start = time.perf_counter()
    m, v, acc = np.eye(4), np.zeros(4), 0.0
    for i in range(steps):
        w = m @ v
        v = np.array([w[0] + 1.0, math.sin(acc), w[2] * 0.5, float(i % 7)])
        acc += float(v[0]) * 1e-3
    return time.perf_counter() - start


class SpeedMeter:
    """Times a stretch of code in reference seconds.

    The host's speed flips by up to 2x within a fraction of a second, while
    the planner's time relative to `kernel` stays within a few percent. So
    the kernel is sampled while the code runs: SIGALRM fires every
    SAMPLE_EVERY_S of wall time, and its handler runs SAMPLE_STEPS of the
    kernel between two bytecodes of the measured code. One more sample is
    taken before and one after. The handler's own time is taken out of the
    wall time, and the rest is scaled by the mean of the sampled speeds
    relative to the reference host:

        reference seconds = (wall - handler time) * mean(REF_STEP_S * SAMPLE_STEPS / sample)
    """

    handler_s = 0.0  # handler time of every meter so far

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.wall = 0.0

    @staticmethod
    def clock():
        """perf_counter with the handlers' time left out."""
        return time.perf_counter() - SpeedMeter.handler_s

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel(SAMPLE_STEPS))
        spent = time.perf_counter() - start
        self.spent += spent
        SpeedMeter.handler_s += spent

    def __enter__(self):
        self.samples, self.spent = [kernel(SAMPLE_STEPS)], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel(SAMPLE_STEPS))
        return False

    @property
    def measured(self):
        """Wall seconds of the measured code alone."""
        return self.wall - self.spent

    @property
    def seconds(self):
        """Reference seconds of the measured code."""
        return self.measured * statistics.fmean(REF_STEP_S * SAMPLE_STEPS / k for k in self.samples)


def plan_once(workload, index, call=None):
    inst = workload.instances[index]
    # Every plan starts from a collected heap, so the garbage collector's
    # work inside a plan does not depend on the plans before it.
    gc.collect()
    meter = SpeedMeter()
    try:
        with meter:
            if call is None:
                report = solve_scenario(inst.config, inst.method)
            else:
                report = call(index, solve_scenario, inst.config, inst.method)
    except Exception as exc:  # a raising plan is recorded and the run goes on
        key = ("raised", type(exc).__name__, str(exc))
        return Plan(index, meter.measured, inst.method, key, False, True, 0, "raised", {},
                    meter.seconds)
    solved, error, detail = checks.judge(report, inst.config)
    # Inner iteration counts per ADMM iteration, where the report lists them.
    inner = tuple(getattr(report, "ilqr_iterations", ()))
    key = (report.status, report.iterations, inner, repr(report.final_cost))
    return Plan(index, meter.measured, inst.method, key, solved, error, report.iterations,
                report.status, detail, meter.seconds)


def run_units(workload, units, call=None):
    return [plan_once(workload, index, call) for unit in units for index in unit]


def min_units(workload):
    """Units needed for >= 10 plans beyond the tail percentile."""
    plans_needed = math.ceil(10.0 / (1.0 - workload.tail_percentile / 100.0))
    return math.ceil(plans_needed / len(workload.unit))


def consistency_problems(workload, plans):
    """Repeated plans of one instance must give the same key; every returned
    trajectory must satisfy the dynamics recursion."""
    problems = []
    first = {}
    for plan in plans:
        name = workload.instances[plan.instance].name
        seen = first.setdefault(plan.instance, plan.key)
        if seen != plan.key:
            problems.append(f"{name}: repeated plan gave {plan.key}, first {seen}")
        if plan.violations.get("dynamics_gap", 0.0) > checks.DYNAMICS_TOL:
            problems.append(f"{name}: returned trajectory breaks the dynamics recursion")
    return list(dict.fromkeys(problems))


def measure(workload, seconds):
    plans = []
    needed = min_units(workload)
    start = time.perf_counter()
    units = 0
    while True:
        unit_start = time.perf_counter()
        plans.extend(run_units(workload, [workload.unit]))
        units += 1
        now = time.perf_counter()
        # Stop at the unit boundary nearest to the requested run length.
        if units >= needed and now - start + (now - unit_start) / 2.0 >= seconds:
            break
    wall = time.perf_counter() - start
    # Plan some instances once more, outside the metrics, so that a run of a
    # single unit still checks that repeated plans agree.
    repeats = run_units(workload, [workload.unit[::12]])

    by_instance = {}
    for plan in plans:
        by_instance.setdefault(plan.instance, []).append(plan.seconds)
    times = [p.seconds for p in plans]
    n = len(plans)
    metrics = {
        "plan_s_p50": (statistics.median(statistics.median(t) for t in by_instance.values()), "s"),
        "plan_s_tail": (float(np.percentile(times, workload.tail_percentile)), "s"),
        "plans_per_s": (n / sum(times), "1/s"),
        "solved_frac": (sum(p.solved for p in plans) / n, "ratio"),
        "error_free_frac": (1.0 - sum(p.error for p in plans) / n, "ratio"),
    }
    problems = consistency_problems(workload, plans + repeats)
    walls = {}
    for plan in plans:
        walls.setdefault(plan.instance, []).append(plan.wall)
    detail = {
        "wall_s": wall,
        "wall_plan_s_p50": statistics.median(statistics.median(t) for t in walls.values()),
        "wall_plans_per_s": n / sum(p.wall for p in plans),
        "units": units,
        "tail_percentile": workload.tail_percentile,
        "errors": sum(p.error for p in plans),
        "per_instance": per_instance_summary(workload, plans),
    }
    return plans, metrics, problems, detail


def per_instance_summary(workload, plans):
    out = {}
    for plan in plans:
        inst = workload.instances[plan.instance]
        entry = out.setdefault(inst.name, {"method": inst.method, "status": plan.status,
                                           "iterations": plan.iterations, "solved": plan.solved,
                                           "error": plan.error, **plan.violations, "seconds": []})
        entry["seconds"].append(plan.seconds)
    for entry in out.values():
        entry["median_s"] = statistics.median(entry.pop("seconds"))
    return out


def trace(workload, workload_name, seed):
    from tracer import Tracer

    units = [workload.unit] * workload.trace_units
    untraced = run_units(workload, units)
    tracer = Tracer(clock=SpeedMeter.clock)
    tracer.install()
    try:
        traced = run_units(workload, units, call=tracer.plan_call)
    finally:
        tracer.uninstall()

    problems = consistency_problems(workload, untraced + traced)

    layers, counters = tracer.layers, tracer.counters
    admm_plans = [p for p in traced if p.method == "admm"]
    barrier_plans = [p for p in traced if p.method == "barrier"]
    if not barrier_plans:
        touched = [n for n in ("barrier.solve", "barrier.cost") if layers[n].calls]
        if touched:
            problems.append(f"barrier layer ran without barrier plans: {touched}")

    def calls(name):
        return (layers[name].calls, "count")

    def self_s(name):
        return (layers[name].self_time, "s")

    def errors(name, kind):
        return (layers[name].errors.get(kind, 0), "count")

    forward_calls = layers["ilqr.forward"].calls
    overhead = sum(p.seconds for p in traced) / sum(p.seconds for p in untraced) - 1.0
    metrics = {
        "ilqr.solves": calls("ilqr.solve"),
        "ilqr.iterations": (counters["ilqr.iterations"], "count"),
        "ilqr.self_s": self_s("ilqr.solve"),
        "ilqr.backward.calls": calls("ilqr.backward"),
        "ilqr.backward.self_s": self_s("ilqr.backward"),
        "ilqr.backward.restarts": (counters["ilqr.backward.restarts"], "count"),
        "ilqr.forward.calls": calls("ilqr.forward"),
        "ilqr.forward.self_s": self_s("ilqr.forward"),
        "ilqr.forward.domain_errors": errors("ilqr.forward", "DomainError"),
        "ilqr.linesearch.accept_ratio": (
            counters["ilqr.accepted"] / forward_calls if forward_calls else 0.0, "ratio"),
        "ilqr.total_cost.self_s": self_s("ilqr.total_cost"),
        "ilqr.rollout.self_s": self_s("ilqr.rollout"),
        "vehicle.step.calls": calls("vehicle.step"),
        "vehicle.step.self_s": self_s("vehicle.step"),
        "vehicle.jacobians.calls": calls("vehicle.jacobians"),
        "vehicle.jacobians.self_s": self_s("vehicle.jacobians"),
        "costs.stage.calls": calls("costs.stage"),
        "costs.stage.self_s": self_s("costs.stage"),
        "costs.expansion.calls": calls("costs.expansion"),
        "costs.expansion.self_s": self_s("costs.expansion"),
        "constraints.project.calls": calls("constraints.project"),
        "constraints.project.self_s": self_s("constraints.project"),
        "constraints.project.errors": errors("constraints.project", "NonConvergence"),
        "constraints.scan.calls": calls("constraints.scan"),
        "constraints.scan.self_s": self_s("constraints.scan"),
        "admm.iterations": (sum(p.iterations for p in admm_plans), "count"),
        "admm.max_iters_frac": (
            sum(p.status == "max_iters" for p in admm_plans) / len(admm_plans) if admm_plans else 0.0,
            "ratio"),
        "admm.probe_exits": (counters["admm.probe_exits"], "count"),
        "admm.penalty.self_s": self_s("admm.penalty"),
        "admm.self_s": self_s("admm.solve"),
        "admm.solve_s": (layers["admm.solve"].total, "s"),
        "barrier.outer_iterations": (sum(p.iterations for p in barrier_plans), "count"),
        "barrier.cost.self_s": self_s("barrier.cost"),
        "barrier.inf_cost_trials": (counters["barrier.inf_cost_trials"], "count"),
        "barrier.seed_aborts": errors("barrier.solve", "BarrierDomainViolation"),
        "barrier.solve_s": (layers["barrier.solve"].total, "s"),
        "harness.self_s": self_s("plan"),
        "scenarios.roundtrip_s": (workload.roundtrip_s, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)
    detail = {"spans": spans_path, "span_count": len(tracer.spans),
              "hooks_not_found": sorted(tracer.missing),
              "untraced_s": sum(p.seconds for p in untraced),
              "traced_s": sum(p.seconds for p in traced)}
    return traced, metrics, problems, detail


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with SpeedMeter() as meter:
        workload = workloads.build(args.workload, args.seed)
        warmup = workloads.roundtrip(builtin_scenario(1))
        solve_scenario(warmup, "admm")
    # The imports before the meter started are scaled by the speed sampled after.
    setup_wall = meter.start - SETUP_START + meter.measured
    result = {
        "setup_s": setup_wall * meter.seconds / meter.measured,
        "setup_wall_s": setup_wall,
        "env": environment(),
        "properties": workload.properties,
    }
    if not args.setup_only:
        if args.trace:
            plans, metrics, problems, detail = trace(workload, args.workload, args.seed)
        else:
            plans, metrics, problems, detail = measure(workload, args.seconds)
            if args.workload == "paper" and not all(p.solved for p in plans):
                problems.append("a paper instance was not solved")
        result.update(
            attempted=len(plans),
            raised=sum(p.status == "raised" for p in plans),
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            problems=problems,
            detail=detail,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
