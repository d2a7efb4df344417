"""admmplan benchmark entry point.

    python3 perfbench/run.py --workload {paper,corpus,baseline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the planner is imported from its
`src/` directory. Each run starts fresh worker processes (perfbench/worker.py)
with BLAS and OpenMP pinned to one thread:

* --trace 0: SETUP_SAMPLES - 1 set-up-only processes, then one process that
  sets up, plans whole units of the workload for S seconds in a closed loop
  with one client and checks every plan. Prints the end-to-end metrics;
  setup_s is the median over all set-ups.
* --trace 1: one process that plans the workload's fixed trace units untraced
  and then traced, and prints the per-layer metrics.

The full record (environment, per-instance outcomes, corpus properties) goes
to .perfbench_out/; the last line of standard output is the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper", "corpus", "baseline")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
OUT_DIR = ".perfbench_out"
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, deadline, setup_only=False):
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, **PINNED_THREADS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before a worker could start")
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() kills the worker and waits for it
        fail("worker exceeded the time limit")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("worker printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join("src", "admmplan", "__init__.py")):
        fail("run from the root of an admmplan checkout (src/admmplan not found)")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker(args, deadline, setup_only=True)["setup_s"])
    result = worker(args, deadline)
    setups.append(result["setup_s"])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    problems = result["problems"]

    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(dict(result, setup_samples=setups, metrics=metrics), handle, indent=1)

    env = result["env"]
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} threads=1")
    if result["properties"]:
        print("corpus properties: " + json.dumps(result["properties"]))
    for hook in result["detail"].get("hooks_not_found", []):
        print(f"note: trace hook not found, its layer reads 0: {hook}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"record: {record_path}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["raised"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
