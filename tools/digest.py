"""Print one SHA-256 digest of every answer a benchmark workload gets.

    python tools/digest.py --workload {paper,corpus,baseline} --seed N

Builds the workload's instances with `perfbench/workloads.build` and solves
each once through `harness.solve_scenario`, in instance order. The digest
covers, per instance, its name and method and the report's status, outer and
inner iteration counts, the `repr` of its final cost and max violation and its
message; per record, the residuals, base cost, weight, `alpha`,
`rejected_steps`, `peak_mu` and the bytes of the states and controls. A raised
`PlannerError` is hashed by its type and message.

Two checkouts that print the same digest on one machine gave bit-identical
plans; the digest is for such before/after comparisons, so none is stored.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from admmplan.errors import PlannerError  # noqa: E402
from admmplan.harness import solve_scenario  # noqa: E402

import workloads  # noqa: E402


def _report_fields(report):
    yield report.status, report.iterations, report.ilqr_iterations
    yield repr(report.final_cost), repr(report.max_violation), report.message
    for record in report.records:
        inner = record.inner
        yield (repr(record.residual_inf), repr(record.residual_two), repr(record.cost),
               repr(record.weight), repr(inner.alpha), inner.rejected_steps, repr(inner.peak_mu))
        yield record.trajectory.states.tobytes()
        yield record.trajectory.controls.tobytes()


def digest(name: str, seed: int) -> str:
    sha = hashlib.sha256()
    for inst in workloads.build(name, seed).instances:
        sha.update(f"{inst.name}|{inst.method}".encode())
        try:
            fields = list(_report_fields(solve_scenario(inst.config, inst.method)))
        except PlannerError as exc:
            fields = [type(exc).__name__, str(exc)]
        for value in fields:
            sha.update(value if isinstance(value, bytes) else repr(value).encode())
    return sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(f"{args.workload} seed {args.seed}: {digest(args.workload, args.seed)}")


if __name__ == "__main__":
    main()
