"""Command-line entry point.

Examples:
    plan --scenario 1 --method admm --trials 5 --out results/s1
    plan --scenario 2 --compare --trials 5 --out results/s2
    plan --config my_scenario.yaml --method barrier --out results/custom
    plan --export-scenario 1 --out .

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error.
"""

import argparse
import sys
from pathlib import Path

from . import harness, scenarios
from .errors import ConfigError, PlannerError, UnknownScenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plan",
        description="Constrained trajectory planner: consensus-split iLQR "
        "with a log-barrier baseline.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--scenario", choices=("1", "2"), help="built-in scenario id")
    source.add_argument("--config", help="path to a scenario YAML file")
    parser.add_argument("--method", choices=harness.METHODS, default="admm")
    parser.add_argument("--trials", type=int, default=1, metavar="N")
    parser.add_argument("--out", default="out", metavar="DIR")
    parser.add_argument("--snapshots", default="1,2,last", metavar="POLICY",
                        help="iterations to export: 'all' or e.g. '1,2,last'")
    parser.add_argument("--compare", action="store_true",
                        help="run both methods and write a joint timing table")
    parser.add_argument("--export-scenario", choices=("1", "2"), metavar="ID",
                        help="write a built-in scenario config and exit")
    parser.add_argument("--iter-timing", action="store_true",
                        help="record per-iteration seconds in residuals.csv "
                        "(makes outputs run-dependent)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.export_scenario is not None:
        try:
            config = scenarios.builtin_scenario(args.export_scenario)
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"scenario{args.export_scenario}.yaml"
            scenarios.save_config(config, path)
        except OSError as exc:
            print(f"cannot write scenario file: {exc}", file=sys.stderr)
            return harness.EXIT_IO
        print(path)
        return harness.EXIT_OK

    try:
        if args.config is not None:
            config = scenarios.load_config(args.config)
        else:
            config = scenarios.builtin_scenario(args.scenario or "1")
        if args.trials < 1:
            raise ConfigError("--trials must be at least 1")
        harness.parse_snapshot_policy(args.snapshots)
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return harness.EXIT_CONFIG
    except (ConfigError, UnknownScenario, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return harness.EXIT_CONFIG

    try:
        return harness.run(
            config,
            args.method,
            args.trials,
            args.out,
            snapshots=args.snapshots,
            compare=args.compare,
            include_seconds=args.iter_timing,
        )
    except PlannerError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return harness.EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
