"""Command-line entry point.

Examples:
    plan --scenario 1 --method admm --out results/s1
    plan --scenario 2 --method all --out results/s2
    plan --config results/s1/config.yaml --method barrier --out results/custom

Every run writes the complete configuration it used as `config.yaml`, which
`--config` reads back: edit that file to plan a custom scenario. Each method
solves once and writes the trajectory of every solver iteration, the residual
history and the solve's time.

Exit codes: 0 success, 2 configuration error, 3 a method's solve failed,
4 I/O error.
"""

import argparse
import sys

from . import harness, scenarios
from .errors import ConfigError, PlannerError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plan",
        description="Constrained trajectory planner: consensus-split iLQR "
        "with a log-barrier baseline.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--scenario", choices=("1", "2"), help="built-in scenario id")
    source.add_argument("--config", help="path to a scenario YAML file")
    parser.add_argument("--method", choices=harness.METHODS + ("all",), default="admm",
                        help="solver to run, or 'all' for every one")
    parser.add_argument("--out", default="out", metavar="DIR")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # `harness.run` handles its own OSErrors; a ConfigError is a PlannerError.
    try:
        if args.config is not None:
            config = scenarios.load_config(args.config)
        else:
            config = scenarios.builtin_scenario(args.scenario or "1")
        return harness.run(config, args.method, args.out)
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return harness.EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return harness.EXIT_CONFIG
    except PlannerError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return harness.EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
