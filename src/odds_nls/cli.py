"""Command-line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Output root precedence: --output-dir flag, then ODDS_NLS_OUTPUT env var, then
the config's output_dir.
"""

import argparse
import os
import sys
from dataclasses import replace

from .config import (ConfigError, ExperimentConfig, apply_overrides,
                     builtin_configs, config_schema, load_config)
from .experiments import run_experiment
from .stepper import StepFailure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odds-nls",
        description="Overlapping-element splitting solver for the stochastic "
                    "cubic Schrodinger equation: experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a YAML config "
                                     "or a builtin name")
    run.add_argument("config", help="config file path or builtin experiment "
                                    "name (see list-experiments)")
    run.add_argument("--workers", type=int, default=1,
                     help="processes that farm the runs (default 1)")
    run.add_argument("--output-dir", default=None,
                     help="artifact root directory")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a config key (repeatable)")

    sub.add_parser("list-experiments", help="list builtin experiment names")
    sub.add_parser("print-config-schema", help="describe config keys")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if os.path.isfile(args.config):
        config = load_config(args.config)
    elif args.config in builtin_configs():
        config = builtin_configs()[args.config]
    else:
        raise ConfigError(f"no config file or builtin named {args.config!r}")
    if args.overrides:
        config = apply_overrides(config, args.overrides)
    root = (args.output_dir or os.environ.get("ODDS_NLS_OUTPUT")
            or config.output_dir)
    return replace(config, output_dir=root)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name in builtin_configs():
            print(name)
        return 0
    if args.command == "print-config-schema":
        print(config_schema())
        return 0
    if args.workers < 1:
        print("config error: --workers must be positive", file=sys.stderr)
        return 2
    try:
        result = run_experiment(_resolve_config(args), workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in result.paths:
        print(path)
    if result.manifest.get("failures"):
        n = len(result.manifest["failures"])
        print(f"numerical failure in {n} run(s); see manifest",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
