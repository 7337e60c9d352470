"""Command-line interface.

Physics lives in the config file; flags only pick paths, worker counts,
verbosity, the seed, and (via the subcommand) a task override.  ``run``
executes whatever task the config declares.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import PropagationError
from .runner import ConfigError, config_from_dict, load_config, run

_SUBCOMMANDS = {
    "run": None,
    "propagate": "propagate",
    "meanfield": "meanfield",
    "compare": "compare",
    "verify-eom": "verify_eom",
    "verify-compact": "verify_compact",
    "sweep": "sweep",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainqed",
        description="Dipole-chain quantum electrodynamics simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, task in _SUBCOMMANDS.items():
        p = sub.add_parser(
            name,
            help=f"run the {task or 'configured'} task",
        )
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--verbose", action="store_true", help="print the report summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config_from_dict({**config.raw, "seed": args.seed})
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        report = run(
            config,
            out_dir=args.out,
            workers=args.workers,
            verbose=args.verbose,
            task_override=_SUBCOMMANDS[args.command],
        )
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except PropagationError as exc:  # the report, written, holds it too
        print(exc, file=sys.stderr)
        return 1
    if not args.verbose:
        print(report.summary())
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
