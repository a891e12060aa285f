"""Command-line front door: one executable, one subcommand per scenario.

    solitonlab <scenario> [--config FILE] [--out DIR]
                          [--override section.key=value ...]

Exit codes: 0 all criterion checks passed, 1 at least one check failed,
2 configuration problem, 3 numerical abort (field blow-up), 4 internal
error (any other exception, reported on one line; a run that had started
keeps a FAILED marker naming it). Exit 1 therefore means only that the
run finished and a check failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (SCENARIOS, ConfigError, apply_overrides, default_config,
                     parse_config)
from .evolution import BlowUpError
from .runner import run_scenario

EXIT_PASS = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3
EXIT_INTERNAL_ERROR = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Run a scenario of the soliton laboratory and write "
                    "its report, observables, and snapshots.")
    sub = parser.add_subparsers(dest="scenario", metavar="scenario",
                                required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=Path, default=None,
                       help="config file (flat key = value with sections); "
                            "defaults apply when omitted")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default runs/<scenario>)")
        p.add_argument("--override", action="append", default=[],
                       metavar="section.key=value",
                       help="override one setting; repeatable")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as e:
                raise ConfigError(f"cannot read config {args.config}: "
                                  f"{e}") from None
            config = parse_config(text, scenario=args.scenario)
        else:
            config = default_config(args.scenario)
        config = apply_overrides(config, args.override)
        report = run_scenario(config, out_dir=args.out)
    except ConfigError as e:
        print(f"[{args.scenario}] configuration error: {e}",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BlowUpError as e:
        print(f"[{args.scenario}] numerical abort: "
              f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT
    except Exception as e:  # noqa: BLE001 - the process boundary
        print(f"[{args.scenario}] internal error: "
              f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    print("\n".join(report.summary_lines()))
    return EXIT_PASS if report.passed else EXIT_CHECKS_FAILED


if __name__ == "__main__":
    sys.exit(main())
