"""Command-line entry point: run, validate, or demo an experiment.

    finprob run <config.ini> [--outdir DIR]
    finprob validate <config.ini>
    finprob demo <experiment-name> [--outdir DIR] [--output FILE]

Exit code 0 on success, 1 when an experiment reports a VIOLATION, 2 for
configuration and I/O errors. The FINPROB_OUTDIR environment variable
overrides the output directory when --outdir is absent.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, demo_config, load_config
from .errors import ConfigError, ConfigParseError, FinprobError
from .experiments import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finprob",
        description="Finite kernel-category experiments: convergence audits and counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to the configuration file")
    p_run.add_argument("--outdir", default=None, help="directory for the CSV output")

    p_val = sub.add_parser("validate", help="check a config file without running it")
    p_val.add_argument("config", help="path to the configuration file")

    p_demo = sub.add_parser("demo", help="run a built-in canonical configuration")
    p_demo.add_argument("name", help=f"one of: {', '.join(EXPERIMENTS)}")
    p_demo.add_argument("--outdir", default=None, help="directory for the CSV output")
    p_demo.add_argument("--output", default=None, help="CSV file name")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = load_config(args.config)  # a config that loads is valid
            print(f"OK: {cfg.experiment} (seed {cfg.seed}, mode {cfg.mode.kind})")
            return 0
        if args.command == "run":
            cfg = load_config(args.config)
        else:
            cfg = demo_config(args.name, output=args.output)
        code, path, verdict = run(cfg, outdir=args.outdir)
        print(f"{verdict} -> {path}")
        return code
    except (ConfigParseError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FinprobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
