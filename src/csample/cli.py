"""Command-line front end: csample <subcommand> --config FILE [options].

Subcommands map one-to-one onto the experiment runners. Exit codes:
0 success, 2 configuration error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    ChainFailed,
    ConfigError,
    DegenerateComponent,
    DimensionMismatch,
    ImageIoError,
    InsufficientSamples,
    NotPositiveDefinite,
    ZeroReference,
)
from .experiments import EXPERIMENT_KINDS, RUNNERS, default_config, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_NUMERICAL_ERRORS = (
    ChainFailed,
    NotPositiveDefinite,
    DegenerateComponent,
    DimensionMismatch,
    InsufficientSamples,
    ZeroReference,
    np.linalg.LinAlgError,
    FloatingPointError,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csample",
        description="Parallel cluster sampling for Bayesian inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=f"out_{kind.replace('-', '_')}",
                       help="output directory")
        if {"workers", "p_values"} & set(default_config(kind)):  # only where there is a pool
            p.add_argument("--procs", type=int, default=None, help="worker count")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "procs", None) is not None:
        # bench scans worker counts; elsewhere --procs sets the pool size.
        if args.command == "bench":
            overrides["p_values"] = sorted({1, args.procs})
        else:
            overrides["workers"] = args.procs
    try:
        config = load_config(args.command, args.config, overrides)
        summary = RUNNERS[args.command](config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ImageIoError as exc:
        print(f"image I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps({"out": args.out, "manifest": summary.manifest}, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
