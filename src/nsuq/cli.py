"""Command line front end: run-weak, run-strong, run-convergence.

On glibc the CLI keeps a 16 MiB pad above the heap top for its process;
library calls (`solve`, `run_weak`, `run_strong`) leave the allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes  # numpy imports it already
import dataclasses
import json
import os
import sys

from .experiments import (
    ExperimentConfig,
    run_deterministic_convergence,
    run_strong,
    run_weak,
)
from .solver import SolverError

_RUNNERS = {
    "run-weak": ("weak", run_weak),
    "run-strong": ("strong", run_strong),
    "run-convergence": ("convergence", run_deterministic_convergence),
}

# glibc's mallopt(3) parameter M_TOP_PAD: bytes kept mapped above the heap top
_M_TOP_PAD = -2
# A 2-D step's temporaries (32-64 KiB at n = 64) lie below glibc's 128 KiB mmap
# threshold, so they come from the brk heap; whenever more than 128 KiB at its top
# is free, free() trims it and the next sweep faults the pages back in, zeroed.
# 16 MiB keeps it mapped across steps: with glibc 2.36, the minor faults of one
# strong-2d-colloc run fell from 55 100 to 4 760, where 1 and 4 MiB left 5 700 and 4 930.
_HEAP_TOP_PAD = 16 << 20


def _pad_heap_top() -> None:
    """Keep _HEAP_TOP_PAD bytes mapped above the heap top; a no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    except (OSError, AttributeError, TypeError):
        pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nsuq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"{name.replace('run-', '')} experiment from a config file")
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="nsuq-out", help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker count (flag > NSUQ_THREADS > config)")
    return parser


def main(argv=None) -> int:
    _pad_heap_top()  # the CLI owns its process; forked workers inherit the pad
    args = _build_parser().parse_args(argv)
    mode, runner = _RUNNERS[args.command]
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        config = ExperimentConfig.from_dict(doc)
        config = dataclasses.replace(
            config,
            seed=config.seed if args.seed is None else args.seed,
            threads=args.threads if args.threads is not None
            else int(os.environ.get("NSUQ_THREADS", config.threads)),
        )
        if config.mode != mode:
            raise ValueError(f"config mode {config.mode!r} does not match {args.command}")
    # json.load raises RecursionError past the interpreter's nesting limit
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        print(f"nsuq: config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = runner(config)
    except SolverError as exc:  # an aborted convergence solve has no report to write
        print(f"nsuq: solve aborted: {exc}", file=sys.stderr)
        return 3
    try:
        report.write(args.out)
    except OSError as exc:
        print(f"nsuq: cannot write report: {exc}", file=sys.stderr)
        return 2
    tainted = [lvl["level"] for lvl in report.summary.get("levels", []) if lvl.get("tainted")]
    if tainted:
        print(f"completed with tainted levels {tainted}; report in {args.out}")
    else:
        print(f"completed; report in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
