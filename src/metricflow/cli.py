"""Command-line front end.

    metricflow <experiment> --config cfg.json [--seed N] [--out DIR]
    metricflow validate --config cfg.json

Exit codes: 0 success, 2 invalid configuration, violated precondition, a
result that cannot be written (non-finite), an output path that cannot be
written (``output error:``) or a run that memory cannot hold, 3 solver failure.

Memory policy: ``main`` owns its process, so it first tells glibc's malloc to
keep freed heap pages (trim threshold 64 MiB, mmap threshold 32 MiB).  By
default a freed temporary of 128 KB or more can go back to the kernel, and
the next one page-faults it in again: at box n = 128 one
``invert_displacement`` of the toy map then takes 7.1-7.9 ms instead of
4.1-6.2 ms (timeit minima of six processes each, shared 2-vCPU host).  Keeping
the pages lowers the box-geodesic benchmark's wall time by about 16 % and
raises its peak RSS by about 0.3 MB (+0.5 %).  Importing metricflow and
calling the library leave the allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import warnings

import numpy as np

from .config import load_config, parse_config
from .errors import ConfigError, InvalidResultError, SolverFailure
from .experiments import EXPERIMENTS, run_experiment


# glibc mallopt parameters (malloc.h) and the values main sets; 32 MiB is the
# largest mmap threshold glibc accepts on 64-bit
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD_BYTES = 64 * 2**20
MMAP_THRESHOLD_BYTES = 32 * 2**20


def keep_freed_pages():
    """Keep freed heap pages in the process; a no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    # no C library to load, no mallopt in it, or no CDLL(None) (Windows)
    except (OSError, AttributeError, TypeError):
        return
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metricflow",
        description="Numerical experiments on transport geometries for Riemannian metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate", help="check a config file against the schema")
    val.add_argument("--config", required=True, help="path to the JSON config")

    for name in EXPERIMENTS:
        exp = sub.add_parser(name, help=f"run the {name} experiment")
        exp.add_argument("--config", required=True, help="path to the JSON config")
        exp.add_argument("--seed", type=int, default=None, help="override the config seed")
        exp.add_argument("--out", default=None, help="output directory for artifacts")
    return parser


def main(argv=None) -> int:
    keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            print(f"config ok: experiment={cfg.experiment} seed={cfg.seed}")
            return 0
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config is for experiment {cfg.experiment!r} but "
                f"{args.command!r} was requested"
            )
        # the overrides pass the schema again, as if the file had held them
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output_path"] = args.out
        cfg = parse_config({**cfg.to_dict(), **overrides})
        # floating-point and Python warnings (such as the divergences' ratio
        # clamp) would precede the one-line error message or print on a
        # successful run; non-finite values are refused by the fields, the
        # solver guards and dumps_result instead
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, paths = run_experiment(cfg)
        for path in paths.values():
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except InvalidResultError as exc:
        print(f"invalid result: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
