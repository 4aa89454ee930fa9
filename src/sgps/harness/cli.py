"""Command-line front end.

Subcommands: run (one config), sweep (cartesian sweep from the config's
[sweep] section), estimate (print the noise level of a PGM image), synth
(write a synthetic noisy PGM).  Exit codes: 0 success, 1 configuration or
usage error, 2 run failure or out of memory.
"""
from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from ..core import MAX_SEED, ConfigError, RngStream, SgpsError, Signal
from ..noise_est import PatchConfig, check_patch_count, estimate_sigma
from .config import parse_config
from .pgm import read_pgm, write_pgm
from .runner import run_experiment

# synth draws one normal per pixel, so its image size is bounded
MAX_SYNTH_PIXELS = 2**22


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgps",
        description="Posterior sampling for inverse problems with risk-gradient correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the experiment config file")

    p_sweep = sub.add_parser("sweep", help="run the cartesian sweep in the config")
    p_sweep.add_argument("config", help="path to the experiment config file")

    p_est = sub.add_parser("estimate", help="estimate the noise level of a PGM image")
    p_est.add_argument("image", help="path to a binary (P5) PGM file")
    p_est.add_argument("--patch", type=int, default=7, help="patch size (default 7)")
    p_est.add_argument("--stride", type=int, default=1, help="patch stride (default 1)")

    p_synth = sub.add_parser("synth", help="write a synthetic noisy PGM image")
    p_synth.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p_synth.add_argument("--size", required=True, help="image size as HxW, e.g. 64x64")
    p_synth.add_argument("--out", required=True, help="output PGM path")
    p_synth.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_synth.add_argument("--maxval", type=int, default=65535, help="PGM maxval (default 65535)")
    return parser


def _cmd_estimate(args) -> int:
    patch = PatchConfig(patch_size=args.patch, stride=args.stride)
    image = read_pgm(args.image)
    check_patch_count(image.shape, patch, "image ")
    sigma = estimate_sigma(image, patch)
    print(f"{sigma:.6f}")
    return 0


def _cmd_synth(args) -> int:
    try:
        h_str, w_str = args.size.lower().split("x")
        h, w = int(h_str), int(w_str)
    except ValueError:
        raise ConfigError(f"--size must look like 64x64, got {args.size!r}")
    if h < 1 or w < 1:
        raise ConfigError(f"--size must be positive, got {args.size!r}")
    if h * w > MAX_SYNTH_PIXELS:
        raise ConfigError(f"--size must have at most {MAX_SYNTH_PIXELS} pixels, got {args.size!r}")
    if not 0 <= args.seed <= MAX_SEED:
        raise ConfigError(f"--seed must be in [0, {MAX_SEED}], got {args.seed}")
    if not (0 <= args.sigma < math.inf):
        raise ConfigError(f"--sigma must be finite and >= 0, got {args.sigma}")
    if not (0 < args.maxval < 65536):
        raise ConfigError(f"--maxval must be in [1, 65535], got {args.maxval}")
    rng = RngStream(args.seed, 0)
    vals = 0.5 + args.sigma * rng.normal(h * w)
    image = Signal(np.clip(vals, 0.0, 1.0), (h, w))
    try:
        write_pgm(args.out, image, maxval=args.maxval)
    except OSError as e:
        raise ConfigError(f"cannot write --out {args.out}: {e.strerror}") from e
    print(args.out)
    return 0


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    # a warning reaches the user as one line, without the package source
    # line that would point at it; swapping the formatter (not the handler)
    # leaves warnings recorded by a caller's catch_warnings untouched
    shown = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        return _dispatch(argv)
    finally:
        warnings.formatwarning = shown


def _dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        if args.command == "run":
            return run_experiment(parse_config(args.config), sweep=False)
        if args.command == "sweep":
            return run_experiment(parse_config(args.config), sweep=True)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "synth":
            return _cmd_synth(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except SgpsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
