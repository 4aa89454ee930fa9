#!/usr/bin/env python3
"""Accuracy of the patch-spectrum noise estimator across noise levels.

Each level is averaged over freshly drawn smooth synthetic images; the table
shows the mean estimate and its relative error.
"""
import argparse

from sgps.analysis import sigma_sweep
from sgps.core import SgpsError
from sgps.noise_est import PatchConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=float, nargs="+", default=[0.05, 0.1, 0.2, 0.4])
    ap.add_argument("--images", type=int, default=25)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--patch", type=int, default=7)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)

    try:
        rows = sigma_sweep(
            args.levels,
            images=args.images,
            shape=(args.size, args.size),
            patch=PatchConfig(patch_size=args.patch),
            seed=args.seed,
        )
    except SgpsError as e:
        ap.error(str(e))
    print(f"{'sigma':>8} {'estimate':>10} {'rel error':>10}")
    for r in rows:
        print(f"{r['sigma']:>8.3f} {r['mean_estimate']:>10.4f} {100 * r['rel_error']:>+9.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
