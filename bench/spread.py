#!/usr/bin/env python3
"""Run one workload on seeds 1 to 10 and print each end-to-end metric's
median and quartile spread (IQR / median), as the acceptance rule computes it.

    python3 bench/spread.py --workload kl-trend-16
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values: dict[str, list[float]] = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, run, "--workload", args.workload, "--seed", str(seed),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=600,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:18s} median {med:.6g}  spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
