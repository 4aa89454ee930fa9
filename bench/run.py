#!/usr/bin/env python3
"""sgps benchmark: end-to-end run metrics and a traced per-layer breakdown.

Run from the root of an sgps checkout:

    python3 bench/run.py --workload deblur-24 --seed 1 --trace 0
    python3 bench/run.py --seed 1          # all three workloads, untraced

One invocation measures one workload in one process (``--workload all``
runs each workload in its own child process).  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
batches and prints the per-layer metrics, including the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("deblur-24", "sr-mixture-64", "kl-trend-16")
# one BLAS thread keeps timings steady on a shared machine; recorded in the facts
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# measured seconds per invocation; BENCHMARK.json's run_seconds
RUN_SECONDS = 30
# set-up processes per invocation, spawned evenly over the window
SETUP_SAMPLES = 10
# enough untraced runs that the tail percentile has ten runs beyond it
MIN_RUNS = 11
OUT_DIR = ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_s_p50": "s",
    "peak_rss_mb": "MB",
    "psnr_final_mean": "dB",
}

# spans that each report <span>_calls and <span>_s
SPANS = (
    "operators.apply",
    "operators.adjoint",
    "operators.fidelity_grad",
    "guidance.guide",
    "prior.denoise",
    "prior.vjp",
    "sure.value",
    "sure.gradient",
    "noise_est.estimate",
    "sampler.denoise_step",
    "analysis.chain_prefix",
)

PER_LAYER = {
    **{f"{span}_{kind}": unit for span in SPANS for kind, unit in (("calls", "count"), ("s", "s"))},
    "guidance.langevin_iters": "count",
    "guidance.self_s": "s",
    "core.signal_new": "count",
    "prior.denoise_gbs_computed": "GB/s",
    "sure.update_s": "s",
    "sure.skip_frac": "frac",
    "sampler.self_s": "s",
    "analysis.self_s": "s",
    "harness.parse_s": "s",
    "harness.self_s": "s",
    "trace_overhead_frac": "frac",
}


def tail_index(n: int, beyond: int = 10) -> int:
    """Index into n sorted run times of the highest percentile that has at
    least `beyond` runs above it; 0 (the fastest run) when n <= beyond."""
    return max(n - 1 - beyond, 0)


def percentile_of(index: int, n: int) -> float:
    """Percentile of sorted position `index` among n values (0 = min, 100 = max)."""
    return 100.0 * index / (n - 1) if n > 1 else 100.0


def run_facts(seed: int) -> dict:
    import numpy
    import platform
    import scipy

    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(f"{base}/{entry}/level")
        if level in ("2", "3"):
            caches[f"l{level}"] = read(f"{base}/{entry}/size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form; informational only
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def time_setup(args) -> float:
    """Seconds from spawning a fresh process until it has imported sgps and
    built the inputs.  The child reports when it was ready on the
    system-wide monotonic clock, so the wait for its exit is not counted."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t = time.monotonic()
    proc = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    return float(proc.stdout.split()[-1]) - t


def layer_metrics(tracer, traced, untraced, wl) -> dict:
    """Per-run layer numbers from the spans of the traced runs."""
    totals = tracer.totals()
    runs = len(traced)

    def calls(span):
        return totals.get(span, (0, 0.0, 0.0))[0] / runs

    def incl(span):
        return totals.get(span, (0, 0.0, 0.0))[1] / runs

    def own(*spans):
        return sum(totals.get(s, (0, 0.0, 0.0))[2] for s in spans) / runs

    m = {}
    for span in SPANS:
        m[f"{span}_calls"] = calls(span)
        m[f"{span}_s"] = incl(span)
    # every guide call runs exactly cfg.langevin_steps iterations
    m["guidance.langevin_iters"] = calls("guidance.guide") * wl.langevin_steps
    m["guidance.self_s"] = own("guidance.guide")
    m["core.signal_new"] = tracer.counts["core.signal_new"] / runs
    denoise_s = incl("prior.denoise")
    m["prior.denoise_gbs_computed"] = (
        calls("prior.denoise") * wl.means_nbytes / denoise_s / 1e9 if denoise_s > 0 else 0.0
    )
    m["sure.update_s"] = incl("sure.update")
    m["sure.skip_frac"] = sum(o.skips for o in traced) / max(sum(o.chances for o in traced), 1)
    m["sampler.self_s"] = own("sampler.run", "sampler.denoise_step")
    m["analysis.self_s"] = own("analysis.kl_trend", "analysis.chain_prefix")
    m["harness.parse_s"] = incl("harness.parse")
    m["harness.self_s"] = own("harness.run_experiment")
    m["trace_overhead_frac"] = (
        statistics.median(o.seconds for o in traced)
        / statistics.median(o.seconds for o in untraced) - 1.0
    )
    return m


def run_workload(args) -> int:
    import workloads
    from tracer import Tracer

    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    # the untimed replay of run 0 also lets caches fill before timing
    reference = wl.replay()

    tracer = Tracer() if args.trace else None
    outcomes = []  # (Outcome, traced)
    need = 2 if args.trace else MIN_RUNS
    setup = []
    batch = 0
    measured = 0.0  # seconds spent in batches; set-up spawns are not counted
    while batch < 2 or measured < args.seconds or sum(not t for _, t in outcomes) < need:
        traced = bool(args.trace) and batch % 2 == 1
        if traced:
            workloads.instrument_modules(tracer)
        tb = time.perf_counter()
        try:
            outs = wl.run_batch(batch, tracer if traced else None)
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc()
            outs = [workloads.Outcome(time.perf_counter() - tb, False, math.nan, error=repr(exc))
                    for _ in range(wl.per_batch)]
        finally:
            if traced:
                tracer.restore()
        measured += time.perf_counter() - tb
        outcomes.extend((o, traced) for o in outs)
        batch += 1
        # set-up is sampled across the whole window, so it sees the same
        # machine as the runs rather than one burst of a few seconds
        while len(setup) < SETUP_SAMPLES * min(measured / args.seconds, 1.0):
            setup.append(time_setup(args))

    runs = [o for o, _ in outcomes]
    if wl.fingerprint != reference:
        runs[0].ok = False
        runs[0].error = "replay of run 0 is not bitwise equal"
    wl.check(runs)
    failed = sum(not o.ok for o in runs)
    for i, o in enumerate(runs):
        if not o.ok:
            print(f"run {i} failed: {o.error or 'a check failed'}", file=sys.stderr)

    untraced = [o for o, t in outcomes if not t]
    times = sorted(o.seconds for o in untraced)
    ti = tail_index(len(times))
    e2e = {
        "setup_s": statistics.median(setup),
        "runs_per_s": len(runs) / measured,
        "run_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "psnr_final_mean": statistics.fmean(o.psnr for o in runs),
    }
    kl = [o.kl_ratio for o in runs if math.isfinite(o.kl_ratio)]
    info = {
        "failed_frac": failed / len(runs),
        "run_s_tail": times[ti],
        "kl_ratio_mean": statistics.fmean(kl) if kl else None,
        "tail_percentile": round(percentile_of(ti, len(times)), 2),
        "tail_runs_beyond": len(times) - 1 - ti,
        "untraced_runs": len(times),
        "setup_samples_s": setup,
    }

    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, value in e2e.items():
        print(f"# {name:18s} {value:.6g} {END_TO_END[name]}")
    print(f"# {'failed_frac':18s} {info['failed_frac']:.6g} frac")
    if info["kl_ratio_mean"] is not None:
        print(f"# {'kl_ratio_mean':18s} {info['kl_ratio_mean']:.6g} ratio (lower is better)")
    # the percentile moves with the run count, so the tail is not compared across commits
    print(f"# {'run_s_tail':18s} {info['run_s_tail']:.6g} s: p{info['tail_percentile']} of "
          f"{len(times)} untraced runs ({info['tail_runs_beyond']} beyond it; informational)")
    if wl.criterion is not None:
        num, budget = wl.criterion
        projected = 100 * e2e["run_s_p50"]
        print(f"# budget: run_s_p50 x 100 = {projected:.1f} s against criterion {num}'s "
              f"{budget:.0f} s ({100 * projected / budget:.0f}% used; informational)")
    print("# facts " + json.dumps(run_facts(args.seed)))
    print("# info " + json.dumps(info))

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if args.trace:
        traced_runs = [o for o, t in outcomes if t]
        layers = layer_metrics(tracer, traced_runs, untraced, wl)
        run_s = statistics.fmean(o.seconds for o in traced_runs)
        for name, unit in PER_LAYER.items():
            share = f"  {100 * layers[name] / run_s:5.1f}% of traced run_s" if unit == "s" else ""
            print(f"# {name:32s} {layers[name]:.6g} {unit}{share}")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.npz"))
        silent = [name for name in wl.expected_layers if layers[name] == 0]
        if silent:
            print(f"error: traced run recorded no calls for {', '.join(silent)} on {wl.name}; "
                  "the tracer no longer reaches that layer", file=sys.stderr)
            return 3
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process; a combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if code:
        return code
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, default=1)
    # the window is fixed by BENCHMARK.json; the flag only echoes run_seconds
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS, choices=(RUN_SECONDS,))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seed >= 2**40:
        ap.error("--seed must be in [0, 2**40)")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sgps", "__init__.py")):
        print("error: src/sgps not found; run from the root of an sgps checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # the harness would otherwise write its artifacts wherever this points
    os.environ.pop("SGPS_OUTPUT_DIR", None)
    sys.path[:0] = [src, HERE]

    if args.workload == "all":
        if args.setup_only:
            ap.error("--setup-only needs one workload")
        return run_all(args)
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, os.path.join(OUT_DIR, "tmp"))
        print(time.monotonic())
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
