"""Tests for the benchmark's own code: span self time, the tail percentile,
the evaluation budget law check, and BENCHMARK.json agreeing with run.py.

    python3 -m pytest bench/tests -q
"""
import itertools
import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import instrument_instances, nfe_law, nfe_ok  # noqa: E402

from sgps import BlurOp, GmmDenoiser, GmmPrior, SamplerConfig, Signal, gaussian_kernel  # noqa: E402


def ticking_clock():
    """Each reading is one tick later than the last."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_subtracts_nested_children():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_self_time_clips_children_to_parent():
    start = np.array([0.0, 2.0])
    end = np.array([4.0, 7.0])
    parent = np.array([-1, 0])
    assert self_times(start, end, parent).tolist() == [2.0, 5.0]


def test_fidelity_gradient_self_time_excludes_apply_and_adjoint():
    shape = (8, 8)
    op = BlurOp(shape, gaussian_kernel(3, 1.0, 2))
    den = GmmDenoiser(GmmPrior(np.array([1.0]), np.zeros((1, 64)), 1.0, shape))
    tracer = Tracer(clock=ticking_clock())
    instrument_instances(tracer, op, den)
    x = Signal(np.linspace(0.0, 1.0, 64), shape)
    op.fidelity_gradient(x, x, 0.5)
    tracer.restore()

    # clock readings: grad opens 0, apply 1-2, adjoint 3-4, grad closes 5
    totals = tracer.totals()
    assert totals["operators.fidelity_grad"] == (1, 5.0, 3.0)
    assert totals["operators.apply"] == (1, 1.0, 1.0)
    assert totals["operators.adjoint"] == (1, 1.0, 1.0)
    parent = tracer.arrays()["parent"]
    assert parent.tolist() == [-1, 0, 0]
    # instance patches are removed, so lookups reach the class again
    assert "apply" not in vars(op) and "denoise" not in vars(den)


def test_restore_puts_module_functions_back():
    import sgps.sampler
    from workloads import instrument_modules

    before = (sgps.sampler.langevin_guide, sgps.core.Signal.__post_init__)
    tracer = Tracer()
    instrument_modules(tracer)
    assert sgps.sampler.langevin_guide is not before[0]
    tracer.restore()
    assert (sgps.sampler.langevin_guide, sgps.core.Signal.__post_init__) == before


@pytest.mark.parametrize(
    "n, index, beyond",
    [(5, 0, 4), (11, 0, 10), (12, 1, 10), (20, 9, 10), (100, 89, 10)],
)
def test_tail_is_highest_percentile_with_ten_runs_beyond(n, index, beyond):
    i = run.tail_index(n)
    assert i == index
    assert n - 1 - i == beyond


def test_tail_percentile_label():
    assert run.percentile_of(run.tail_index(100), 100) == pytest.approx(89.8989, abs=1e-3)
    assert run.percentile_of(run.tail_index(11), 11) == 0.0


def _report(total_nfe, skipped=()):
    steps = [SimpleNamespace(skipped=i in skipped) for i in range(16)]
    return SimpleNamespace(total_nfe=total_nfe, steps=steps)


def test_nfe_law():
    cfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05, mc_probes=4, sure_repeats=2,
                        ode_substeps=2)
    assert nfe_law(cfg) == 192
    assert nfe_ok(_report(192), cfg)
    assert not nfe_ok(_report(191), cfg)
    assert not nfe_ok(_report(192, skipped={3}), cfg)


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
