"""Sampling loop: evaluation budget, substep ladder, clamping and skipping,
determinism, and the common-random-numbers pairing contract."""
import math
import os
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

import sgps.sampler

from sgps.analysis import chain_prefix, kl_trend_trials, smooth_field
from sgps.core import (
    RHO,
    T_MIN,
    ConfigError,
    DivergenceError,
    NonFiniteError,
    RngStream,
    SamplerConfig,
    SgpsError,
    Signal,
    psnr,
)
from sgps.noise_est import PatchConfig
from sgps.operators import BlurOp, DownsampleOp, gaussian_kernel, identity_op
from sgps.prior import CountingDenoiser, Denoiser, GmmDenoiser, GmmPrior, PerturbedDenoiser
from sgps.sampler import (
    INFLUX_CSV_COLUMNS,
    STREAM_GUIDE,
    denoise_step,
    noise_influx_trace,
    sgps_run,
)
from sgps.schedule import build_schedule


def make_task(shape=(16, 16), s2=0.04, sigma_y=0.05, seed=71):
    """K=1 smooth-mean prior with a matching measurement; the white prior
    component keeps every per-step noise estimate far above the skip floor."""
    mean = smooth_field(RngStream(seed, 0), shape, 0.5)
    prior = GmmPrior(np.array([1.0]), mean.data[None, :], s2, shape)
    den = GmmDenoiser(prior)
    op = identity_op(shape)
    g = RngStream(seed, 1)
    x0 = prior.draw(g)
    yv = op.apply(x0)
    y = yv.with_data(yv.data + sigma_y * g.substream(1).normal(yv.n))
    return den, op, y, x0


def run_cfg(steps, **kw):
    kw.setdefault("t_max", float(steps))
    kw.setdefault("sigma_y", 0.05)
    kw.setdefault("langevin_steps", 30)
    return SamplerConfig(steps=steps, **kw)


class TestDenoiseStep:
    def test_single_substep_is_raw_denoise(self):
        den, _, _, _ = make_task()
        g = RngStream(1, 0)
        x = g.standard_normal((3, 256))
        a = denoise_step(den, x, 0.7, 1)
        b = den.denoise(x, np.full(3, 0.7))
        assert np.array_equal(a, b)

    def test_validation(self):
        den, _, _, _ = make_task()
        x = np.zeros((1, 256))
        with pytest.raises(SgpsError):
            denoise_step(den, x, 0.7, 0)
        with pytest.raises(SgpsError):
            denoise_step(den, x, 0.0, 1)

    def test_substep_ladder_converges_to_flow_limit(self):
        # K=1 closed form: running the probability-flow from sigma_t down to
        # the floor and denoising once there lands at
        # m + (x - m) s^2 / (sqrt(s^2 + T_MIN^2) sqrt(s^2 + sigma_t^2))
        n = 8
        m = np.linspace(-1.0, 1.0, n)
        s2 = 0.8
        prior = GmmPrior(np.array([1.0]), m[None, :], s2, (n,))
        den = GmmDenoiser(prior)
        sigma_t = 1.5
        x = m + 1.2 * RngStream(3, 0).standard_normal((1, n))
        limit = m + (x - m) * s2 / (
            math.sqrt(s2 + T_MIN**2) * math.sqrt(s2 + sigma_t**2)
        )
        errs = []
        for k in (2, 4, 8, 16, 32):
            out = denoise_step(den, x, sigma_t, k)
            errs.append(float(np.max(np.abs(out - limit))))
        for a, b in zip(errs, errs[1:]):
            assert b < 0.62 * a
        assert errs[-1] < 0.05


class TestEvaluationBudget:
    @pytest.mark.parametrize(
        "steps,substeps,repeats,probes,total",
        [
            (16, 1, 1, 1, 48),
            (33, 1, 1, 1, 99),
            (5, 2, 2, 3, 50),
            (6, 2, 2, 4, 72),  # the sr-mixture-64 benchmark's per-step law
            (7, 2, 0, 1, 14),  # no correction: steps * substeps
        ],
    )
    def test_budget_law_with_correction(self, steps, substeps, repeats, probes, total):
        den, op, y, _ = make_task()
        cfg = run_cfg(steps, ode_substeps=substeps, sure_repeats=repeats, mc_probes=probes)
        per_step = substeps + repeats * (1 + probes)
        for base in (den, PerturbedDenoiser(den, amplitude=0.02, frequency=3.0)):
            counter = CountingDenoiser(base)
            _, report = sgps_run(counter, op, y, cfg, RngStream(10, 0))
            assert report.total_nfe == total
            assert counter.calls == total
            assert all(r.nfe_step == per_step for r in report.steps)
            assert not any(r.skipped for r in report.steps)

    def test_budget_without_correction(self):
        den, op, y, _ = make_task()
        cfg = run_cfg(7, ode_substeps=2, sure_repeats=0)
        _, report = sgps_run(den, op, y, cfg, RngStream(10, 0))
        assert report.total_nfe == 14
        assert all(r.nfe_step == 2 for r in report.steps)

    def test_total_is_sum_of_steps(self):
        den, op, y, _ = make_task()
        _, report = sgps_run(den, op, y, run_cfg(6), RngStream(11, 0))
        assert report.total_nfe == sum(r.nfe_step for r in report.steps)


def test_instance_methods_see_every_row():
    # a benchmark trace patches denoise and jacobian_vjp on the denoiser
    # instance; the sampler must reach both through it, with every
    # evaluation a denoised row and every gradient product a vjp row
    shape = (16, 16)
    means = np.stack([smooth_field(RngStream(80, j), shape, 0.5).data for j in range(3)])
    prior = GmmPrior(np.full(3, 1.0 / 3), means, 0.01, shape)
    den = GmmDenoiser(prior)
    op = DownsampleOp(shape, 2)
    x0 = prior.draw(RngStream(81, 0))
    clean = op.apply(x0)
    y = clean.with_data(clean.data + 0.05 * RngStream(81, 1).normal(clean.n))
    cfg = run_cfg(6, langevin_steps=20, ode_substeps=2, sure_repeats=2, mc_probes=3)
    rows = {"denoise": [], "jacobian_vjp": []}
    for name, seen in rows.items():
        method = getattr(den, name)
        setattr(den, name, lambda xs, *a, method=method, seen=seen: (
            seen.append(len(xs)) or method(xs, *a)))
    _, report = sgps_run(den, op, y, cfg, RngStream(82, 0))
    assert not any(r.skipped for r in report.steps)
    assert sum(rows["denoise"]) == report.total_nfe
    assert sum(rows["jacobian_vjp"]) == cfg.steps * cfg.sure_repeats * (1 + 2 * cfg.mc_probes)


class TestClampAndSkip:
    def test_sigma_hat_used_clamped_to_ladder(self):
        den, op, y, _ = make_task()
        cfg = run_cfg(8, sigma_hat_scale=4.0)
        _, report = sgps_run(den, op, y, cfg, RngStream(12, 0))
        bound = 0
        for r in report.steps:
            assert not math.isnan(r.sigma_hat_used)
            assert sgps.sampler.SIGMA_FLOOR <= r.sigma_hat_used <= r.sigma_t + 1e-12
            if r.sigma_hat_used == r.sigma_t:
                bound += 1
        assert bound > 0

    def test_high_floor_skips_every_step(self):
        den, op, y, _ = make_task()
        with mock.patch.object(sgps.sampler, "SIGMA_FLOOR", 5.0):
            _, report = sgps_run(den, op, y, run_cfg(6), RngStream(13, 0))
        assert report.total_nfe == 6
        for r in report.steps:
            assert r.skipped
            assert math.isnan(r.sigma_hat_used)
            assert math.isnan(r.sure_value)
            assert r.nfe_step == 1

    def test_correction_disabled_records(self):
        den, op, y, x0 = make_task()
        cfg = run_cfg(6, sure_repeats=0)
        _, report = sgps_run(den, op, y, cfg, RngStream(14, 0), x_true=x0)
        for r in report.steps:
            assert r.psnr_star == r.psnr_x0ty
            assert math.isnan(r.sigma_hat_used)
            assert math.isnan(r.sure_value)
            assert not r.skipped

    @pytest.mark.parametrize("kw,estimates", [
        ({"sure_repeats": 0}, 5),
        ({"floor": 5.0}, 5),  # every step skips
        ({"sure_repeats": 2}, 15),  # guided, after one update, corrected
    ])
    def test_a_sample_that_did_not_move_is_estimated_once(self, kw, estimates):
        # the corrected sample's estimate is the guided one's when no update
        # moved it; kw holds sampler fields and an optional skip floor
        kw = dict(kw)
        floor = kw.pop("floor", sgps.sampler.SIGMA_FLOOR)
        den, op, y, _ = make_task()
        spy = mock.Mock(side_effect=sgps.sampler.estimate_sigma)
        with mock.patch.object(sgps.sampler, "estimate_sigma", spy), \
                mock.patch.object(sgps.sampler, "SIGMA_FLOOR", floor):
            _, report = sgps_run(den, op, y, run_cfg(5, **kw), RngStream(15, 0))
        assert spy.call_count == estimates
        if kw.get("sure_repeats", 1) < 2:
            assert all(r.sigma_hat_star == r.sigma_hat_raw for r in report.steps)


class TestDeterminism:
    def test_bitwise_reproducible(self):
        den, op, y, x0 = make_task()
        cfg = run_cfg(6)
        xa, ra = sgps_run(den, op, y, cfg, RngStream(15, 0), x_true=x0)
        xb, rb = sgps_run(den, op, y, cfg, RngStream(15, 0), x_true=x0)
        assert np.array_equal(xa.data, xb.data)
        assert ra.step_csv() == rb.step_csv()
        assert (ra.psnr_final, ra.mse_final, ra.total_nfe) == \
            (rb.psnr_final, rb.mse_final, rb.total_nfe)

    def test_zero_alpha_matches_disabled_run(self):
        # probe draws live on their own substream, so alpha = 0 with the
        # correction on must reproduce the correction-off trajectory exactly
        den, op, y, _ = make_task()
        xa, ra = sgps_run(den, op, y, run_cfg(6, alpha=0.0), RngStream(16, 0))
        xb, rb = sgps_run(den, op, y, run_cfg(6, sure_repeats=0), RngStream(16, 0))
        assert np.array_equal(xa.data, xb.data)
        assert ra.total_nfe == 18 and rb.total_nfe == 6

    def test_probe_count_leaves_other_streams_alone(self):
        # more probes consume more draws, but only from the probe substream;
        # the uncorrected twin trajectory must not move
        den, op, y, _ = make_task()
        xa, _ = sgps_run(den, op, y, run_cfg(5, alpha=0.0, mc_probes=1), RngStream(17, 0))
        xb, _ = sgps_run(den, op, y, run_cfg(5, alpha=0.0, mc_probes=4), RngStream(17, 0))
        assert np.array_equal(xa.data, xb.data)

    def test_matches_uncorrected_prefix(self):
        den, op, y, x0 = make_task()
        cfg = run_cfg(6, sure_repeats=0)
        _, report = sgps_run(den, op, y, cfg, RngStream(18, 0), x_true=x0)
        states = chain_prefix(den, op, y, cfg, [RngStream(18, 0)], 6)
        for rec, (sigma_t, x0t, x0ty) in zip(report.steps, states):
            assert rec.sigma_t == sigma_t
            assert rec.psnr_x0t == psnr(Signal(x0t[0], x0.shape), x0)
            assert rec.psnr_x0ty == psnr(Signal(x0ty[0], x0.shape), x0)


class TestReportFields:
    def test_without_truth_psnrs_are_nan(self):
        den, op, y, _ = make_task()
        _, report = sgps_run(den, op, y, run_cfg(4), RngStream(19, 0))
        assert math.isnan(report.psnr_final)
        assert math.isnan(report.mse_final)
        assert all(math.isnan(r.psnr_x0t) for r in report.steps)

    def test_with_truth_final_fields(self):
        den, op, y, x0 = make_task()
        xf, report = sgps_run(den, op, y, run_cfg(6), RngStream(20, 0), x_true=x0)
        d = xf.data - x0.data
        assert report.mse_final == pytest.approx(float(d @ d) / d.size, rel=1e-12)
        assert report.psnr_final == psnr(xf, x0)


class TestInfluxTrace:
    def test_csv_layout_and_pairing(self):
        den, op, y, x0 = make_task()
        cfg = run_cfg(5)
        trace = noise_influx_trace(den, op, y, cfg, RngStream(21, 0), x_true=x0)
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(INFLUX_CSV_COLUMNS)
        assert len(lines) == 6
        first = lines[1].split(",")
        # identical seeds: the two runs share the first denoised estimate
        cols = {c: i for i, c in enumerate(INFLUX_CSV_COLUMNS)}
        assert first[cols["psnr_x0t_with"]] == first[cols["psnr_x0t_without"]]
        sigmas = build_schedule(cfg.steps, T_MIN, cfg.t_max, RHO)
        for k, row in enumerate(lines[1:]):
            parts = row.split(",")
            assert float(parts[cols["sigma_t"]]) == float(sigmas[k])
        w, wo = trace.mean_sigma_hat()
        assert w == pytest.approx(
            np.mean([r.sigma_hat_star for r in trace.report_with.steps]), rel=1e-12
        )
        assert wo == pytest.approx(
            np.mean([r.sigma_hat_star for r in trace.report_without.steps]), rel=1e-12
        )

    def test_budgets_differ_between_twins(self):
        den, op, y, _ = make_task()
        trace = noise_influx_trace(den, op, y, run_cfg(5), RngStream(22, 0))
        assert trace.report_with.total_nfe == 15
        assert trace.report_without.total_nfe == 5

    def test_uncorrected_cfg_is_rejected(self):
        # with sure_repeats = 0 both arms would be the same uncorrected run
        den, op, y, _ = make_task()
        with pytest.raises(ConfigError, match="sure_repeats"):
            noise_influx_trace(den, op, y, run_cfg(5, sure_repeats=0), RngStream(22, 0))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_guidance_divergence_is_labeled_with_sampler_step():
    den, op, y, _ = make_task()
    cfg = SamplerConfig(
        steps=4, t_max=4.0, sigma_y=1e-4, langevin_eta=50.0, langevin_steps=2000
    )
    with pytest.raises(DivergenceError) as err:
        sgps_run(den, op, y, cfg, RngStream(23, 0))
    assert err.value.stage == "guidance"
    assert err.value.step_index == 1


def test_blur_guidance_divergence_is_typed_and_silent():
    # a step far above the default 0.5 * sigma_y^2 / lipschitz_bound blows
    # the blurred iterate up; the guide reports it as a divergence, and
    # numpy prints nothing
    den, _, _, _ = make_task()
    op = BlurOp((16, 16), gaussian_kernel(5, 1.2, 2))
    y = op.apply(smooth_field(RngStream(72, 0), (16, 16), 0.5))
    cfg = run_cfg(4, langevin_eta=100.0 / op.lipschitz_bound, langevin_steps=100)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as err:
            sgps_run(den, op, y, cfg, RngStream(27, 0))
    assert err.value.stage == "guidance"
    assert err.value.step_index == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class _FailingDenoiser(Denoiser):
    """Denoiser whose every call fails the way `fail(x)` does."""

    def __init__(self, fail):
        self.fail = fail

    def denoise(self, xs, sigmas):
        return self.fail(xs)

    def jacobian_vjp(self, xs, sigmas, vs):
        return self.fail(xs)


def test_non_finite_denoise_is_labeled_with_sampler_step():
    # the ladder's denoised row is checked once, after its last substep
    _, op, y, _ = make_task()
    den = _FailingDenoiser(lambda xs: np.full(xs.shape, np.nan))
    for substeps in (1, 2):
        with pytest.raises(DivergenceError) as err:
            sgps_run(den, op, y, run_cfg(4, ode_substeps=substeps), RngStream(24, 0))
        assert err.value.stage == "denoise"
        assert err.value.step_index == 1


class _ProbeNaNDenoiser(GmmDenoiser):
    """Mixture denoiser that returns NaN at every risk probe point: a run
    denoises its ladder row alone, and the risk's base point in one call
    with its probe points, which follow it."""

    def denoise(self, xs, sigmas):
        out = super().denoise(xs, sigmas)
        out[1:] = np.nan
        return out


def test_non_finite_probe_output_is_labeled_sure_value():
    den, op, y, _ = make_task()
    with pytest.raises(DivergenceError) as err:
        sgps_run(_ProbeNaNDenoiser(den.prior), op, y, run_cfg(4), RngStream(24, 0))
    assert err.value.stage == "sure-value"
    assert err.value.step_index == 1


@pytest.mark.parametrize("failing_call", [0, 1, 2])
def test_estimator_failure_is_labeled_with_sampler_step(failing_call):
    # per corrected step: the raw estimate, the second repeat's, the final one
    den, op, y, _ = make_task()
    results = [0.1, 0.1, 0.1]
    results[failing_call] = NonFiniteError("patch covariance is not finite")
    with mock.patch.object(sgps.sampler, "estimate_sigma", side_effect=results):
        with pytest.raises(DivergenceError) as err:
            sgps_run(den, op, y, run_cfg(4, sure_repeats=2), RngStream(26, 0))
    assert err.value.stage == "estimate"
    assert err.value.step_index == 1


def test_error_mentioning_finite_is_not_relabeled():
    _, op, y, _ = make_task()
    cause = SgpsError("window must be finite")

    def fail(x):
        raise cause

    with pytest.raises(SgpsError) as err:
        sgps_run(_FailingDenoiser(fail), op, y, run_cfg(4), RngStream(25, 0))
    assert err.value is cause


def mixture_sr_task(shape=(64, 64), k=6):
    """2x super-resolution under a k-component smooth-mean mixture."""
    root = RngStream(81, 0)
    means = np.stack([smooth_field(root.substream(j), shape, 0.5).data for j in range(k)])
    prior = GmmPrior(np.full(k, 1.0 / k), means, 0.02, shape)
    op = DownsampleOp(shape, 2)
    x0 = prior.draw(RngStream(81, 1))
    clean = op.apply(x0)
    y = clean.with_data(clean.data + 0.05 * RngStream(81, 2).normal(clean.n))
    return GmmDenoiser(prior), op, y, x0


def spy_guide(monkeypatch) -> list:
    """Record (guide streams, whether a worker draws ahead of the call) of
    every guide call the sampler makes."""
    calls = []
    guide = sgps.sampler.langevin_guide

    def spy(*args, **kw):
        calls.append((args[6], args[6]._thread is not None))
        return guide(*args, **kw)

    monkeypatch.setattr(sgps.sampler, "langevin_guide", spy)
    return calls


def in_call_draws(monkeypatch):
    """The serial baseline: with NOISE_BYTES above every level a walk makes
    no worker, so the guide draws every row's noise itself, in one chunk a
    level; chunking does not change the draws."""
    monkeypatch.setattr(sgps.guidance, "NOISE_BYTES", 1 << 62)


def drawn_in_order(log, rows, steps, n, depth) -> bool:
    """Whether no stream in the DrawLog log was drawn by two threads at once
    and each had its chunks drawn in order: every level's chunks, as the
    guide cuts them, one level after another."""
    chunk = max(1, min(steps, sgps.guidance.NOISE_BYTES // (8 * rows * n)))
    sizes = [min(chunk, steps - s) * n for s in range(0, steps, chunk)] * depth
    return log.overlaps == [] and all(got == sizes for got in log.sizes.values())


def prefix_bytes(states) -> bytes:
    return b"".join(a.tobytes() for _, x0t, x0ty in states for a in (x0t, x0ty))


class TestGuideNoisePrefetch:
    """A walk whose one level of guide noise lies above NOISE_BYTES and at
    most PREFETCH_BYTES has its worker keep up to a level drawn ahead of
    the guide; every bit, every stream and every error is as with the
    guide's own draws, and each stream is drawn in order, by one thread at
    a time."""

    def test_run_bytes_equal_in_call_draws(self, monkeypatch, watch_draws):
        # one row of 4096 pixels and 100 iterations: 3.1 MiB a level
        den, op, y, x0 = mixture_sr_task()
        cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.05, langevin_steps=100)
        calls = spy_guide(monkeypatch)
        xa, ra = sgps_run(den, op, y, cfg, RngStream(82, 0), x_true=x0)
        assert [worker for _, worker in calls] == [True] * 4
        assert drawn_in_order(watch_draws, 1, 100, 4096, 4)
        in_call_draws(monkeypatch)
        xb, rb = sgps_run(den, op, y, cfg, RngStream(82, 0), x_true=x0)
        assert [worker for _, worker in calls[4:]] == [False] * 4
        assert xa.data.tobytes() == xb.data.tobytes()
        assert ra.step_csv() == rb.step_csv()

    def test_chain_prefix_bytes_equal_in_call_draws(self, monkeypatch, watch_draws):
        # 8 rows of 256 pixels and 100 iterations: 1.6 MB a level
        den, op, y, _ = make_task()
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=100)
        rngs = lambda: [RngStream(83, b) for b in range(8)]  # noqa: E731
        calls = spy_guide(monkeypatch)
        pre = prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 4))
        assert drawn_in_order(watch_draws, 8, 100, 256, 4)
        in_call_draws(monkeypatch)
        assert prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 4)) == pre
        assert [worker for _, worker in calls] == [True] * 4 + [False] * 4

    def test_one_cpu_draws_ahead_too(self, monkeypatch, watch_draws):
        # a process on one CPU makes the worker as any other: 8 rows of 256
        # pixels and 100 iterations, 1.6 MB a level
        den, op, y, _ = make_task()
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=100)
        rngs = lambda: [RngStream(89, b) for b in range(8)]  # noqa: E731
        calls = spy_guide(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        ahead = prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 2))
        assert [worker for _, worker in calls] == [True] * 2
        assert drawn_in_order(watch_draws, 8, 100, 256, 2)
        in_call_draws(monkeypatch)
        assert prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 2)) == ahead

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_guide_streams_advance_by_the_iterations_walked(self, prefetch, monkeypatch):
        # nothing is drawn past the last level walked, and nothing is skipped
        den, op, y, _ = make_task()
        cfg = run_cfg(6, sure_repeats=0, langevin_steps=100)
        depth, n = 3, 256
        calls = spy_guide(monkeypatch)
        if not prefetch:
            in_call_draws(monkeypatch)
        chain_prefix(den, op, y, cfg, [RngStream(84, b) for b in range(8)], depth)
        assert [worker for _, worker in calls] == [prefetch] * depth
        for b, r in enumerate(calls[0][0]):
            fresh = RngStream(84, b).substream(STREAM_GUIDE)
            fresh.normal(depth * cfg.langevin_steps * n)
            assert r.normal(1)[0] == fresh.normal(1)[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_reports_the_in_call_stage_and_step(self, monkeypatch):
        # a fixed step that is stable at the first two levels and overflows
        # at the third; 1024 pixels and 200 iterations: 1.6 MB a level
        den, op, y, _ = make_task(shape=(32, 32))
        sigmas = build_schedule(4, T_MIN, 40.0, RHO)
        cfg = SamplerConfig(steps=4, t_max=40.0, sigma_y=100.0, langevin_steps=200,
                            langevin_eta=1.5 * float(sigmas[1]) ** 2)
        calls = spy_guide(monkeypatch)
        before = threading.active_count()
        errors = []
        for prefetch in (True, False):
            if not prefetch:
                in_call_draws(monkeypatch)
            with pytest.raises(DivergenceError) as err:
                sgps_run(den, op, y, cfg, RngStream(85, 0))
            errors.append((err.value.stage, err.value.step_index, str(err.value)))
        assert [worker for _, worker in calls] == [True] * 3 + [False] * 3
        assert errors[0] == errors[1]
        assert errors[0][:2] == ("guidance", 3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing_fill", [0, 2])
    def test_a_failing_fill_surfaces_from_the_walk(self, failing_fill, monkeypatch):
        den, op, y, _ = make_task()
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=100)
        fill = RngStream.normal_into
        worker_fills = []

        def spy(self, out):
            if threading.current_thread() is not threading.main_thread():
                worker_fills.append(out.size)
                if len(worker_fills) > 8 * failing_fill:
                    raise RuntimeError("fill failed")
            fill(self, out)

        monkeypatch.setattr(RngStream, "normal_into", spy)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fill failed"):
            chain_prefix(den, op, y, cfg, [RngStream(86, b) for b in range(8)], 4)
        # the first row of the failing level's fill raised
        assert len(worker_fills) == 8 * failing_fill + 1
        assert threading.active_count() == before

    def test_a_walk_that_raises_waits_for_its_pending_fill(self, monkeypatch):
        # the finish of level 0 raises while the worker is held inside its
        # first fill of level 1's block; leaving the walk waits for that
        # fill, and a closed walk starts at most one more
        den, op, y, _ = make_task()
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=100)
        fill = RngStream.normal_into
        held, release = threading.Event(), threading.Event()
        lock = threading.Lock()
        per_stream, worker_fills, at_raise = {}, [], []

        def spy(self, out):
            with lock:
                k = per_stream[self.stream_id] = per_stream.get(self.stream_id, 0) + 1
            if threading.current_thread() is not threading.main_thread():
                worker_fills.append(out.size)
                # a stream's third fill is its first chunk of level 1
                if k > 2 and not held.is_set():
                    held.set()
                    release.wait(timeout=30)
            fill(self, out)

        def finish(k, sigma_t, x0t, x0ty):
            assert held.wait(timeout=30)
            at_raise.append(len(worker_fills))
            release.set()
            raise ValueError("finish failed")

        monkeypatch.setattr(RngStream, "normal_into", spy)
        before = threading.active_count()
        with pytest.raises(ValueError, match="finish failed"):
            sgps.sampler.walk_ladder(den, op, y, cfg, [RngStream(87, b) for b in range(8)],
                                     finish, 3)
        assert threading.active_count() == before
        assert len(worker_fills) - at_raise[0] <= 1

    def test_threads_after_walks_that_succeed(self):
        den, op, y, _ = make_task()
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=100)
        before = threading.active_count()
        for seed in range(3):
            chain_prefix(den, op, y, cfg, [RngStream(88 + seed, b) for b in range(8)], 3)
        assert threading.active_count() == before

    def test_concurrent_walks_equal_serial_bytes(self, watch_draws):
        concurrent_walks_equal_serial_bytes()
        assert watch_draws.overlaps == []


def concurrent_walks_equal_serial_bytes():
    """4 threads of 3 walks each, each walk with its own worker, under a
    switch interval short enough to interleave them within every fill; each
    walk has 2 rows of 1024 pixels and 100 iterations, 1.6 MB a level."""
    cfg = run_cfg(4, sure_repeats=0, langevin_steps=100)

    def walk(task, seed):
        den, op, y, _ = task
        rngs = [RngStream(seed, b) for b in range(2)]
        return prefix_bytes(chain_prefix(den, op, y, cfg, rngs, 3))

    serial = {seed: walk(make_task(shape=(32, 32)), seed) for seed in range(12)}
    results, errors = {}, []

    def run(t):
        try:
            task = make_task(shape=(32, 32))
            for seed in range(3 * t, 3 * t + 3):
                results[seed] = walk(task, seed)
        except BaseException as e:  # reported by the main thread
            errors.append(e)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not [th for th in threads if th.is_alive()]
    assert errors == []
    assert results == serial
    assert threading.active_count() == before


def test_threads_sharing_one_denoiser_equal_serial_bytes():
    # 4 threads of 4 corrected runs each through one mixture denoiser, under
    # a switch interval short enough to interleave them within every
    # denoiser call; each thread keeps its own latest call, so every run
    # has the bytes it has alone
    den, op, y, x0 = mixture_sr_task(shape=(16, 16))
    cfg = run_cfg(4, sure_repeats=2)

    def run(seed):
        x, report = sgps_run(den, op, y, cfg, RngStream(seed, 0), x_true=x0)
        return x.data.tobytes() + report.step_csv().encode()

    serial = {seed: run(seed) for seed in range(16)}
    results, errors = {}, []

    def work(t):
        try:
            for seed in range(4 * t, 4 * t + 4):
                results[seed] = run(seed)
        except BaseException as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not [th for th in threads if th.is_alive()]
    assert errors == []
    assert results == serial


def kl_task():
    """kl-trend-16's task: a 16x16 identity chain under a one-component
    smooth prior, 100 Langevin iterations a level."""
    shape = (16, 16)
    prior = GmmPrior(np.array([1.0]), smooth_field(RngStream(77, 0), shape, 0.5).data[None, :],
                     0.04, shape)
    op = identity_op(shape)
    g = RngStream(1, 1)
    y = op.apply(Signal(prior.means[0] + 0.2 * g.normal(prior.n), shape))
    y = y.with_data(y.data + 0.1 * g.normal(y.n))
    return GmmDenoiser(prior), prior, op, y, SamplerConfig(steps=12, t_max=12.0, sigma_y=0.1)


class TestGuideNoiseSplit:
    """A walk whose one level of guide noise lies above PREFETCH_BYTES has
    its worker keep up to two chunks drawn ahead of the guide, and the guide
    draws any row of the chunk it needs that is not drawn yet; every bit,
    every stream and every error is as with the guide's own draws, and each
    stream is drawn in order, by one thread at a time."""

    def test_chain_prefix_bytes_equal_in_call_draws(self, monkeypatch, watch_draws):
        # 40 rows of 256 pixels and 100 iterations: 7.8 MiB a level, drawn in
        # chunks of 12 iterations and a last one of 4
        den, op, y, _ = make_task()
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=100)
        rngs = lambda: [RngStream(90, b) for b in range(40)]  # noqa: E731
        calls = spy_guide(monkeypatch)
        before = threading.active_count()
        split = prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 3))
        assert threading.active_count() == before
        assert drawn_in_order(watch_draws, 40, 100, 256, 3)
        in_call_draws(monkeypatch)
        assert prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 3)) == split
        assert [worker for _, worker in calls] == [True] * 3 + [False] * 3

    def test_kl_trend_trials_equal_in_call_draws(self, monkeypatch, watch_draws):
        # one criterion-10 trial of 40 chains, as the kl-trend-16 workload
        den, prior, op, y, cfg = kl_task()
        calls = spy_guide(monkeypatch)
        split = kl_trend_trials(den, prior, op, y, cfg, PatchConfig(), trials=1, samples=40,
                                depth=3, seed=13)
        assert drawn_in_order(watch_draws, 40, cfg.langevin_steps, 256, 3)
        in_call_draws(monkeypatch)
        own = kl_trend_trials(den, prior, op, y, cfg, PatchConfig(), trials=1, samples=40,
                              depth=3, seed=13)
        assert [worker for _, worker in calls] == [True] * 3 + [False] * 3
        assert split.tobytes() == own.tobytes()

    @pytest.mark.parametrize("rows", [3, 33])
    def test_an_odd_row_count_equals_in_call_draws(self, rows, monkeypatch, watch_draws):
        # 3 rows of 1024 pixels and 200 iterations (4.7 MiB a level) and 33
        # rows of 256 and 100 (6.4 MiB)
        shape, steps = ((32, 32), 200) if rows == 3 else ((16, 16), 100)
        den, op, y, _ = make_task(shape=shape)
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=steps)
        rngs = lambda: [RngStream(91, b) for b in range(rows)]  # noqa: E731
        calls = spy_guide(monkeypatch)
        split = prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 2))
        assert drawn_in_order(watch_draws, rows, steps, math.prod(shape), 2)
        in_call_draws(monkeypatch)
        assert prefix_bytes(chain_prefix(den, op, y, cfg, rngs(), 2)) == split
        assert [worker for _, worker in calls] == [True] * 2 + [False] * 2

    def test_guide_streams_advance_by_the_iterations_walked(self, monkeypatch):
        den, op, y, _ = make_task()
        cfg = run_cfg(6, sure_repeats=0, langevin_steps=100)
        depth, n = 2, 256
        calls = spy_guide(monkeypatch)
        chain_prefix(den, op, y, cfg, [RngStream(92, b) for b in range(40)], depth)
        assert [worker for _, worker in calls] == [True] * depth
        for b, r in enumerate(calls[0][0]):
            fresh = RngStream(92, b).substream(STREAM_GUIDE)
            fresh.normal(depth * cfg.langevin_steps * n)
            assert r.normal(1)[0] == fresh.normal(1)[0]

    @pytest.mark.parametrize("failing_chunk", [0, 3])
    def test_a_failing_worker_fill_surfaces_from_the_walk(self, failing_chunk, monkeypatch):
        # the worker's fill after its first 20 * failing_chunk raises, and
        # the worker draws nothing after it
        den, op, y, _ = make_task()
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=100)
        fill = RngStream.normal_into
        worker_fills = []

        def spy(self, out):
            if threading.current_thread() is not threading.main_thread():
                worker_fills.append(out.size)
                if len(worker_fills) > 20 * failing_chunk:
                    raise RuntimeError("fill failed")
            fill(self, out)

        monkeypatch.setattr(RngStream, "normal_into", spy)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fill failed"):
            chain_prefix(den, op, y, cfg, [RngStream(93, b) for b in range(40)], 3)
        assert len(worker_fills) == 20 * failing_chunk + 1
        assert threading.active_count() == before

    def test_concurrent_walks_equal_serial_bytes(self, monkeypatch, watch_draws):
        # the walks' 1.6 MB levels take the two-chunk ring with the window
        # lowered below them
        monkeypatch.setattr(sgps.guidance, "PREFETCH_BYTES", sgps.guidance.NOISE_BYTES)
        calls = spy_guide(monkeypatch)
        concurrent_walks_equal_serial_bytes()
        assert {worker for _, worker in calls} == {True}
        assert watch_draws.overlaps == []

    def test_a_one_row_walk_above_the_window_draws_ahead(self, monkeypatch, watch_draws):
        # 4096 pixels and 130 iterations: 4.1 MiB a level on one row, whose
        # chunks the worker draws ahead of the guide
        den, op, y, _ = make_task(shape=(64, 64))
        cfg = run_cfg(5, sure_repeats=0, langevin_steps=130)
        assert 8 * 4096 * 130 > sgps.guidance.PREFETCH_BYTES
        calls = spy_guide(monkeypatch)
        before = threading.active_count()
        ahead = prefix_bytes(chain_prefix(den, op, y, cfg, [RngStream(94, 0)], 2))
        assert threading.active_count() == before
        assert drawn_in_order(watch_draws, 1, 130, 4096, 2)
        in_call_draws(monkeypatch)
        assert prefix_bytes(chain_prefix(den, op, y, cfg, [RngStream(94, 0)], 2)) == ahead
        assert [worker for _, worker in calls] == [True] * 2 + [False] * 2
