"""Sampling loop: evaluation budget, substep ladder, clamping and skipping,
determinism, and the common-random-numbers pairing contract."""
import math
from unittest import mock

import numpy as np
import pytest

import sgps.sampler

from sgps.analysis import chain_prefix, smooth_field
from sgps.core import (
    DivergenceError,
    NonFiniteError,
    RngStream,
    SamplerConfig,
    SgpsError,
    Signal,
    psnr,
)
from sgps.noise_est import PatchConfig
from sgps.operators import identity_op
from sgps.prior import CountingDenoiser, Denoiser, GmmDenoiser, GmmPrior
from sgps.sampler import INFLUX_CSV_COLUMNS, denoise_step, noise_influx_trace, sgps_run
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
        sched = build_schedule(8, 0.02, 8.0, 7.0)
        g = RngStream(1, 0)
        x = Signal(g.normal(256), (16, 16))
        a = denoise_step(den, x, 0.7, 1, sched)
        b = den.denoise(x, 0.7)
        assert np.array_equal(a.data, b.data)

    def test_validation(self):
        den, _, _, _ = make_task()
        sched = build_schedule(8, 0.02, 8.0, 7.0)
        x = Signal(np.zeros(256), (16, 16))
        with pytest.raises(SgpsError):
            denoise_step(den, x, 0.7, 0, sched)
        with pytest.raises(SgpsError):
            denoise_step(den, x, 0.0, 1, sched)

    def test_substep_ladder_converges_to_flow_limit(self):
        # K=1 closed form: running the probability-flow from sigma_t down to
        # the floor and denoising once there lands at
        # m + (x - m) s^2 / (sqrt(s^2 + t_min^2) sqrt(s^2 + sigma_t^2))
        n = 8
        m = np.linspace(-1.0, 1.0, n)
        s2 = 0.8
        prior = GmmPrior(np.array([1.0]), m[None, :], s2, (n,))
        den = GmmDenoiser(prior)
        sched = build_schedule(8, 0.02, 4.0, 7.0)
        sigma_t = 1.5
        x = Signal(m + 1.2 * RngStream(3, 0).normal(n), (n,))
        limit = m + (x.data - m) * s2 / (
            math.sqrt(s2 + sched.t_min**2) * math.sqrt(s2 + sigma_t**2)
        )
        errs = []
        for k in (2, 4, 8, 16, 32):
            out = denoise_step(den, x, sigma_t, k, sched)
            errs.append(float(np.max(np.abs(out.data - limit))))
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
        ],
    )
    def test_budget_law_with_correction(self, steps, substeps, repeats, probes, total):
        den, op, y, _ = make_task()
        counter = CountingDenoiser(den)
        cfg = run_cfg(steps, ode_substeps=substeps, sure_repeats=repeats, mc_probes=probes)
        _, report = sgps_run(counter, op, y, cfg, RngStream(10, 0))
        assert report.total_nfe == total
        assert counter.calls == total
        per_step = substeps + repeats * (1 + probes)
        assert all(r.nfe_step == per_step for r in report.steps)
        assert not any(r.skipped for r in report.steps)

    def test_budget_without_correction(self):
        den, op, y, _ = make_task()
        cfg = run_cfg(7, ode_substeps=2, sure_enabled=False)
        _, report = sgps_run(den, op, y, cfg, RngStream(10, 0))
        assert report.total_nfe == 14
        assert all(r.nfe_step == 2 for r in report.steps)

    def test_total_is_sum_of_steps(self):
        den, op, y, _ = make_task()
        _, report = sgps_run(den, op, y, run_cfg(6), RngStream(11, 0))
        assert report.total_nfe == sum(r.nfe_step for r in report.steps)
        assert report.wall_time > 0.0


class TestClampAndSkip:
    def test_sigma_hat_used_clamped_to_ladder(self):
        den, op, y, _ = make_task()
        cfg = run_cfg(8, sigma_hat_scale=4.0)
        _, report = sgps_run(den, op, y, cfg, RngStream(12, 0))
        bound = 0
        for r in report.steps:
            assert not math.isnan(r.sigma_hat_used)
            assert cfg.sigma_floor <= r.sigma_hat_used <= r.sigma_t + 1e-12
            if r.sigma_hat_used == r.sigma_t:
                bound += 1
        assert bound > 0

    def test_high_floor_skips_every_step(self):
        den, op, y, _ = make_task()
        cfg = run_cfg(6, sigma_floor=5.0)
        _, report = sgps_run(den, op, y, cfg, RngStream(13, 0))
        assert report.total_nfe == 6
        for r in report.steps:
            assert r.skipped
            assert math.isnan(r.sigma_hat_used)
            assert math.isnan(r.sure_value)
            assert r.nfe_step == 1

    def test_correction_disabled_records(self):
        den, op, y, x0 = make_task()
        cfg = run_cfg(6, sure_enabled=False)
        _, report = sgps_run(den, op, y, cfg, RngStream(14, 0), x_true=x0)
        for r in report.steps:
            assert r.psnr_star == r.psnr_x0ty
            assert math.isnan(r.sigma_hat_used)
            assert math.isnan(r.sure_value)
            assert not r.skipped

    @pytest.mark.parametrize("kw,estimates", [
        ({"sure_enabled": False}, 5),
        ({"sigma_floor": 5.0}, 5),  # every step skips
        ({"sure_repeats": 2}, 15),  # guided, after one update, corrected
    ])
    def test_a_sample_that_did_not_move_is_estimated_once(self, kw, estimates):
        # the corrected sample's estimate is the guided one's when no update
        # moved it
        den, op, y, _ = make_task()
        spy = mock.Mock(side_effect=sgps.sampler.estimate_sigma)
        with mock.patch.object(sgps.sampler, "estimate_sigma", spy):
            _, report = sgps_run(den, op, y, run_cfg(5, **kw), RngStream(15, 0))
        assert spy.call_count == estimates
        if "sure_repeats" not in kw:
            assert all(r.sigma_hat_star == r.sigma_hat_raw for r in report.steps)


class TestDeterminism:
    def test_bitwise_reproducible(self):
        den, op, y, x0 = make_task()
        cfg = run_cfg(6)
        xa, ra = sgps_run(den, op, y, cfg, RngStream(15, 0), x_true=x0)
        xb, rb = sgps_run(den, op, y, cfg, RngStream(15, 0), x_true=x0)
        assert np.array_equal(xa.data, xb.data)
        assert ra.step_csv() == rb.step_csv()
        assert ra.summary_fields() == rb.summary_fields()

    def test_zero_alpha_matches_disabled_run(self):
        # probe draws live on their own substream, so alpha = 0 with the
        # correction on must reproduce the correction-off trajectory exactly
        den, op, y, _ = make_task()
        xa, ra = sgps_run(den, op, y, run_cfg(6, alpha=0.0), RngStream(16, 0))
        xb, rb = sgps_run(den, op, y, run_cfg(6, sure_enabled=False), RngStream(16, 0))
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
        cfg = run_cfg(6, sure_enabled=False)
        _, report = sgps_run(den, op, y, cfg, RngStream(18, 0), x_true=x0)
        states = chain_prefix(den, op, y, cfg, [RngStream(18, 0)], 6)
        for rec, (sigma_t, x0t, x0ty) in zip(report.steps, states):
            assert rec.sigma_t == sigma_t
            assert rec.psnr_x0t == psnr(Signal(x0t[0], x0.shape), x0, 1.0)
            assert rec.psnr_x0ty == psnr(Signal(x0ty[0], x0.shape), x0, 1.0)


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
        assert report.psnr_final == psnr(xf, x0, 1.0)


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
        sched = build_schedule(cfg.steps, cfg.t_min, cfg.t_max, cfg.rho)
        for k, row in enumerate(lines[1:]):
            parts = row.split(",")
            assert float(parts[cols["sigma_t"]]) == float(sched.sigmas[k])
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


class _FailingDenoiser(Denoiser):
    """Denoiser whose every call fails the way `fail(x)` does."""

    def __init__(self, fail):
        self.fail = fail

    def denoise(self, x, sigma):
        return self.fail(x)


def test_non_finite_denoise_is_labeled_with_sampler_step():
    _, op, y, _ = make_task()
    den = _FailingDenoiser(lambda x: x.with_data(np.full(x.n, np.nan)))
    with pytest.raises(DivergenceError) as err:
        sgps_run(den, op, y, run_cfg(4), RngStream(24, 0))
    assert err.value.stage == "denoise"
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
