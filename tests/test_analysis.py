"""Diagnostics: Gaussian divergences, posterior oracle, moment checks, and
the small experiment drivers."""
import math
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sgps.analysis
import sgps.sampler
from sgps.analysis import (
    chain_prefix,
    fit_isotropic_gaussian,
    gaussian_w2,
    kl_gaussian,
    kl_trend_trials,
    linear_gaussian_posterior,
    loglog_slope,
    normality_report,
    qq_correlation_threshold,
    sigma_sweep,
    smooth_field,
    w2_scaling_curve,
)
from sgps.core import RngStream, SamplerConfig, SgpsError, Signal
from sgps.guidance import langevin_guide
from sgps.noise_est import PatchConfig
from sgps.operators import BlurOp, MaskOp, gaussian_kernel, identity_op
from sgps.prior import GmmDenoiser, GmmPrior


class TestGaussianDivergences:
    def test_w2_formula(self):
        a = np.array([1.0, 2.0])
        b = np.array([0.0, 0.0])
        # ||a||^2 + 2 (0.5 - 0.2)^2
        assert gaussian_w2(a, 0.5, b, 0.2) == pytest.approx(5.0 + 2 * 0.09, rel=1e-12)

    def test_w2_zero_on_equal(self):
        m = np.array([0.3, -0.1, 2.0])
        assert gaussian_w2(m, 0.7, m.copy(), 0.7) == 0.0

    def test_w2_validation(self):
        with pytest.raises(SgpsError):
            gaussian_w2(np.zeros(2), -0.1, np.zeros(2), 0.1)
        with pytest.raises(SgpsError):
            gaussian_w2(np.zeros(2), 0.1, np.zeros(3), 0.1)

    def test_kl_zero_on_equal_and_positive_otherwise(self):
        m = np.array([0.5, 1.5])
        assert kl_gaussian(m, 0.4, m.copy(), 0.4) == 0.0
        assert kl_gaussian(m, 0.4, m + 0.1, 0.5) > 0.0

    def test_kl_scalar_case(self):
        # n = 1: log(sp/sq) + sq^2 / (2 sp^2) - 1/2 + (mq - mp)^2 / (2 sp^2)
        got = kl_gaussian(np.array([1.0]), 0.3, np.array([0.2]), 0.5)
        want = np.log(0.5 / 0.3) + 0.09 / 0.5 - 0.5 + 0.64 / 0.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_kl_asymmetric(self):
        a = np.zeros(3)
        assert kl_gaussian(a, 0.2, a, 0.6) != pytest.approx(kl_gaussian(a, 0.6, a, 0.2))

    def test_kl_validation(self):
        with pytest.raises(SgpsError):
            kl_gaussian(np.zeros(2), 0.0, np.zeros(2), 0.1)


class TestFitAndSlope:
    def test_fit_recovers_constructed_moments(self):
        g = RngStream(2, 0)
        mu = g.normal(6)
        x = mu + 0.3 * RngStream(2, 1).standard_normal((4000, 6))
        got_mu, got_sd = fit_isotropic_gaussian(x)
        assert np.max(np.abs(got_mu - mu)) < 0.03
        assert got_sd == pytest.approx(0.3, abs=0.01)

    def test_fit_exact_definition(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        mu, sd = fit_isotropic_gaussian(x)
        np.testing.assert_array_equal(mu, [1.0, 1.0])
        assert sd == 1.0

    def test_fit_validation(self):
        with pytest.raises(SgpsError):
            fit_isotropic_gaussian(np.zeros(5))
        with pytest.raises(SgpsError):
            fit_isotropic_gaussian(np.zeros((1, 5)))

    def test_loglog_slope_exact_power_law(self):
        xs = np.array([0.5, 1.0, 2.0, 4.0])
        ys = 3.0 * xs**-1.7
        assert loglog_slope(xs, ys) == pytest.approx(-1.7, rel=1e-12)

    def test_loglog_slope_validation(self):
        with pytest.raises(SgpsError):
            loglog_slope([1.0], [1.0])


class TestLinearGaussianPosterior:
    def setup_method(self):
        n = 16
        g = RngStream(9, 0)
        self.mean = g.normal(n)
        self.s2 = 0.25
        self.prior = GmmPrior(np.array([1.0]), self.mean[None, :], self.s2, (n,))
        self.sy = 0.1
        self.n = n

    def test_identity_coordinatewise(self):
        op = identity_op((self.n,))
        y = Signal(RngStream(9, 1).normal(self.n), (self.n,))
        mu, cov = linear_gaussian_posterior(self.prior, op, y, self.sy)
        prec = 1.0 / self.s2 + 1.0 / self.sy**2
        want = (self.mean / self.s2 + y.data / self.sy**2) / prec
        np.testing.assert_allclose(mu.data, want, rtol=1e-10)
        np.testing.assert_allclose(np.diag(cov), 1.0 / prec, rtol=1e-10)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-12

    def test_mask_split(self):
        keep = np.array([1, 4, 7, 12])
        op = MaskOp((self.n,), keep)
        y = Signal(RngStream(9, 2).normal(keep.size), (keep.size,))
        mu, cov = linear_gaussian_posterior(self.prior, op, y, self.sy)
        prec = 1.0 / self.s2 + 1.0 / self.sy**2
        for i in range(self.n):
            if i in keep:
                j = int(np.where(keep == i)[0][0])
                want = (self.mean[i] / self.s2 + y.data[j] / self.sy**2) / prec
                assert mu.data[i] == pytest.approx(want, rel=1e-10)
                assert cov[i, i] == pytest.approx(1.0 / prec, rel=1e-10)
            else:
                assert mu.data[i] == pytest.approx(self.mean[i], rel=1e-10)
                assert cov[i, i] == pytest.approx(self.s2, rel=1e-10)

    def test_blur_spectral(self):
        # wrap-around blur is circulant, so the posterior diagonalizes in
        # the Fourier basis; compare against that independent route
        op = BlurOp((self.n,), gaussian_kernel(5, 1.0, 1))
        e0 = np.zeros(self.n)
        e0[0] = 1.0
        col = op.apply(Signal(e0, (self.n,))).data
        chat = np.fft.fft(col)
        x_true = smooth_field(RngStream(9, 3), (self.n,), 0.5)
        yv = op.apply(x_true)
        y = yv.with_data(yv.data + self.sy * RngStream(9, 4).normal(self.n))
        mu, cov = linear_gaussian_posterior(self.prior, op, y, self.sy)
        denom = 1.0 / self.s2 + np.abs(chat) ** 2 / self.sy**2
        numer = np.fft.fft(self.mean) / self.s2 + np.conj(chat) * np.fft.fft(y.data) / self.sy**2
        want_mu = np.fft.ifft(numer / denom).real
        np.testing.assert_allclose(mu.data, want_mu, rtol=1e-9, atol=1e-12)
        want_diag = float(np.mean(1.0 / denom))
        np.testing.assert_allclose(np.diag(cov), want_diag, rtol=1e-9)

    def test_rejects_multimodal_or_nonlinear(self):
        two = GmmPrior(
            np.array([0.5, 0.5]), np.stack([self.mean, -self.mean]), self.s2, (self.n,)
        )
        op = identity_op((self.n,))
        y = Signal(np.zeros(self.n), (self.n,))
        with pytest.raises(SgpsError):
            linear_gaussian_posterior(two, op, y, self.sy)

    def test_rejects_operator_of_another_length(self):
        op = identity_op((self.n + 1,))
        y = Signal(np.zeros(self.n + 1), (self.n + 1,))
        with pytest.raises(SgpsError):
            linear_gaussian_posterior(self.prior, op, y, self.sy)


class TestNormality:
    def test_moments_match_scipy(self):
        x = RngStream(4, 0).normal(5000) ** 2
        rep = normality_report(x)
        assert rep.skewness == pytest.approx(scipy.stats.skew(x), rel=1e-10)
        assert rep.excess_kurtosis == pytest.approx(
            scipy.stats.kurtosis(x, fisher=True), rel=1e-10
        )
        assert rep.count == 5000

    def test_gaussian_scores_higher_than_heavy_tailed(self):
        g = RngStream(5, 0)
        gauss = normality_report(g.normal(2000))
        expo = normality_report(np.exp(RngStream(5, 1).normal(2000)))
        assert gauss.qq_correlation > 0.999
        assert expo.qq_correlation < gauss.qq_correlation

    def test_validation(self):
        with pytest.raises(SgpsError):
            normality_report(np.zeros(50))
        with pytest.raises(SgpsError):
            normality_report(np.ones(200))

    def test_threshold_below_one_and_ordered(self):
        lo = qq_correlation_threshold(400, 200, 0.005, RngStream(6, 0))
        mid = qq_correlation_threshold(400, 200, 0.5, RngStream(6, 0))
        assert 0.9 < lo < mid < 1.0

    def test_qq_correlation_pinned(self):
        # exact bits: a different normal quantile function or plotting
        # position moves them
        z = RngStream(5, 0).normal(2000)
        assert normality_report(z).qq_correlation == 0.9996658229872415
        thr = qq_correlation_threshold(n=200, trials=50, quantile=0.05, rng=RngStream(7, 0))
        assert thr == 0.9924148622064436


class TestSmoothField:
    def test_deterministic_and_shaped(self):
        a = smooth_field(RngStream(7, 0), (12, 10), 0.5)
        b = smooth_field(RngStream(7, 0), (12, 10), 0.5)
        assert a.shape == (12, 10)
        assert np.array_equal(a.data, b.data)

    def test_amplitude_scales_linearly(self):
        a = smooth_field(RngStream(7, 1), (32,), 0.5)
        b = smooth_field(RngStream(7, 1), (32,), 1.0)
        np.testing.assert_allclose(2.0 * a.data, b.data, rtol=1e-12)

    def test_one_dimensional_branch(self):
        a = smooth_field(RngStream(7, 2), (40,))
        assert a.shape == (40,)
        assert np.all(np.isfinite(a.data))


class TestSigmaSweep:
    def test_row_schema_and_consistency(self):
        rows = sigma_sweep((0.1, 0.2), images=4, shape=(32, 32), patch=PatchConfig(), seed=3)
        assert [r["sigma"] for r in rows] == [0.1, 0.2]
        for r in rows:
            assert set(r) == {"sigma", "mean_estimate", "rel_error"}
            assert r["mean_estimate"] > 0
            assert r["rel_error"] == pytest.approx(
                r["mean_estimate"] / r["sigma"] - 1.0, rel=1e-12
            )

    def test_deterministic_in_seed(self):
        a = sigma_sweep((0.1,), images=3, shape=(32, 32), patch=PatchConfig(), seed=8)
        b = sigma_sweep((0.1,), images=3, shape=(32, 32), patch=PatchConfig(), seed=8)
        assert a == b


class TestW2Curve:
    def test_quadratic_scaling_smoke(self):
        n = 16
        op = identity_op((n,))
        anchor = Signal(np.zeros(n), (n,))
        y = Signal(np.full(n, 3.0), (n,))
        cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.7)
        curve = w2_scaling_curve(op, y, anchor, 1.0, cfg, (0.2, 0.1, 0.05), 600, seed=41)
        etas = [c[0] for c in curve]
        vals = [c[1] for c in curve]
        assert all(v > 0 for v in vals)
        assert 1.5 < loglog_slope(etas, vals) < 2.5


    def test_batched_curve_equals_loop_of_single_chains(self):
        n = 6
        op = BlurOp((n,), gaussian_kernel(3, 0.8, 1))
        anchor = Signal(np.linspace(-1.0, 1.0, n), (n,))
        y = Signal(np.full(n, 0.5), (n,))
        cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.7)
        etas, samples, sigma_t = (0.2, 0.05), 50, 0.8
        want = []
        for eta in etas:
            step_cfg = cfg.replace(langevin_steps=1, langevin_eta=eta)
            resid = np.empty((samples, n))
            for i in range(samples):
                rng = RngStream(9, i)
                x0 = anchor.data + sigma_t * rng.normal(n)
                x1 = langevin_guide(x0[None], anchor.data[None], sigma_t, op, y, step_cfg, [rng])
                resid[i] = x1[0] - anchor.data
            mu, sd = fit_isotropic_gaussian(resid)
            combined = math.sqrt(sigma_t * sigma_t + 2.0 * eta)
            want.append((eta, gaussian_w2(mu, sd, np.zeros(n), combined)))
        assert w2_scaling_curve(op, y, anchor, sigma_t, cfg, etas, samples, seed=9) == want


@pytest.mark.parametrize("call", [
    lambda den, prior, op, y, cfg: chain_prefix(den, op, y, cfg, [], 3),
    lambda den, prior, op, y, cfg: langevin_guide(np.empty((0, 64)), np.empty((0, 64)), 1.0,
                                                  op, y, cfg, []),
    lambda den, prior, op, y, cfg: kl_trend_trials(den, prior, op, y, cfg, PatchConfig(3),
                                                   trials=1, samples=0, depth=3, seed=1),
    lambda den, prior, op, y, cfg: w2_scaling_curve(op, y, Signal(np.zeros(64), (8, 8)), 1.0,
                                                    cfg, (0.1,), 0, seed=1),
    lambda den, prior, op, y, cfg: sigma_sweep((0.1,), images=0, shape=(8, 8),
                                               patch=PatchConfig(3), seed=1),
], ids=["chain_prefix", "langevin_guide", "kl_trend_trials", "w2_scaling_curve", "sigma_sweep"])
def test_no_chains_is_an_sgps_error(call):
    # each raised ZeroDivisionError or ValueError, or returned nan rows
    with pytest.raises(SgpsError):
        call(*TestChainExperiments().make_task())


def test_one_sample_is_too_few_for_the_w2_fit():
    n = 4
    op = identity_op((n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.7)
    with pytest.raises(SgpsError, match="at least 2 samples"):
        w2_scaling_curve(op, Signal(np.ones(n), (n,)), Signal(np.zeros(n), (n,)), 1.0, cfg,
                         (0.1,), 1, seed=1)


class TestChainExperiments:
    def make_task(self):
        shape = (8, 8)
        mean = smooth_field(RngStream(31, 0), shape, 0.5)
        prior = GmmPrior(np.array([1.0]), mean.data[None, :], 0.04, shape)
        den = GmmDenoiser(prior)
        op = identity_op(shape)
        g = RngStream(31, 1)
        x0 = prior.draw(g)
        yv = op.apply(x0)
        y = yv.with_data(yv.data + 0.1 * g.substream(1).normal(yv.n))
        cfg = SamplerConfig(steps=6, t_max=6.0, sigma_y=0.1, langevin_steps=30)
        return den, prior, op, y, cfg

    def test_chain_prefix_depth_validation(self):
        den, _, op, y, cfg = self.make_task()
        with pytest.raises(SgpsError):
            chain_prefix(den, op, y, cfg, [RngStream(1, 0)], 0)
        with pytest.raises(SgpsError):
            chain_prefix(den, op, y, cfg, [RngStream(1, 0)], 7)

    def test_chain_prefix_schedule_and_shapes(self):
        den, _, op, y, cfg = self.make_task()
        states = chain_prefix(den, op, y, cfg, [RngStream(2, 0)], 3)
        assert len(states) == 3
        assert states[0][0] == pytest.approx(cfg.t_max, rel=1e-12)
        assert all(s[1].shape == (1, 64) and s[2].shape == (1, 64) for s in states)
        assert states[0][0] > states[1][0] > states[2][0]

    def test_chain_prefix_makes_no_estimates(self):
        den, _, op, y, cfg = self.make_task()
        with mock.patch.object(sgps.sampler, "estimate_sigma") as est_sampler, \
                mock.patch.object(sgps.analysis, "estimate_sigma") as est_analysis, \
                mock.patch.object(sgps.sampler, "psnr") as psnr_sampler:
            chain_prefix(den, op, y, cfg, [RngStream(3, 0)], 6)
        assert est_sampler.call_count == 0
        assert est_analysis.call_count == 0
        assert psnr_sampler.call_count == 0

    def test_kl_trend_shape_and_finiteness(self):
        den, prior, op, y, cfg = self.make_task()
        out = kl_trend_trials(
            den, prior, op, y, cfg, PatchConfig(patch_size=3), trials=2, samples=12, depth=3, seed=7
        )
        assert out.shape == (2, 2)
        assert np.all(np.isfinite(out))
        assert np.all(out > 0)

    @settings(max_examples=12, deadline=None)
    @given(
        batch=st.integers(1, 4),
        depth=st.integers(1, 4),
        substeps=st.integers(1, 2),
        blur=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chain_prefix_batch_equals_single_streams(self, batch, depth, substeps, blur, seed):
        den, _, op, y, cfg = self.make_task()
        if blur:
            op = BlurOp(op.input_shape, gaussian_kernel(3, 0.9, 2))
            y = Signal(y.data, op.output_shape)
        cfg = cfg.replace(ode_substeps=substeps, langevin_steps=8)
        rngs = [RngStream(seed, b) for b in range(batch)]
        states = chain_prefix(den, op, y, cfg, rngs, depth)
        assert len(states) == depth
        for b in range(batch):
            single = chain_prefix(den, op, y, cfg, [RngStream(seed, b)], depth)
            for (s_rows, x0t_rows, x0ty_rows), (s, x0t, x0ty) in zip(states, single):
                assert s_rows == s
                assert np.array_equal(x0t_rows[b], x0t[0])
                assert np.array_equal(x0ty_rows[b], x0ty[0])

    @pytest.mark.parametrize("sigma_floor,corrected", [(1e-3, 10), (1e3, 0)])
    def test_kl_trend_runs_one_batch_per_trial(self, sigma_floor, corrected):
        # what a tracer of sgps.analysis's names sees: one chain_prefix call
        # per trial, and one estimate per chain and one update per corrected
        # chain; a chain whose correction is skipped stays as it is
        den, prior, op, y, cfg = self.make_task()
        names = ("chain_prefix", "estimate_sigma", "sure_value", "sure_gradient", "sure_update")
        spies = {name: mock.Mock(side_effect=getattr(sgps.analysis, name)) for name in names}
        with mock.patch.multiple(sgps.analysis, **spies), \
                mock.patch.object(sgps.sampler, "SIGMA_FLOOR", sigma_floor):
            out = kl_trend_trials(den, prior, op, y, cfg, PatchConfig(patch_size=3),
                                  trials=2, samples=5, depth=3, seed=17)
        assert spies["chain_prefix"].call_count == 2
        assert spies["estimate_sigma"].call_count == 10
        for name in ("sure_value", "sure_gradient", "sure_update"):
            assert spies[name].call_count == corrected
        if corrected == 0:
            assert np.array_equal(out[:, 0], out[:, 1])
