"""End-to-end acceptance checks.

Each test exercises one documented statistical property at its stated
tolerance and prints a single pass/fail line (run with -s to see them all).
Budgets are wall-clock caps for the whole criterion.
"""
import math
import time

import numpy as np
import pytest

from sgps.analysis import (
    chain_prefix,
    kl_trend_trials,
    linear_gaussian_posterior,
    loglog_slope,
    normality_report,
    qq_correlation_threshold,
    sigma_sweep,
    smooth_field,
    w2_scaling_curve,
)
from sgps.core import RngStream, SamplerConfig, Signal
from sgps.guidance import default_eta
from sgps.noise_est import PatchConfig
from sgps.operators import BlurOp, MaskOp, gaussian_kernel, identity_op
from sgps.prior import Denoiser, GmmDenoiser, GmmPrior, LinearDenoiser
from sgps.sampler import noise_influx_trace, sgps_run
from sgps.schedule import build_schedule
from sgps.sure import mc_trace, probe_epsilon, sure_value


def _criterion(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    timely = elapsed < budget
    status = "PASS" if (ok and timely) else "FAIL"
    print(f"criterion {num:02d} {label}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num:02d} {label}: {detail}"
    assert timely, f"criterion {num:02d} over budget: {elapsed:.1f}s >= {budget}s"


def smooth_prior(shape, s2, mean_seed, amplitude=0.5):
    mean = smooth_field(RngStream(mean_seed, 0), shape, amplitude)
    return GmmPrior(np.array([1.0]), mean.data[None, :], s2, shape)


def measure(op, x0, sigma_y, rng):
    clean = op.apply(x0)
    return clean.with_data(clean.data + sigma_y * rng.normal(clean.n))


def test_01_evaluation_budget():
    t0 = time.perf_counter()
    prior = GmmPrior(np.array([1.0]), np.zeros((1, 16)), 1.0, (16,))
    den = GmmDenoiser(prior)
    op = identity_op((16,))
    g = RngStream(1, 0)
    x0 = prior.draw(g)
    y = measure(op, x0, 0.05, g.substream(1))
    totals = {}
    for steps in (16, 33):
        cfg = SamplerConfig(steps=steps, t_max=float(steps), sigma_y=0.05, langevin_steps=10)
        _, report = sgps_run(den, op, y, cfg, RngStream(2, 0))
        totals[steps] = report.total_nfe
        assert not any(r.skipped for r in report.steps)
    elapsed = time.perf_counter() - t0
    ok = totals == {16: 48, 33: 99}
    _criterion(1, "evaluation budget", ok, f"16 steps -> {totals[16]}, 33 -> {totals[33]}", elapsed, 1.0)


def test_02_risk_estimate_unbiased():
    t0 = time.perf_counter()
    n = 64
    g = RngStream(17, 0)
    means = np.stack([np.cumsum(g.normal(n)) * 0.1 for _ in range(3)])
    prior = GmmPrior(np.array([0.5, 0.3, 0.2]), means, 0.25, (n,))
    den = GmmDenoiser(prior)
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.1, mc_probes=1)
    draws = 10_000
    worst = 0.0
    details = []
    for sigma in (0.1, 0.2, 0.4):
        sure_vals = np.empty(draws)
        mse_vals = np.empty(draws)
        for i in range(draws):
            rng = RngStream(5000 + i, 0)
            x0 = prior.draw(rng)
            noisy = x0.with_data(x0.data + sigma * rng.substream(1).normal(n))
            ev = sure_value(den, noisy, sigma, cfg, rng.substream(2))
            sure_vals[i] = ev.value
            d = ev.denoised.data - x0.data
            mse_vals[i] = float(d @ d)
        sem = math.sqrt(sure_vals.var(ddof=1) / draws + mse_vals.var(ddof=1) / draws)
        z = abs(sure_vals.mean() - mse_vals.mean()) / sem
        worst = max(worst, z)
        details.append(f"sigma={sigma}: |z|={z:.2f}")
    elapsed = time.perf_counter() - t0
    _criterion(2, "risk estimate unbiased", worst <= 3.0, "; ".join(details), elapsed, 60.0)


def test_03_trace_probes():
    t0 = time.perf_counter()
    rng = RngStream(7, 0)
    n = 24
    means = rng.standard_normal((3, n)) * 2.0
    prior = GmmPrior(np.array([0.5, 0.3, 0.2]), means, 0.6, (n,))
    den = GmmDenoiser(prior)
    x = Signal(rng.normal(n), (n,))
    sigma = 0.35
    eps = probe_epsilon(x, 1000.0)
    exact = den.jacobian_trace(x, sigma)
    est = mc_trace(den, x, sigma, 1000, eps, rng.substream(1))
    rel = abs(est - exact) / abs(exact)

    # a denoiser-like contraction: diagonally dominant, trace well away
    # from zero so the relative tolerance is meaningful
    m = 0.6 * np.eye(n) + 0.05 * RngStream(7, 9).standard_normal((n, n))
    lin = LinearDenoiser(m)
    lin_exact = float(np.trace(m))
    lin_est = mc_trace(lin, x, sigma, 1000, eps, rng.substream(2))
    lin_rel = abs(lin_est - lin_exact) / abs(lin_exact)

    probe_counts = (10, 40, 160)
    variances = []
    for p in probe_counts:
        vals = [
            mc_trace(den, x, sigma, p, eps, rng.substream(100 + p * 1000 + r))
            for r in range(200)
        ]
        variances.append(np.var(vals, ddof=1))
    slope = loglog_slope(probe_counts, variances)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and lin_rel <= 0.05 and -1.2 <= slope <= -0.8
    detail = f"rel={rel:.4f}, linear rel={lin_rel:.4f}, variance slope={slope:.2f}"
    _criterion(3, "trace probes", ok, detail, elapsed, 30.0)


class _DenoiseOnly(Denoiser):
    def __init__(self, prior):
        self._inner = GmmDenoiser(prior)

    def denoise(self, x, sigma):
        return self._inner.denoise(x, sigma)


def test_04_gradient_analytic_vs_numeric():
    t0 = time.perf_counter()
    from sgps.sure import sure_gradient

    worst = 0.0
    sizes = (8, 16, 32, 64)
    for inst in range(50):
        g = RngStream(1200 + inst, 0)
        n = sizes[inst % 4]
        k = 1 + inst % 3
        gm = RngStream(1300 + inst, 0)
        means = gm.standard_normal((k, n)) * 0.8
        prior = GmmPrior(np.arange(1.0, k + 1.0) / np.arange(1.0, k + 1.0).sum(), means,
                         0.2 + 0.1 * (inst % 2), (n,))
        analytic = GmmDenoiser(prior)
        bare = _DenoiseOnly(prior)
        x = Signal(g.normal(n), (n,))
        sigma = 0.15 + 0.1 * (inst % 4)
        cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.1, mc_probes=1 + inst % 2)
        ev = sure_value(analytic, x, sigma, cfg, g.substream(1))
        ga = sure_gradient(analytic, ev)
        gf = sure_gradient(bare, ev)
        worst = max(worst, float(np.max(np.abs(ga.data - gf.data))))
    elapsed = time.perf_counter() - t0
    _criterion(4, "gradient check", worst <= 1e-4, f"max deviation {worst:.2e}", elapsed, 30.0)


def test_05_noise_floor_scan():
    t0 = time.perf_counter()
    levels = (0.05, 0.1, 0.2, 0.4)
    rows = sigma_sweep(levels, images=100, shape=(64, 64), patch=PatchConfig(), seed=5,
                       amplitude=0.5)
    rels = [r["rel_error"] for r in rows]
    ests = [r["mean_estimate"] for r in rows]
    ok = all(abs(r) <= 0.15 for r in rels) and all(a < b for a, b in zip(ests, ests[1:]))
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{lv}: {100 * r:+.1f}%" for lv, r in zip(levels, rels))
    _criterion(5, "noise floor scan", ok, detail, elapsed, 60.0)


def test_06_ladder_exactness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for steps, t_min, t_max, rho in ((16, 0.02, 16.0, 7.0), (33, 0.02, 33.0, 7.0), (9, 0.05, 4.0, 7.0)):
        s = build_schedule(steps, t_min, t_max, rho)
        end_err = max(abs(s.sigmas[0] - t_max) / t_max, abs(s.sigmas[-1] - t_min) / t_min)
        mono = bool(np.all(np.diff(s.sigmas) < 0))
        ok = ok and end_err <= 1e-12 and mono
        details.append(f"T={steps}: end rel {end_err:.1e}")
    lin = build_schedule(12, 0.1, 3.0, 1.0)
    affine = np.linspace(3.0, 0.1, 12)
    lin_err = float(np.max(np.abs(lin.sigmas - affine)))
    ok = ok and lin_err <= 1e-12 * 3.0
    elapsed = time.perf_counter() - t0
    _criterion(6, "ladder exactness", ok, "; ".join(details) + f"; affine {lin_err:.1e}", elapsed, 1.0)


def test_07_posterior_mean_agreement():
    t0 = time.perf_counter()
    n = 32
    prior = smooth_prior((n,), 0.16, mean_seed=61)
    den = GmmDenoiser(prior)
    ops = {
        "identity": identity_op((n,)),
        "mask": MaskOp((n,), np.sort(RngStream(61, 3).gen.permutation(n)[:24])),
        "blur": BlurOp((n,), gaussian_kernel(5, 0.7, 1)),
    }
    x0 = prior.draw(RngStream(61, 7))
    cfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05)
    runs = 200
    details = []
    ok = True
    for name, op in ops.items():
        y = measure(op, x0, 0.05, RngStream(61, 8))
        post_mean, _ = linear_gaussian_posterior(prior, op, y, 0.05)
        finals = np.empty((runs, n))
        for r in range(runs):
            xf, _ = sgps_run(den, op, y, cfg, RngStream(1000 + r, 0))
            finals[r] = xf.data
        se = finals.std(axis=0, ddof=1) / math.sqrt(runs)
        z = np.abs(finals.mean(axis=0) - post_mean.data) / se
        details.append(f"{name}: max|z|={z.max():.2f}")
        ok = ok and bool(np.all(z <= 3.0))
    elapsed = time.perf_counter() - t0
    _criterion(7, "posterior mean agreement", ok, "; ".join(details), elapsed, 300.0)


def test_08_noise_influx_suppressed():
    t0 = time.perf_counter()
    shape = (24, 24)
    prior = smooth_prior(shape, 0.04, mean_seed=101)
    den = GmmDenoiser(prior)
    op = BlurOp(shape, gaussian_kernel(5, 1.2, 2))
    cfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05)
    seeds = 50
    sig_with = np.empty(seeds)
    sig_without = np.empty(seeds)
    psnr_with = np.empty(seeds)
    psnr_without = np.empty(seeds)
    for s in range(seeds):
        g = RngStream(500 + s, 0)
        x0 = prior.draw(g.substream(9))
        y = measure(op, x0, 0.05, g.substream(10))
        trace = noise_influx_trace(den, op, y, cfg, g, x_true=x0)
        sig_with[s], sig_without[s] = trace.mean_sigma_hat()
        psnr_with[s] = trace.report_with.psnr_final
        psnr_without[s] = trace.report_without.psnr_final
    d_sigma = sig_without.mean() - sig_with.mean()
    d_psnr = psnr_with.mean() - psnr_without.mean()
    ok = sig_with.mean() <= sig_without.mean() and psnr_with.mean() >= psnr_without.mean()
    elapsed = time.perf_counter() - t0
    detail = f"sigma gap {d_sigma:+.4f}, psnr gap {d_psnr:+.2f} dB over {seeds} paired seeds"
    _criterion(8, "noise influx suppressed", ok, detail, elapsed, 600.0)


def test_09_guidance_step_bias_quadratic():
    t0 = time.perf_counter()
    n = 16
    op = identity_op((n,))
    anchor = Signal(np.zeros(n), (n,))
    y = Signal(np.full(n, 3.0), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.7)
    curve = w2_scaling_curve(op, y, anchor, 1.0, cfg, (0.2, 0.1, 0.05, 0.025), 4000, seed=21)
    slope = loglog_slope([c[0] for c in curve], [c[1] for c in curve])
    elapsed = time.perf_counter() - t0
    _criterion(9, "guidance bias quadratic", 1.7 <= slope <= 2.3, f"slope {slope:.3f}", elapsed, 120.0)


def test_10_update_moves_toward_posterior():
    t0 = time.perf_counter()
    shape = (16, 16)
    prior = smooth_prior(shape, 0.04, mean_seed=77)
    den = GmmDenoiser(prior)
    op = identity_op(shape)
    rngy = RngStream(77, 1)
    x0 = Signal(prior.means[0] + math.sqrt(0.04) * rngy.normal(prior.n), shape)
    clean = op.apply(x0)
    y = clean.with_data(clean.data + 0.1 * rngy.normal(clean.n))
    cfg = SamplerConfig(steps=12, t_max=12.0, sigma_y=0.1)
    out = kl_trend_trials(den, prior, op, y, cfg, PatchConfig(), trials=100, samples=40,
                          depth=8, seed=13)
    frac = float(np.mean(out[:, 1] < out[:, 0]))
    elapsed = time.perf_counter() - t0
    detail = f"KL fell in {100 * frac:.0f}% of trials (mean {out[:, 0].mean():.2f} -> {out[:, 1].mean():.2f})"
    _criterion(10, "update moves toward posterior", frac >= 0.8, detail, elapsed, 300.0)


def test_11_hyperparameter_response():
    t0 = time.perf_counter()
    shape = (24, 24)
    prior = smooth_prior(shape, 1.6e-4, mean_seed=101)
    den = GmmDenoiser(prior)
    op = identity_op(shape)
    base = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.005)
    variants = {
        "base": base,
        "alpha_high": base.replace(alpha=1.5),
        "scale_high": base.replace(sigma_hat_scale=1.5),
        "repeats_three": base.replace(sure_repeats=3),
    }
    seeds = 30
    psnr = {k: np.empty(seeds) for k in variants}
    for s in range(seeds):
        g0 = RngStream(900 + s, 0)
        x0 = prior.draw(g0.substream(9))
        y = measure(op, x0, 0.005, g0.substream(10))
        for k, cfg in variants.items():
            _, rep = sgps_run(den, op, y, cfg, RngStream(900 + s, 0), x_true=x0)
            psnr[k][s] = rep.psnr_final
    d_alpha = psnr["base"].mean() - psnr["alpha_high"].mean()
    d_scale = psnr["base"].mean() - psnr["scale_high"].mean()
    d_repeats = psnr["base"].mean() - psnr["repeats_three"].mean()

    probes_prior = _striped_prior()
    pden = GmmDenoiser(probes_prior)
    pop = identity_op((64,))
    pcfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05)
    pp = {c: np.empty(seeds) for c in (1, 3, 5)}
    finals = {}
    for s in range(seeds):
        g0 = RngStream(700 + s, 0)
        x0 = probes_prior.draw(g0.substream(9))
        y = measure(pop, x0, 0.05, g0.substream(10))
        for c in pp:
            xf, rep = sgps_run(pden, pop, y, pcfg.replace(mc_probes=c), RngStream(700 + s, 0),
                               x_true=x0)
            pp[c][s] = rep.psnr_final
            if s == 0:
                finals[c] = xf.data
    probe_means = [pp[c].mean() for c in (1, 3, 5)]
    probe_gap = max(probe_means) - min(probe_means)
    probes_distinct = not np.array_equal(finals[1], finals[5])

    ok = (d_alpha > 0) and (d_scale > 0) and (d_repeats >= 0) and probe_gap < 0.2 and probes_distinct
    elapsed = time.perf_counter() - t0
    detail = (
        f"alpha 0.5 vs 1.5: {d_alpha:+.2f} dB; scale 1.0 vs 1.5: {d_scale:+.2f} dB; "
        f"repeats 1 vs 3: {d_repeats:+.2f} dB; probe spread {probe_gap:.3f} dB"
    )
    _criterion(11, "hyperparameter response", ok, detail, elapsed, 900.0)


def _striped_prior():
    g = RngStream(303, 0)
    base = np.cumsum(g.normal(64)) * 0.05
    means = np.stack([base + 0.15 * np.sin(np.linspace(0.0, 3.0 + k, 64)) for k in range(3)])
    return GmmPrior(np.array([0.4, 0.35, 0.25]), means, 0.01, (64,))


def test_12_guided_residuals_gaussian():
    t0 = time.perf_counter()
    n = 64
    prior = smooth_prior((n,), 0.16, mean_seed=61)
    den = GmmDenoiser(prior)
    ops = {
        "identity": identity_op((n,)),
        "mask": MaskOp((n,), np.sort(RngStream(61, 3).gen.permutation(n)[:48])),
    }
    x0 = prior.draw(RngStream(61, 7))
    cfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05)
    threshold = qq_correlation_threshold(1600, 400, 0.005, RngStream(999, 0))
    seeds = 25
    ok = True
    details = [f"H0 threshold {threshold:.6f}"]
    for name, op in ops.items():
        y = measure(op, x0, 0.05, RngStream(61, 8))
        mask_vec = np.zeros(n)
        if isinstance(op, MaskOp):
            mask_vec[op.keep] = 1.0
            aty = np.zeros(n)
            aty[op.keep] = y.data
        else:
            mask_vec[:] = 1.0
            aty = y.data
        per_step = {k: [] for k in range(3)}
        for s in range(seeds):
            states = chain_prefix(den, op, y, cfg, [RngStream(4000 + s, 0)], 3)
            for k, (sigma_t, x0t, x0ty) in enumerate(states):
                eta = default_eta(sigma_t, cfg)
                lam = 1.0 / sigma_t**2 + mask_vec / cfg.sigma_y**2
                a = (x0t[0] / sigma_t**2 + aty / cfg.sigma_y**2) / lam
                r = (1.0 - eta * lam) ** cfg.langevin_steps
                mean = a + (x0t[0] - a) * r
                var = 2.0 * eta * (1.0 - r * r) / (1.0 - (1.0 - eta * lam) ** 2)
                per_step[k].append((x0ty[0] - mean) / np.sqrt(var))
        for k in range(3):
            z = np.concatenate(per_step[k])
            qq = normality_report(z).qq_correlation
            ok = ok and qq > threshold
            details.append(f"{name} step {k + 1}: qq {qq:.6f}")
    elapsed = time.perf_counter() - t0
    _criterion(12, "guided residuals gaussian", ok, "; ".join(details), elapsed, 120.0)
