"""Byte-level pins of the sampler, the chain experiments and the mixture
denoiser.

The first four digests were taken before the sampler and the chain
experiments were made to share one ladder step; any refactor of the step
must leave them unchanged.  They use one-component priors, whose
responsibilities are exactly 1, so the MIXTURE_* digests pin the K > 1
posterior path as well; they were taken before the mixture posterior was
memoised and its distances blocked.  All of them depend on float64
arithmetic being bitwise reproducible, so a different numpy or BLAS build
may need them retaken.
"""
import hashlib
import struct
from unittest import mock

import numpy as np

import sgps.analysis
from sgps.analysis import chain_prefix, kl_trend_trials, smooth_field
from sgps.core import RngStream, SamplerConfig, Signal
from sgps.noise_est import PatchConfig
from sgps.operators import BlurOp, DownsampleOp, gaussian_kernel, identity_op
from sgps.prior import GmmDenoiser, GmmPrior
from sgps.sampler import sgps_run

STEP_CSV_SHA256 = "b910f56e4665819cf67531253fb5717aeafcfa5744e129abbc2e978db96d6141"
SAMPLE_SHA256 = "afed79a00d894779b065dc00372bf3893983a6985cbaf675d2e584624a20d5b0"
PREFIX_SHA256 = "86eb26df32579c01fe54a4b72dee6e4618b223c58ce4f4afeeb4955016bd0e57"
KL_SHA256 = "0fe5f11c79b6a22f1257ddf3a0438b4d0ab7748262077507600652ac50457a36"
MIXTURE_STEP_CSV_SHA256 = "db3e6749d28f4256040afbbcaea252410f07b1bcd46e421afc2f2ba733c6efd2"
MIXTURE_SAMPLE_SHA256 = "9fb662bf39fec95dd5c134bd99124cba209f6de85b52cc729806730105242ea2"
MIXTURE_DIAGNOSTICS_SHA256 = "25aef181c7616d9b3903a0f72c18b83157fbb28038141a184fb6a41e5ab00dbc"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blur_task():
    shape = (16, 16)
    mean = smooth_field(RngStream(61, 0), shape, 0.5)
    prior = GmmPrior(np.array([1.0]), mean.data[None, :], 0.04, shape)
    op = BlurOp(shape, gaussian_kernel(5, 1.2, 2))
    g = RngStream(61, 1)
    x0 = prior.draw(g.substream(9))
    clean = op.apply(x0)
    y = clean.with_data(clean.data + 0.05 * g.substream(10).normal(clean.n))
    return GmmDenoiser(prior), op, y, x0


def chain_task():
    shape = (8, 8)
    mean = smooth_field(RngStream(31, 0), shape, 0.5)
    prior = GmmPrior(np.array([1.0]), mean.data[None, :], 0.04, shape)
    op = identity_op(shape)
    g = RngStream(31, 1)
    x0 = prior.draw(g)
    yv = op.apply(x0)
    y = yv.with_data(yv.data + 0.1 * g.substream(1).normal(yv.n))
    cfg = SamplerConfig(steps=6, t_max=6.0, sigma_y=0.1, langevin_steps=30)
    return GmmDenoiser(prior), prior, op, y, cfg


def test_step_csv_and_sample_bytes():
    den, op, y, x0 = blur_task()
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.05, langevin_steps=20,
                        sure_repeats=2, ode_substeps=2, mc_probes=2)
    x, report = sgps_run(den, op, y, cfg, RngStream(62, 0), x_true=x0)
    # the last step clamps its level to the ladder, so the pin covers the clamp
    assert report.steps[-1].sigma_hat_used == report.steps[-1].sigma_t
    assert sha256(report.step_csv().encode()) == STEP_CSV_SHA256
    assert sha256(x.data.tobytes()) == SAMPLE_SHA256


def test_chain_prefix_state_bytes():
    den, _, op, y, cfg = chain_task()
    h = hashlib.sha256()
    for sigma_t, x0t, x0ty in chain_prefix(den, op, y, cfg, [RngStream(32, 0)], 4):
        h.update(struct.pack("<d", sigma_t))
        h.update(x0t.tobytes())
        h.update(x0ty.tobytes())
    assert h.hexdigest() == PREFIX_SHA256


def test_kl_trend_output_bytes():
    den, prior, op, y, cfg = chain_task()
    update = sgps.analysis.sure_update
    with mock.patch.object(sgps.analysis, "sure_update", side_effect=update) as spy:
        out = kl_trend_trials(den, prior, op, y, cfg, PatchConfig(patch_size=3),
                              trials=1, samples=8, depth=3, seed=33)
    # every chain is corrected, through this module's sure_update
    assert spy.call_count == 8
    assert sha256(out.tobytes()) == KL_SHA256


def mixture_task():
    shape = (16, 16)
    root = RngStream(71, 0)
    means = np.stack([smooth_field(root.substream(j), shape, 0.5).data for j in range(12)])
    w = root.substream(99).gen.random(12) + 0.5
    prior = GmmPrior(w / w.sum(), means, 0.02, shape)
    op = DownsampleOp(shape, 2)
    x0 = prior.draw(RngStream(71, 1))
    clean = op.apply(x0)
    y = clean.with_data(clean.data + 0.05 * RngStream(71, 2).normal(clean.n))
    return prior, op, y, x0


def test_mixture_step_csv_and_sample_bytes():
    prior, op, y, x0 = mixture_task()
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.05, langevin_steps=20,
                        sure_repeats=2, ode_substeps=2, mc_probes=2)
    x, report = sgps_run(GmmDenoiser(prior), op, y, cfg, RngStream(72, 0), x_true=x0)
    # every step corrects, so the pin covers the SURE value and gradient
    assert not any(r.skipped for r in report.steps)
    assert sha256(report.step_csv().encode()) == MIXTURE_STEP_CSV_SHA256
    assert sha256(x.data.tobytes()) == MIXTURE_SAMPLE_SHA256


def test_mixture_diagnostic_bytes():
    prior, _, _, _ = mixture_task()
    g = RngStream(73, 0)
    h = hashlib.sha256()
    middle = 0.5 * (prior.means[3] + prior.means[5])
    for sigma in (3.0, 1.0, 0.3):
        # between two components, so the responsibilities are not one-hot
        x = Signal(middle + sigma * g.normal(prior.n), prior.shape)
        v = g.normal(prior.n)
        # the denoised output first, then the diagnostics at the same point
        h.update(prior.posterior_mean(x, sigma).data.tobytes())
        h.update(prior.jacobian_vjp(x, sigma, v).tobytes())
        h.update(struct.pack("<d", prior.trace_jacobian(x, sigma)))
        h.update(prior.score(x, sigma).data.tobytes())
        h.update(prior.responsibilities(x.data, sigma).tobytes())
    assert h.hexdigest() == MIXTURE_DIAGNOSTICS_SHA256
