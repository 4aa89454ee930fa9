"""Byte-level pins of the sampler and the chain experiments.

The digests were taken before the sampler and the chain experiments were
made to share one ladder step; any refactor of the step must leave them
unchanged.  They depend on float64 arithmetic being bitwise reproducible,
so a different numpy or BLAS build may need them retaken.
"""
import hashlib
import struct
from unittest import mock

import numpy as np

import sgps.analysis
from sgps.analysis import chain_prefix, kl_trend_trials, smooth_field
from sgps.core import RngStream, SamplerConfig
from sgps.noise_est import PatchConfig
from sgps.operators import BlurOp, gaussian_kernel, identity_op
from sgps.prior import GmmDenoiser, GmmPrior
from sgps.sampler import sgps_run

STEP_CSV_SHA256 = "b910f56e4665819cf67531253fb5717aeafcfa5744e129abbc2e978db96d6141"
SAMPLE_SHA256 = "afed79a00d894779b065dc00372bf3893983a6985cbaf675d2e584624a20d5b0"
PREFIX_SHA256 = "86eb26df32579c01fe54a4b72dee6e4618b223c58ce4f4afeeb4955016bd0e57"
KL_SHA256 = "0fe5f11c79b6a22f1257ddf3a0438b4d0ab7748262077507600652ac50457a36"


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
    for sigma_t, x0t, x0ty in chain_prefix(den, op, y, cfg, RngStream(32, 0), 4):
        h.update(struct.pack("<d", sigma_t))
        h.update(x0t.data.tobytes())
        h.update(x0ty.data.tobytes())
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
