"""Byte-level pins of the sampler, the chain experiments and the mixture
denoiser.

The first four digests were taken before the sampler and the chain
experiments were made to share one ladder step; any refactor of the step
must leave them unchanged.  They use one-component priors, whose
responsibilities are exactly 1, so their posterior mean and Jacobian
products are elementwise formulas that keep their bits when the denoiser
takes many rows per call.  The MIXTURE_* digests pin the K > 1 posterior
path as well.  They were retaken when the mixture's distances became one
product with the means and its products came to run over the nonzero
responsibilities only, and again when the denoiser came to take (B, n)
rows, so that the distances, the posterior means and the Jacobian products
of all rows are matrix products and the products take the covariance's
centred form; both round differently.  The closed-form check that stands
beside them is tests/test_prior.py's TestDirectFormula, on rows.  The SWEEP_ARTIFACTS and INFLUX_CSV digests
pin the harness's artifact files and the influx table; they were taken
before the three tables came to share one CSV writer.  All of them depend
on float64 arithmetic being bitwise reproducible, so a different numpy or
BLAS build may need them retaken.
"""
import hashlib
import os
import struct
from unittest import mock

import numpy as np

import sgps.analysis
import sgps.harness.runner
from sgps.analysis import chain_prefix, kl_trend_trials, smooth_field
from sgps.core import DivergenceError, RngStream, SamplerConfig
from sgps.harness.config import parse_config_text
from sgps.harness.runner import run_experiment
from sgps.noise_est import PatchConfig
from sgps.operators import BlurOp, DownsampleOp, gaussian_kernel, identity_op
from sgps.prior import GmmDenoiser, GmmPrior
from sgps.sampler import noise_influx_trace, sgps_run

STEP_CSV_SHA256 = "b910f56e4665819cf67531253fb5717aeafcfa5744e129abbc2e978db96d6141"
SAMPLE_SHA256 = "afed79a00d894779b065dc00372bf3893983a6985cbaf675d2e584624a20d5b0"
PREFIX_SHA256 = "86eb26df32579c01fe54a4b72dee6e4618b223c58ce4f4afeeb4955016bd0e57"
KL_SHA256 = "0fe5f11c79b6a22f1257ddf3a0438b4d0ab7748262077507600652ac50457a36"
MIXTURE_STEP_CSV_SHA256 = "321297c7c7454b93d74b3e4c277aa68afc95e9800f6038913fd2ec8819d7f74a"
MIXTURE_SAMPLE_SHA256 = "cd0298ac160e9cc39e5d5b391af6f8ef1fd4faefd244ac7933651f50844ab678"
MIXTURE_DIAGNOSTICS_SHA256 = "1b004cec92c25d544d0eab8a4a4bd77e06eea1edad4ada5c972f406f9be9dcff"
SWEEP_ARTIFACTS_SHA256 = "6154f0c3cdd6d468cc15c438a706ae2fff7fb614f11629c861ec55337bed4931"
INFLUX_CSV_SHA256 = "07710f45243762283e86ce1aedf9bb8679d40913dee6fc5442aff6dd444a94a8"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blur_task(shape=(16, 16)):
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


def test_mixture_diagnostic_bytes(mixture_score, mixture_responsibilities):
    prior, _, _, _ = mixture_task()
    den = GmmDenoiser(prior)
    g = RngStream(73, 0)
    middle = 0.5 * (prior.means[3] + prior.means[5])
    sigmas = [3.0, 1.0, 0.3]
    # between two components, so the responsibilities are not one-hot
    points = [(middle + sigma * g.normal(prior.n), g.normal(prior.n)) for sigma in sigmas]
    xs = np.stack([x for x, _ in points])
    vs = np.stack([v for _, v in points])
    # all three points in one call of each method, the denoised rows first
    rows = (den.denoise(xs, sigmas), den.jacobian_vjp(xs, sigmas, vs),
            den.jacobian_trace(xs, sigmas))
    h = hashlib.sha256()
    for b, sigma in enumerate(sigmas):
        h.update(rows[0][b].tobytes())
        h.update(rows[1][b].tobytes())
        h.update(struct.pack("<d", rows[2][b]))
        h.update(mixture_score(den, xs[b], sigma).tobytes())
        h.update(mixture_responsibilities(den, xs[b], sigma).tobytes())
    assert h.hexdigest() == MIXTURE_DIAGNOSTICS_SHA256


SWEEP_CONFIG = """
[experiment]
name = pinned-sweep
seed = 5
repeats = 2

[prior]
shape = 16 16
mean_kind = smooth
s2 = 0.04

[operator]
kind = blur
kernel_width = 1.2

[sampler]
steps = 3
langevin_steps = 10

[sweep]
alpha = 0.1 0.7
"""


def test_sweep_artifact_bytes(tmp_path, monkeypatch):
    # the second run fails, so the summary holds a failed row as well
    monkeypatch.setenv("SGPS_OUTPUT_DIR", str(tmp_path))
    run = sgps.harness.runner.sgps_run
    calls = []

    def second_run_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise DivergenceError("guidance", 1)
        return run(*args, **kwargs)

    with mock.patch.object(sgps.harness.runner, "sgps_run", second_run_fails):
        assert run_experiment(parse_config_text(SWEEP_CONFIG), sweep=True) == 2
    names = sorted(os.listdir(tmp_path))
    # two charts, three step tables and the summary
    assert len(names) == 6
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == SWEEP_ARTIFACTS_SHA256


def test_influx_csv_bytes():
    den, op, y, x0 = blur_task((12, 12))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.05, langevin_steps=20)
    trace = noise_influx_trace(den, op, y, cfg, RngStream(64, 0), PatchConfig(patch_size=3), x0)
    assert sha256(trace.to_csv().encode()) == INFLUX_CSV_SHA256
