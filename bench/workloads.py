"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in its constructor
(that is the set-up the benchmark times) and then executes numbered batches
of runs.  A run is one ``sgps_run`` or one KL-trend trial.  Every run is
checked as it completes; ``Outcome.ok`` is False when it raised or failed a
check.

Why these three: ``deblur-24`` is carried by the blur operator inside
guidance, ``sr-mixture-64`` by the mixture denoiser and the SURE probes, and
``kl-trend-16`` by per-call overhead in many short chains.  A change to one
of those layers should move its own workload and leave the other two alone.
"""
from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from unittest import mock

import numpy as np

import sgps
import sgps.analysis
import sgps.harness
import sgps.harness.runner
import sgps.sampler
from sgps import (
    DownsampleOp,
    GmmDenoiser,
    GmmPrior,
    PatchConfig,
    RngStream,
    SamplerConfig,
    Signal,
    identity_op,
    psnr,
)
from sgps.analysis import kl_trend_trials, smooth_field

clock = time.perf_counter


def nfe_law(cfg: SamplerConfig) -> int:
    """Denoiser calls of one run whose correction is never skipped."""
    return cfg.steps * (cfg.ode_substeps + cfg.sure_repeats * (1 + cfg.mc_probes))


def nfe_ok(report, cfg: SamplerConfig) -> bool:
    """The evaluation budget law holds and no step skipped its correction."""
    return report.total_nfe == nfe_law(cfg) and not any(r.skipped for r in report.steps)


@dataclass
class Outcome:
    """One run: its seconds, whether every check passed, and its quality."""

    seconds: float
    ok: bool
    psnr: float
    kl_ratio: float = math.nan
    skips: int = 0
    chances: int = 0
    error: str = ""


def instrument_modules(tracer) -> None:
    """Span every layer boundary that the sampler, analysis and harness
    modules call through a module-level name."""
    tracer.patch_count(sgps.core.Signal, "__post_init__", "core.signal_new")
    for mod in (sgps.sampler, sgps.analysis):
        tracer.patch(mod, "langevin_guide", "guidance.guide")
        tracer.patch(mod, "denoise_step", "sampler.denoise_step")
        tracer.patch(mod, "estimate_sigma", "noise_est.estimate")
        for fn, span in (("sure_value", "sure.value"), ("sure_gradient", "sure.gradient"),
                         ("sure_update", "sure.update")):
            tracer.patch(mod, fn, span)
    tracer.patch(sgps.analysis, "chain_prefix", "analysis.chain_prefix")
    tracer.patch(sgps.harness.runner, "sgps_run", "sampler.run")


def instrument_instances(tracer, op, den) -> None:
    """Span the operator's and the denoiser's methods on these instances."""
    tracer.patch(op, "apply", "operators.apply")
    tracer.patch(op, "adjoint", "operators.adjoint")
    tracer.patch(op, "fidelity_gradient", "operators.fidelity_grad")
    tracer.patch(den, "denoise", "prior.denoise")
    tracer.patch(den, "jacobian_vjp", "prior.vjp")


class Workload:
    """Shared shape of a workload; subclasses build inputs in __init__."""

    name = ""
    criterion = None  # (acceptance criterion number, wall-clock budget in s)
    expected_layers: tuple[str, ...] = ()
    per_batch = 1
    means_nbytes = 0  # bytes of prior means one denoiser call reads
    langevin_steps = 0  # Langevin iterations per guide call
    fingerprint = None  # output bytes of batch 0's first run

    def check(self, outcomes: list[Outcome]) -> None:
        """Workload-level checks over all runs; marks failing runs."""


DEBLUR_CONFIG = """\
[experiment]
name = deblur-24
seed = {seed}
repeats = {repeats}
measurement_sigma = 0.05
output_dir = {out}

[prior]
shape = 24 24
mean_kind = smooth
mean_amplitude = 0.5
mean_seed = 101
s2 = 0.04

[operator]
kind = blur
kernel_size = 5
kernel_width = 1.2

[sampler]
steps = 16
"""


class Deblur24(Workload):
    """The README's deblurring config, run through the harness as `sgps run`
    does.  Batch b is one run_experiment call with per_batch repeats."""

    name = "deblur-24"
    criterion = ("08", 600.0)
    expected_layers = ("operators.apply_calls", "operators.adjoint_calls",
                       "operators.fidelity_grad_calls")
    per_batch = 2  # repeats per experiment

    def __init__(self, seed: int, scratch: str):
        self.seed = int(seed)
        self.scratch = scratch
        cfg = sgps.harness.parse_config_text(self._text(0, self.per_batch, scratch))
        sgps.harness.make_task(cfg)
        self.means_nbytes = cfg.prior.means.nbytes
        self.langevin_steps = cfg.sampler.langevin_steps

    def _text(self, batch: int, repeats: int, out: str) -> str:
        return DEBLUR_CONFIG.format(seed=(self.seed << 16) + batch, repeats=repeats, out=out)

    def _experiment(self, batch: int, repeats: int, tracer):
        """Parse and run one experiment; returns (exit code, wall seconds,
        per-run (seconds, sample, report, cfg), step-CSV bytes of run 0,
        artifact count)."""
        out = tempfile.mkdtemp(dir=self.scratch)
        try:
            runs = []
            inner = sgps.harness.runner.sgps_run

            def timed(den, op, y, cfg, rng, **kw):
                if tracer is not None:
                    tracer.run_id = batch * self.per_batch + len(runs)
                t = clock()
                sample, report = inner(den, op, y, cfg, rng, **kw)
                runs.append((clock() - t, sample, report, cfg))
                return sample, report

            parse = sgps.harness.parse_config_text
            run = sgps.harness.run_experiment
            if tracer is not None:
                parse = tracer.wrap("harness.parse", parse)
                run = tracer.wrap("harness.run_experiment", run)
            t0 = clock()
            cfg = parse(self._text(batch, repeats, out))
            if tracer is not None:
                instrument_instances(tracer, cfg.op, cfg.denoiser)
            with mock.patch.object(sgps.harness.runner, "sgps_run", timed):
                code = run(cfg, False)
            wall = clock() - t0
            names = sorted(os.listdir(out))
            first = [n for n in names if n.startswith("steps_") and n.endswith("_p000_r00.csv")]
            csv = b""
            if first:
                with open(os.path.join(out, first[0]), "rb") as fh:
                    csv = fh.read()
            return code, wall, runs, csv, len(names)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def replay(self) -> bytes:
        return self._experiment(0, 1, None)[3]

    def run_batch(self, batch: int, tracer=None) -> list[Outcome]:
        code, wall, runs, csv, artifacts = self._experiment(batch, self.per_batch, tracer)
        if batch == 0:
            self.fingerprint = csv
        batch_ok = code == 0 and artifacts == self.per_batch + 2 and len(runs) == self.per_batch
        harness_share = (wall - sum(r[0] for r in runs)) / max(len(runs), 1)
        out = []
        for seconds, sample, report, cfg in runs:
            ok = (batch_ok and nfe_ok(report, cfg) and np.all(np.isfinite(sample.data))
                  and math.isfinite(report.psnr_final))
            out.append(Outcome(seconds + harness_share, bool(ok), report.psnr_final,
                               skips=sum(r.skipped for r in report.steps),
                               chances=len(report.steps)))
        if len(runs) < self.per_batch:
            out.extend(Outcome(wall, False, math.nan, error=f"exit code {code}")
                       for _ in range(self.per_batch - len(runs)))
        return out


class SrMixture64(Workload):
    """2x super-resolution of a 64x64 image under a 256-component mixture
    prior, through the library's sgps_run.  Batch b is one run."""

    name = "sr-mixture-64"
    expected_layers = ("prior.denoise_calls", "prior.vjp_calls")
    K = 256
    SHAPE = (64, 64)

    def __init__(self, seed: int, scratch: str):
        self.seed = int(seed)
        root = RngStream(self.seed, 0)
        means = np.stack([smooth_field(root.substream(j), self.SHAPE, 0.5).data
                          for j in range(self.K)])
        self.prior = GmmPrior(np.full(self.K, 1.0 / self.K), means, 0.01, self.SHAPE)
        self.means_nbytes = self.prior.means.nbytes
        self.den = GmmDenoiser(self.prior)
        self.op = DownsampleOp(self.SHAPE, 2)
        self.x0 = self.prior.draw(RngStream(self.seed, 1))
        clean = self.op.apply(self.x0)
        self.y = clean.with_data(clean.data + 0.05 * RngStream(self.seed, 2).normal(clean.n))
        self.cfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05, mc_probes=4,
                                 sure_repeats=2, ode_substeps=2)
        self.langevin_steps = self.cfg.langevin_steps

    def _run(self, batch: int, fn=sgps.sampler.sgps_run):
        return fn(self.den, self.op, self.y, self.cfg, RngStream(self.seed, 16 + batch),
                  x_true=self.x0)

    def replay(self) -> bytes:
        return self._run(0)[0].data.tobytes()

    def run_batch(self, batch: int, tracer=None) -> list[Outcome]:
        fn = sgps.sampler.sgps_run
        if tracer is not None:
            instrument_instances(tracer, self.op, self.den)
            fn = tracer.wrap("sampler.run", fn)
            tracer.run_id = batch
        t = clock()
        sample, report = self._run(batch, fn)
        seconds = clock() - t
        if batch == 0:
            self.fingerprint = sample.data.tobytes()
        ok = (nfe_ok(report, self.cfg) and np.all(np.isfinite(sample.data))
              and math.isfinite(report.psnr_final))
        return [Outcome(seconds, bool(ok), report.psnr_final,
                        skips=sum(r.skipped for r in report.steps), chances=len(report.steps))]


class KlTrend16(Workload):
    """One trial of criterion 10's KL-trend experiment per batch: 40 chains
    to depth 8 on a 16x16 identity task, then one correction each."""

    name = "kl-trend-16"
    criterion = ("10", 300.0)
    expected_layers = ("analysis.chain_prefix_calls",)
    SHAPE = (16, 16)
    SAMPLES = 40
    DEPTH = 8

    def __init__(self, seed: int, scratch: str):
        self.seed = int(seed)
        mean = smooth_field(RngStream(77, 0), self.SHAPE, 0.5)
        self.prior = GmmPrior(np.array([1.0]), mean.data[None, :], 0.04, self.SHAPE)
        self.means_nbytes = self.prior.means.nbytes
        self.den = GmmDenoiser(self.prior)
        self.op = identity_op(self.SHAPE)
        rngy = RngStream(self.seed, 1)
        self.x0 = Signal(self.prior.means[0] + 0.2 * rngy.normal(self.prior.n), self.SHAPE)
        clean = self.op.apply(self.x0)
        self.y = clean.with_data(clean.data + 0.1 * rngy.normal(clean.n))
        self.cfg = SamplerConfig(steps=12, t_max=12.0, sigma_y=0.1)
        self.langevin_steps = self.cfg.langevin_steps

    def _trial(self, batch: int, fn=kl_trend_trials):
        corrected = []
        update = sgps.analysis.sure_update

        def capture(*args, **kw):
            out = update(*args, **kw)
            corrected.append(out)
            return out

        with mock.patch.object(sgps.analysis, "sure_update", capture):
            kl = fn(self.den, self.prior, self.op, self.y, self.cfg, PatchConfig(),
                    trials=1, samples=self.SAMPLES, depth=self.DEPTH,
                    seed=(self.seed << 20) + batch)
        return kl, corrected

    def replay(self) -> bytes:
        return self._trial(0)[0].tobytes()

    def check(self, outcomes: list[Outcome]) -> None:
        # criterion 10's rule: KL falls in at least 80% of trials
        rose = [o for o in outcomes if not o.kl_ratio < 1.0]
        if len(rose) > 0.2 * len(outcomes):
            for o in rose:
                o.ok = False
                o.error = o.error or "KL did not fall in enough trials"

    def run_batch(self, batch: int, tracer=None) -> list[Outcome]:
        fn = kl_trend_trials
        if tracer is not None:
            instrument_instances(tracer, self.op, self.den)
            fn = tracer.wrap("analysis.kl_trend", fn)
            tracer.run_id = batch
        t = clock()
        kl, corrected = self._trial(batch, fn)
        seconds = clock() - t
        if batch == 0:
            self.fingerprint = kl.tobytes()
        before, after = float(kl[0, 0]), float(kl[0, 1])
        quality = float(np.mean([psnr(s, self.x0) for s in corrected])) if corrected else math.nan
        ok = math.isfinite(before) and math.isfinite(after) and math.isfinite(quality)
        return [Outcome(seconds, ok, quality, kl_ratio=after / before,
                        skips=self.SAMPLES - len(corrected), chances=self.SAMPLES)]


WORKLOADS = {w.name: w for w in (Deblur24, SrMixture64, KlTrend16)}
