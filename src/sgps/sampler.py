"""The sampling loop: denoise, guide toward the measurement, estimate the
residual noise, correct with the risk gradient, then renoise to the next
ladder level.

Randomness is split into four independent substreams (initialization,
guidance, probes, renoising) so that toggling probe consumption never shifts
the draws seen by the other stages.  That makes ablation pairs comparable
under common random numbers.  walk_ladder is the one ladder step loop;
sgps_run and the chain experiments in analysis both run on it.  Because the
guidance substream feeds only the guide, a walk may draw the next level's
guide noise on a worker thread while the current level is corrected.
"""
from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .core import (
    RHO,
    T_MIN,
    ConfigError,
    DivergenceError,
    NonFiniteError,
    RngStream,
    RunReport,
    SamplerConfig,
    SgpsError,
    Signal,
    StepRecord,
    all_finite,
    mse,
    psnr,
)
from . import guidance
from .guidance import draw_noise, langevin_guide
from .noise_est import PatchConfig, estimate_sigma
from .operators import ForwardOp
from .prior import CountingDenoiser, Denoiser
from .schedule import build_schedule
from .sure import sure_gradient, sure_update, sure_value

# substream ids of one run
STREAM_INIT, STREAM_GUIDE, STREAM_PROBE, STREAM_RENOISE = range(4)

# a walk whose one level of guide noise, 8 B langevin_steps n bytes, is above
# guidance.NOISE_BYTES and at most PREFETCH_BYTES draws it on a worker thread
# while the main thread corrects the level before.  A smaller level hides too
# little fill to pay for the hand-over; a larger one costs its size in memory
# and, in the workloads that have one, has too little main-thread work per
# level to hide its fill behind
PREFETCH_BYTES = 4 << 20


def _noise_worker(rows: int, steps: int, n: int):
    """A one-thread executor for a walk's guide noise when one level of it
    lies in the prefetch window and the process may run on a second CPU
    (on one CPU the worker only takes turns with the main thread); else a
    context that yields None."""
    if not guidance.NOISE_BYTES < 8 * rows * steps * n <= PREFETCH_BYTES:
        return nullcontext()
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return nullcontext()
    # imported here: the executor loads logging, which importing sgps need not
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


def denoise_step(den: Denoiser, x_t: np.ndarray, sigma_t: float, substeps: int) -> np.ndarray:
    """Clean-signal estimates from the (B, n) rows x_t, all at level sigma_t.

    substeps == 1 is a raw denoiser call.  substeps > 1 runs Euler steps of
    the flow dx/dsigma = (x - D(x, sigma)) / sigma along a geometric ladder
    of evaluation points from sigma_t down to the ladder floor T_MIN, with an
    implicit terminal level of zero; the cost is exactly substeps denoiser
    evaluations per row either way.  A non-finite estimate raises
    NonFiniteError.
    """
    if substeps < 1:
        raise SgpsError(f"substeps must be >= 1, got {substeps}")
    if sigma_t <= 0:
        raise SgpsError(f"sigma_t must be positive, got {sigma_t}")
    if substeps == 1:
        x = den.denoise(x_t, np.full(len(x_t), sigma_t))
    else:
        pts = np.geomspace(sigma_t, min(T_MIN, sigma_t), substeps)
        x = x_t
        for j in range(substeps):
            sj = float(pts[j])
            s_next = float(pts[j + 1]) if j + 1 < substeps else 0.0
            x = x + (s_next - sj) * (x - den.denoise(x, np.full(len(x), sj))) / sj
    if not all_finite(x):
        raise NonFiniteError("denoised rows are not finite")
    return x


def _stage(fn, stage: str, step_index: int):
    """Run one stage; relabel a divergence or a non-finite iterate with the
    sampler step."""
    try:
        return fn()
    except (DivergenceError, NonFiniteError) as e:
        raise DivergenceError(stage, step_index, str(e)) from e


def _maybe_psnr(a: Signal, truth: Signal | None) -> float:
    if truth is None:
        return math.nan
    return psnr(a, truth)


def probe_stream(rng: RngStream) -> RngStream:
    """The substream a run draws its risk-correction probes from."""
    return rng.substream(STREAM_PROBE)


# scaled estimates below this skip the risk correction
SIGMA_FLOOR = 1e-3


def correction_level(sigma_raw: float, sigma_t: float, cfg: SamplerConfig) -> float | None:
    """Noise level for the risk correction from a raw estimate: scaled by
    cfg.sigma_hat_scale, None (skip the correction) below SIGMA_FLOOR,
    otherwise clamped to the ladder level sigma_t."""
    scaled = sigma_raw * cfg.sigma_hat_scale
    if scaled < SIGMA_FLOOR:
        return None
    return min(scaled, sigma_t)


def walk_ladder(
    den: Denoiser,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    rngs: Sequence[RngStream],
    finish: Callable[[int, float, np.ndarray, np.ndarray], np.ndarray],
    depth: int,
) -> np.ndarray:
    """Walk one chain per stream in rngs down the first `depth` ladder
    levels, in lockstep, as the rows of (B, n) arrays.

    Each chain starts from a draw at the top level.  At level k all rows are
    denoised in one call, then guided toward y together;
    finish(k, sigma_t, x0t, x0ty) gets the denoised and the guided rows and
    returns the level's rows, which are renoised to the next level.  The
    last level's rows are returned as is.  Row b draws only from rngs[b],
    so it is the chain that rngs[b] alone walks, bit for bit.
    """
    sigmas = build_schedule(cfg.steps, T_MIN, cfg.t_max, RHO)
    if not (1 <= depth <= sigmas.size):
        raise SgpsError(f"depth must be in [1, {sigmas.size}], got {depth}")
    n = math.prod(op.input_shape)
    steps = cfg.langevin_steps
    rng_guide = [r.substream(STREAM_GUIDE) for r in rngs]
    rng_renoise = [r.substream(STREAM_RENOISE) for r in rngs]
    # leaving the with, by return or by exception, waits for a pending fill
    with _noise_worker(len(rngs), steps, n) as pool:
        if pool:
            block = np.empty((len(rngs), steps, n))
            fill = pool.submit(draw_noise, rng_guide, block)
        top = float(sigmas[0])
        x = np.stack([top * r.substream(STREAM_INIT).normal(n) for r in rngs])
        for k in range(depth):
            sigma_t = float(sigmas[k])
            step_no = k + 1
            x0t = _stage(lambda: denoise_step(den, x, sigma_t, cfg.ode_substeps),
                         "denoise", step_no)
            noise = fill.result() if pool else None
            x0ty = _stage(
                lambda: langevin_guide(x0t, x0t, sigma_t, op, y, cfg, rng_guide, noise=noise),
                "guidance", step_no,
            )
            if pool and k + 1 < depth:
                # level k's block is used up, so each stream goes on in order
                fill = pool.submit(draw_noise, rng_guide, block)
            x = finish(k, sigma_t, x0t, x0ty)
            if k + 1 < depth:
                x = _stage(lambda: _renoised(x, float(sigmas[k + 1]), rng_renoise),
                           "renoise", step_no)
    return x


def _renoised(x: np.ndarray, sigma_next: float, rngs: Sequence[RngStream]) -> np.ndarray:
    out = x + sigma_next * np.stack([r.normal(x.shape[1]) for r in rngs])
    if not all_finite(out):
        raise NonFiniteError("renoised rows are not finite")
    return out


def sgps_run(
    den: Denoiser,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    rng: RngStream,
    patch: PatchConfig | None = None,
    x_true: Signal | None = None,
) -> tuple[Signal, RunReport]:
    """One full sampling run; returns the final sample and its trace.

    The residual noise level of the guided sample is estimated every step
    (it costs no denoiser evaluations and feeds both the correction and the
    report), and correction_level turns it into the level the correction
    uses, or skips the correction for that step.  The final step emits the
    corrected sample directly, with no terminal renoising.
    """
    if patch is None:
        patch = PatchConfig()
    counting = CountingDenoiser(den)
    rng_probe = probe_stream(rng)
    records: list[StepRecord] = []
    calls_before = 0
    shape = op.input_shape

    def correct(k: int, sigma_t: float, x0t_row: np.ndarray, x0ty_row: np.ndarray) -> np.ndarray:
        nonlocal calls_before
        step_no = k + 1
        x0t = Signal(x0t_row[0], shape)
        x0ty = Signal(x0ty_row[0], shape)

        def estimate(x: Signal) -> float:
            return _stage(lambda: estimate_sigma(x, patch), "estimate", step_no)

        sigma_raw = estimate(x0ty)
        # sigma_current is always the estimate of current
        current, sigma_current = x0ty, sigma_raw
        sigma_used_rec = math.nan
        sure_rec = math.nan
        skipped = False
        for rep in range(cfg.sure_repeats):
            used = correction_level(sigma_current, sigma_t, cfg)
            if used is None:
                skipped = rep == 0
                break
            ev = _stage(
                lambda: sure_value(counting, current, used, cfg, rng_probe),
                "sure-value", step_no,
            )
            grad = _stage(lambda: sure_gradient(counting, ev), "sure-gradient", step_no)
            current = _stage(
                lambda: sure_update(current, grad, cfg.alpha),
                "sure-update", step_no,
            )
            sigma_current = estimate(current)
            if rep == 0:
                sigma_used_rec = used
                sure_rec = ev.value
        records.append(
            StepRecord(
                step=step_no,
                sigma_t=sigma_t,
                sigma_hat_raw=sigma_raw,
                sigma_hat_used=sigma_used_rec,
                sure_value=sure_rec,
                psnr_x0t=_maybe_psnr(x0t, x_true),
                psnr_x0ty=_maybe_psnr(x0ty, x_true),
                psnr_star=_maybe_psnr(current, x_true),
                nfe_step=counting.calls - calls_before,
                sigma_hat_star=sigma_current,
                skipped=skipped,
            )
        )
        calls_before = counting.calls
        return current.data[None]

    x_star = Signal(walk_ladder(counting, op, y, cfg, [rng], correct, cfg.steps)[0], shape)
    final_mse = final_psnr = math.nan
    if x_true is not None:
        final_mse = mse(x_star, x_true)
        final_psnr = psnr(x_star, x_true)
    report = RunReport(
        steps=tuple(records),
        psnr_final=final_psnr,
        mse_final=final_mse,
        total_nfe=counting.calls,
    )
    return x_star, report


INFLUX_CSV_COLUMNS = (
    "step",
    "sigma_t",
    "sigma_hat_with",
    "sigma_hat_without",
    "psnr_x0t_with",
    "psnr_x0t_without",
    "psnr_x0ty_with",
    "psnr_x0ty_without",
    "psnr_star_with",
    "psnr_star_without",
)


@dataclass(frozen=True)
class InfluxTrace:
    """Aligned per-step curves from a with/without-correction pair run
    under common random numbers."""

    report_with: RunReport
    report_without: RunReport

    def __post_init__(self):
        if len(self.report_with.steps) != len(self.report_without.steps):
            raise SgpsError("paired reports have different lengths")

    def to_csv(self) -> str:
        from .core import format_float

        lines = [",".join(INFLUX_CSV_COLUMNS)]
        for a, b in zip(self.report_with.steps, self.report_without.steps):
            lines.append(
                ",".join(
                    [
                        str(a.step),
                        format_float(a.sigma_t),
                        format_float(a.sigma_hat_star),
                        format_float(b.sigma_hat_star),
                        format_float(a.psnr_x0t),
                        format_float(b.psnr_x0t),
                        format_float(a.psnr_x0ty),
                        format_float(b.psnr_x0ty),
                        format_float(a.psnr_star),
                        format_float(b.psnr_star),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def mean_sigma_hat(self) -> tuple[float, float]:
        w = float(np.mean([r.sigma_hat_star for r in self.report_with.steps]))
        wo = float(np.mean([r.sigma_hat_star for r in self.report_without.steps]))
        return w, wo


def noise_influx_trace(
    den: Denoiser,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    rng: RngStream,
    patch: PatchConfig | None = None,
    x_true: Signal | None = None,
) -> InfluxTrace:
    """Run the sampler twice from identical seeds, as cfg (the corrected
    arm) and with sure_repeats = 0, and return the aligned per-step curves.
    cfg itself must correct, or the pair would have nothing to compare."""
    if cfg.sure_repeats == 0:
        raise ConfigError("noise_influx_trace needs sure_repeats >= 1")
    _, rep_with = sgps_run(den, op, y, cfg, rng.clone(), patch, x_true)
    _, rep_without = sgps_run(den, op, y, cfg.replace(sure_repeats=0), rng.clone(), patch, x_true)
    return InfluxTrace(report_with=rep_with, report_without=rep_without)
