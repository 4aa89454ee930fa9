"""The sampling loop: denoise, guide toward the measurement, estimate the
residual noise, correct with the risk gradient, then renoise to the next
ladder level.

Randomness is split into four independent substreams (initialization,
guidance, probes, renoising) so that toggling probe consumption never shifts
the draws seen by the other stages.  That makes ablation pairs comparable
under common random numbers.  walk_ladder is the one ladder step loop;
sgps_run and the chain experiments in analysis both run on it.
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
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
from .guidance import langevin_guide
from .noise_est import PatchConfig, estimate_sigma
from .operators import ForwardOp
from .prior import CountingDenoiser, Denoiser
from .schedule import SigmaSchedule, build_schedule
from .sure import sure_gradient, sure_update, sure_value

# substream ids of one run
STREAM_INIT, STREAM_GUIDE, STREAM_PROBE, STREAM_RENOISE = range(4)


def denoise_step(
    den: Denoiser,
    x_t: Signal,
    sigma_t: float,
    substeps: int,
    schedule: SigmaSchedule,
) -> Signal:
    """Clean-signal estimate from x_t at level sigma_t.

    substeps == 1 is a raw denoiser call.  substeps > 1 runs Euler steps of
    the flow dx/dsigma = (x - D(x, sigma)) / sigma along a geometric ladder
    of evaluation points from sigma_t down to the schedule floor, with an
    implicit terminal level of zero; the cost is exactly substeps denoiser
    evaluations either way.
    """
    if substeps < 1:
        raise SgpsError(f"substeps must be >= 1, got {substeps}")
    if sigma_t <= 0:
        raise SgpsError(f"sigma_t must be positive, got {sigma_t}")
    if substeps == 1:
        return den.denoise(x_t, sigma_t)
    low = min(schedule.t_min, sigma_t)
    pts = np.geomspace(sigma_t, low, substeps)
    x = x_t.data.copy()
    for j in range(substeps):
        sj = float(pts[j])
        s_next = float(pts[j + 1]) if j + 1 < substeps else 0.0
        d = den.denoise(x_t.with_data(x), sj)
        x = x + (s_next - sj) * (x - d.data) / sj
    return x_t.with_data(x)


def _stage(fn, stage: str, step_index: int):
    """Run one stage; relabel a divergence or a non-finite iterate with the
    sampler step."""
    try:
        return fn()
    except (DivergenceError, NonFiniteError) as e:
        raise DivergenceError(stage, step_index, str(e)) from e


def _maybe_psnr(a: Signal, truth: Signal | None, peak: float) -> float:
    if truth is None:
        return math.nan
    return psnr(a, truth, peak)


def probe_stream(rng: RngStream) -> RngStream:
    """The substream a run draws its risk-correction probes from."""
    return rng.substream(STREAM_PROBE)


def correction_level(sigma_raw: float, sigma_t: float, cfg: SamplerConfig) -> float | None:
    """Noise level for the risk correction from a raw estimate: scaled by
    cfg.sigma_hat_scale, None (skip the correction) below cfg.sigma_floor,
    otherwise clamped to the ladder level sigma_t."""
    scaled = sigma_raw * cfg.sigma_hat_scale
    if scaled < cfg.sigma_floor:
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

    Each chain starts from a draw at the top level.  At level k each row is
    denoised on its own, then all rows are guided toward y together;
    finish(k, sigma_t, x0t, x0ty) gets the denoised and the guided rows and
    returns the level's rows, which are renoised to the next level.  The
    last level's rows are returned as is.  Row b draws only from rngs[b],
    so it is the chain that rngs[b] alone walks, bit for bit.
    """
    sched = build_schedule(cfg.steps, cfg.t_min, cfg.t_max, cfg.rho)
    if not (1 <= depth <= len(sched)):
        raise SgpsError(f"depth must be in [1, {len(sched)}], got {depth}")
    shape = op.input_shape
    n = math.prod(shape)
    rng_guide = [r.substream(STREAM_GUIDE) for r in rngs]
    rng_renoise = [r.substream(STREAM_RENOISE) for r in rngs]
    top = float(sched.sigmas[0])
    x = np.stack([top * r.substream(STREAM_INIT).normal(n) for r in rngs])
    for k in range(depth):
        sigma_t = float(sched.sigmas[k])
        step_no = k + 1
        x0t = np.stack([
            _stage(
                lambda: denoise_step(
                    den, Signal._adopt(row, shape), sigma_t, cfg.ode_substeps, sched
                ).data,
                "denoise", step_no,
            )
            for row in x
        ])
        x0ty = _stage(
            lambda: langevin_guide(x0t, x0t, sigma_t, op, y, cfg, rng_guide),
            "guidance", step_no,
        )
        x = finish(k, sigma_t, x0t, x0ty)
        if k + 1 < depth:
            x = _stage(lambda: _renoised(x, sched.sigma_after(k), rng_renoise),
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
    peak: float = 1.0,
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
        x0t = Signal._adopt(x0t_row[0], shape)
        x0ty = Signal._adopt(x0ty_row[0], shape)

        def estimate(x: Signal) -> float:
            return _stage(lambda: estimate_sigma(x, patch), "estimate", step_no)

        sigma_raw = estimate(x0ty)
        # sigma_current is the estimate of current, None once current moves
        current, sigma_current = x0ty, sigma_raw
        sigma_used_rec = math.nan
        sure_rec = math.nan
        skipped = False
        if cfg.sure_enabled:
            for rep in range(cfg.sure_repeats):
                if sigma_current is None:
                    sigma_current = estimate(current)
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
                sigma_current = None
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
                psnr_x0t=_maybe_psnr(x0t, x_true, peak),
                psnr_x0ty=_maybe_psnr(x0ty, x_true, peak),
                psnr_star=_maybe_psnr(current, x_true, peak),
                nfe_step=counting.calls - calls_before,
                sigma_hat_star=estimate(current) if sigma_current is None else sigma_current,
                skipped=skipped,
            )
        )
        calls_before = counting.calls
        return current.data[None]

    t_start = time.perf_counter()
    x_star = Signal._adopt(walk_ladder(counting, op, y, cfg, [rng], correct, cfg.steps)[0], shape)
    final_mse = final_psnr = math.nan
    if x_true is not None:
        final_mse = mse(x_star, x_true)
        final_psnr = psnr(x_star, x_true, peak)
    report = RunReport(
        steps=tuple(records),
        psnr_final=final_psnr,
        mse_final=final_mse,
        total_nfe=counting.calls,
        wall_time=time.perf_counter() - t_start,
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
    peak: float = 1.0,
) -> InfluxTrace:
    """Run the sampler twice from identical seeds, with and without the
    risk-gradient correction, and return the aligned per-step curves."""
    _, rep_with = sgps_run(
        den, op, y, cfg.replace(sure_enabled=True), rng.clone(), patch, x_true, peak
    )
    _, rep_without = sgps_run(
        den, op, y, cfg.replace(sure_enabled=False), rng.clone(), patch, x_true, peak
    )
    return InfluxTrace(report_with=rep_with, report_without=rep_without)
