"""Experiment driver: run sweep points and repeats, write CSV and SVG artifacts.

Artifact names are pure functions of (config hash, sweep point, repeat), so
reruns of the same config land on the same files with identical bytes.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, RunReport, SgpsError, csv_text
from ..noise_est import check_patch_count
from ..sampler import sgps_run
from .config import ExperimentConfig, make_task, run_stream
from .svg import write_artifact, write_chart

ENV_OUTPUT_DIR = "SGPS_OUTPUT_DIR"


def resolve_output_dir(cfg: ExperimentConfig) -> str:
    """SGPS_OUTPUT_DIR when set to a non-empty path, else the config's."""
    return os.environ.get(ENV_OUTPUT_DIR) or cfg.output_dir


def step_csv_name(cfg: ExperimentConfig, point: int, repeat: int) -> str:
    return f"steps_{cfg.config_hash}_p{point:03d}_r{repeat:02d}.csv"


def summary_csv_name(cfg: ExperimentConfig) -> str:
    return f"summary_{cfg.config_hash}.csv"


def curves_svg_name(cfg: ExperimentConfig, point: int) -> str:
    return f"curves_{cfg.config_hash}_p{point:03d}.svg"


@dataclass
class RunResult:
    point: int
    repeat: int
    overrides: dict
    report: RunReport | None


def _summary_rows(axis_names: list[str], results: list[RunResult]) -> str:
    header = ["point", "repeat", "status", *axis_names, "psnr_final", "mse_final",
              "total_nfe", "mean_sigma_hat_raw", "mean_sigma_hat_star"]
    rows = []
    for r in results:
        rep = r.report
        if rep is None:
            status, tail = "failed", [np.nan, np.nan, 0, np.nan, np.nan]
        else:
            status, tail = "ok", [rep.psnr_final, rep.mse_final, rep.total_nfe,
                                  np.mean([s.sigma_hat_raw for s in rep.steps]),
                                  np.mean([s.sigma_hat_star for s in rep.steps])]
        # axis values as the config gives them: 0.1, not 0.10000000000000001
        axis_vals = [str(r.overrides[a]) for a in axis_names]
        rows.append([r.point, r.repeat, status, *axis_vals, *tail])
    return csv_text(header, rows)


def _point_chart(cfg: ExperimentConfig, point: int, results: list[RunResult], out_dir: str):
    reports = [r.report for r in results if r.report is not None]
    series = []
    if reports:
        steps = [s.step for s in reports[0].steps]
        series.append(("sigma_t", steps, [s.sigma_t for s in reports[0].steps]))
        raw = np.mean([[s.sigma_hat_raw for s in rep.steps] for rep in reports], axis=0)
        star = np.mean([[s.sigma_hat_star for s in rep.steps] for rep in reports], axis=0)
        series.append(("sigma_hat guided", steps, raw))
        series.append(("sigma_hat corrected", steps, star))
    write_chart(
        os.path.join(out_dir, curves_svg_name(cfg, point)),
        series,
        title=f"{cfg.name}: noise level per step (point {point})",
        xlabel="step",
        ylabel="noise level",
    )


def run_experiment(cfg: ExperimentConfig, sweep: bool) -> int:
    """Execute the experiment; returns the process exit code.

    0 when every run succeeded, 2 when any run failed (the summary records
    per-run status, distinguishing partial from total failure).
    """
    axis_names = list(cfg.sweep_points[0][0]) if sweep else []
    if sweep and not axis_names:
        raise ConfigError("sweep requested but the config has no [sweep] axes")
    points = cfg.sweep_points if sweep else [({}, cfg.sampler)]
    # every step estimates the noise from the sample's patches
    check_patch_count(cfg.prior.shape, cfg.patch, "[patch]: ")
    out_dir = resolve_output_dir(cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out_dir}: {e.strerror}") from e
    x0, y = make_task(cfg)

    results: list[RunResult] = []
    for p_idx, (overrides, scfg) in enumerate(points):
        point_results: list[RunResult] = []
        for rep in range(cfg.repeats):
            rng = run_stream(cfg, p_idx, rep)
            try:
                _, report = sgps_run(
                    cfg.denoiser, cfg.op, y, scfg, rng,
                    patch=cfg.patch, x_true=x0,
                )
                res = RunResult(p_idx, rep, overrides, report)
                write_artifact(os.path.join(out_dir, step_csv_name(cfg, p_idx, rep)),
                               report.step_csv())
            except ConfigError:
                raise
            except SgpsError as e:
                res = RunResult(p_idx, rep, overrides, None)
                print(f"run point={p_idx} repeat={rep} failed: {e}", file=sys.stderr)
            point_results.append(res)
        _point_chart(cfg, p_idx, point_results, out_dir)
        results.extend(point_results)

    write_artifact(os.path.join(out_dir, summary_csv_name(cfg)),
                   _summary_rows(axis_names, results))

    failed = sum(1 for r in results if r.report is None)
    if failed:
        print(f"{failed} of {len(results)} runs failed", file=sys.stderr)
        return 2
    return 0
