"""Langevin guidance toward the measurement around a denoised anchor.

Runs unadjusted Langevin steps on the potential

    ||x - anchor||^2 / (2 sigma_t^2) + ||A(x) - y||^2 / (2 sigma_y^2)

and never touches the denoiser, so its cost is excluded from the function
evaluation budget.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    DivergenceError,
    NonFiniteError,
    RngStream,
    SamplerConfig,
    SgpsError,
    Signal,
    all_finite,
)
from .operators import ForwardOp


def default_eta(sigma_t: float, cfg: SamplerConfig) -> float:
    """Safe step size 0.5 * min(sigma_t^2, sigma_y^2) / lipschitz_scale."""
    return 0.5 * min(sigma_t * sigma_t, cfg.sigma_y * cfg.sigma_y) / cfg.lipschitz_scale


def langevin_guide(
    x_init: Signal,
    x_anchor: Signal,
    sigma_t: float,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    rng: RngStream,
    noise_scale: float = 1.0,
) -> Signal:
    """Guided sample after cfg.langevin_steps unadjusted Langevin updates.

    noise_scale scales the injected noise and exists for deterministic
    diagnostics; 1.0 is the sampling dynamics.
    """
    if x_init.shape != x_anchor.shape:
        raise SgpsError(
            f"init shape {x_init.shape} differs from anchor shape {x_anchor.shape}"
        )
    if x_init.shape != tuple(op.input_shape):
        raise SgpsError(
            f"init shape {x_init.shape} does not match operator input {op.input_shape}"
        )
    if y.shape != tuple(op.output_shape):
        raise SgpsError(
            f"measurement shape {y.shape} does not match operator output {op.output_shape}"
        )
    if sigma_t <= 0:
        raise SgpsError(f"sigma_t must be positive, got {sigma_t}")
    eta = cfg.langevin_eta if cfg.langevin_eta is not None else default_eta(sigma_t, cfg)
    if eta <= 0:
        raise SgpsError(f"langevin step size must be positive, got {eta}")

    st2 = sigma_t * sigma_t
    root = math.sqrt(2.0 * eta) * noise_scale
    anchor = x_anchor.data
    x = x_init.data.copy()
    n = x.size
    for j in range(cfg.langevin_steps):
        grad = (x - anchor) / st2
        try:
            grad += op.fidelity_gradient(Signal._adopt(x, x_init.shape), y, cfg.sigma_y).data
        except NonFiniteError as exc:
            raise DivergenceError("langevin", j, str(exc)) from exc
        x = x - eta * grad + root * rng.normal(n)
        if not all_finite(x):
            raise DivergenceError("langevin", j)
    return x_init.with_data(x)
