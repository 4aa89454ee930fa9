"""Langevin guidance toward the measurement around a denoised anchor.

Runs unadjusted Langevin steps on the potential

    ||x - anchor||^2 / (2 sigma_t^2) + ||A(x) - y||^2 / (2 sigma_y^2)

and never touches the denoiser, so its cost is excluded from the function
evaluation budget.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .core import (
    DivergenceError,
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
    x_init: np.ndarray,
    x_anchor: np.ndarray,
    sigma_t: float,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    rngs: Sequence[RngStream],
    noise_scale: float = 1.0,
) -> np.ndarray:
    """Guided rows after cfg.langevin_steps unadjusted Langevin updates.

    x_init and x_anchor are (B, n) arrays of initial points and anchors,
    one chain per row, and rngs holds one stream per row.  The chains
    advance in lockstep, and row b draws its noise from rngs[b] alone, so
    it is the chain that stream would walk by itself.  A divergence is
    reported at the first iteration where any row is not finite.

    noise_scale scales the injected noise and exists for deterministic
    diagnostics; 1.0 is the sampling dynamics.
    """
    n = math.prod(op.input_shape)
    if x_init.ndim != 2 or x_init.shape[1] != n:
        raise SgpsError(f"init rows {x_init.shape} do not match operator input {op.input_shape}")
    if x_anchor.shape != x_init.shape:
        raise SgpsError(f"init rows {x_init.shape} differ from anchor rows {x_anchor.shape}")
    if len(rngs) != len(x_init):
        raise SgpsError(f"{len(rngs)} streams for {len(x_init)} rows")
    if y.shape != op.output_shape:
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
    noise = np.empty(x_init.shape)
    fills = [(r.normal_into, row) for r, row in zip(rngs, noise)]
    x = x_init.copy()
    # x - eta * grad + root * noise, in place and in the same order; a
    # diverging chain overflows, and the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(cfg.langevin_steps):
            grad = x - x_anchor
            grad /= st2
            grad += op.fidelity_gradient(x, y.data, cfg.sigma_y)
            grad *= eta
            for fill, row in fills:
                fill(row)
            noise *= root
            x -= grad
            x += noise
            if not all_finite(x):
                raise DivergenceError("langevin", j)
    return x
