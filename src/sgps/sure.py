"""Unbiased risk estimation for a denoiser applied to noisy input.

For x = clean + sigma * noise the quantity

    -n sigma^2 + ||x - D(x)||^2 + 2 sigma^2 tr(dD/dx)

has the same expectation as the mean squared error of D(x) against the
clean signal, without access to the clean signal.  The trace is estimated
with Gaussian probes; its gradient with respect to x (probe, step size, and
sigma held fixed) drives the sample update.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError, RngStream, RoundoffWarning, SamplerConfig, SgpsError, Signal
from .prior import Denoiser

EPSILON_DIVISOR = 1000.0
EPSILON_ABS_FLOOR = 1e-6


def probe_epsilon(x_noisy: Signal) -> float:
    """Probe step max(x)/1000, floored at 1e-6 * (1 + max|x|)."""
    top = float(np.max(x_noisy.data)) / EPSILON_DIVISOR
    floor = EPSILON_ABS_FLOOR * (1.0 + float(np.max(np.abs(x_noisy.data))))
    return max(top, floor)


@dataclass(frozen=True)
class SureEvaluation:
    """One risk evaluation: where it was taken, its terms, and the frozen
    probes and base output its gradient reuses."""

    point: Signal
    value: float
    trace_estimate: float
    sigma_used: float
    epsilon: float
    probes: np.ndarray
    denoised: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.probes, dtype=np.float64)
        if p.ndim != 2:
            raise SgpsError("probes must be a (count, n) matrix")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probes", p)


def _evaluate(
    den: Denoiser, x: Signal, sigma_hat: float, epsilon: float, probes: np.ndarray
) -> SureEvaluation:
    """The risk expression at x with sigma_hat, epsilon, and probes held
    fixed; the gradient differentiates this function of x.  The point and
    its probe points are denoised in one call."""
    count = probes.shape[0]
    xs = np.concatenate([x.data[None], x.data + epsilon * probes])
    levels = np.full(1 + count, max(epsilon, sigma_hat))
    levels[0] = sigma_hat
    out = den.denoise(xs, levels)
    xhat = out[0]
    total = 0.0
    for b, perturbed in zip(probes, out[1:]):
        if np.array_equal(perturbed, xhat):
            warnings.warn(
                f"probe step {epsilon} produced no representable output change",
                RoundoffWarning,
                stacklevel=3,
            )
        total += float(b @ (perturbed - xhat)) / epsilon
    trace = total / count
    resid = x.data - xhat
    s2 = sigma_hat * sigma_hat
    value = -(x.n * s2) + float(resid @ resid) + 2.0 * s2 * trace
    if not math.isfinite(value):
        raise NonFiniteError(f"risk value is {value}")
    return SureEvaluation(
        point=x,
        value=value,
        trace_estimate=trace,
        sigma_used=float(sigma_hat),
        epsilon=epsilon,
        probes=probes,
        denoised=xhat,
    )


def sure_value(
    den: Denoiser,
    x_noisy: Signal,
    sigma_hat: float,
    cfg: SamplerConfig,
    rng: RngStream,
) -> SureEvaluation:
    """Risk estimate at x_noisy with noise level sigma_hat.

    Costs 1 + cfg.mc_probes denoiser evaluations.  The probes are recorded
    so the gradient can reuse them.
    """
    if sigma_hat <= 0:
        raise SgpsError(f"sigma_hat must be positive, got {sigma_hat}")
    eps = probe_epsilon(x_noisy)
    probes = rng.standard_normal((cfg.mc_probes, x_noisy.n))
    return _evaluate(den, x_noisy, sigma_hat, eps, probes)


def sure_gradient(den: Denoiser, evaluation: SureEvaluation) -> Signal:
    """Gradient of the risk expression with respect to the noisy input, at
    the evaluation's point.

    sigma_hat, the probe step, and the probes are the evaluation's and are
    treated as constants.  The gradient is built from exact Jacobian
    products and the evaluation's base output, so it costs no denoiser
    evaluation.
    """
    x = evaluation.point
    xv = x.data
    sigma_hat = evaluation.sigma_used
    eps = evaluation.epsilon
    probes = evaluation.probes
    count = probes.shape[0]
    s2 = sigma_hat * sigma_hat
    resid = xv - evaluation.denoised
    # all 1 + 2 * count products in one call: J^T resid at x, then J^T b at
    # each probe point, then J^T b at x
    xs = np.concatenate([xv[None], xv + eps * probes, np.broadcast_to(xv, probes.shape)])
    levels = np.full(1 + 2 * count, sigma_hat)
    levels[1:1 + count] = max(eps, sigma_hat)
    prods = den.jacobian_vjp(xs, levels, np.concatenate([resid[None], probes, probes]))
    g = 2.0 * (resid - prods[0])
    acc = np.zeros(x.n)
    for at_probe, at_x in zip(prods[1:1 + count], prods[1 + count:]):
        acc += at_probe
        acc -= at_x
    g += (2.0 * s2 / (eps * count)) * acc
    return x.with_data(g)


def sure_update(x: Signal, grad: Signal, alpha: float) -> Signal:
    """Gradient step x - alpha * grad."""
    if x.shape != grad.shape:
        raise SgpsError(f"shape mismatch: {x.shape} vs {grad.shape}")
    if alpha < 0:
        raise SgpsError(f"alpha must be >= 0, got {alpha}")
    return x.with_data(x.data - alpha * grad.data)
