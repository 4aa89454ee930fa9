"""Unbiased risk estimation for a denoiser applied to noisy input.

For x = clean + sigma * noise the quantity

    -n sigma^2 + ||x - D(x)||^2 + 2 sigma^2 tr(dD/dx)

has the same expectation as the mean squared error of D(x) against the
clean signal, without access to the clean signal.  The trace is estimated
with Gaussian probes; its gradient with respect to x (probe, step size, and
sigma held fixed) drives the sample update.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import RngStream, RoundoffWarning, SamplerConfig, SgpsError, Signal
from .prior import Denoiser

EPSILON_ABS_FLOOR = 1e-6


def probe_epsilon(x_noisy: Signal, divisor: float) -> float:
    """Probe step max(x)/divisor, floored at 1e-6 * (1 + max|x|)."""
    if divisor <= 0:
        raise SgpsError(f"epsilon divisor must be positive, got {divisor}")
    top = float(np.max(x_noisy.data)) / divisor
    floor = EPSILON_ABS_FLOOR * (1.0 + float(np.max(np.abs(x_noisy.data))))
    return max(top, floor)


def sure_identity(n: int, sigma_hat: float, data_term: float, trace_estimate: float) -> float:
    """The defining combination; kept as one expression so callers can
    recompute a stored value bit for bit."""
    s2 = sigma_hat * sigma_hat
    return -(n * s2) + data_term + 2.0 * s2 * trace_estimate


def _trace_with_probes(
    den: Denoiser,
    x_noisy: Signal,
    sigma_hat: float,
    epsilon: float,
    probes: np.ndarray,
    base: Signal,
) -> float:
    """Probe-averaged trace estimate sharing a precomputed base output."""
    sigma_probe = max(epsilon, sigma_hat)
    total = 0.0
    for b in probes:
        perturbed = den.denoise(x_noisy.with_data(x_noisy.data + epsilon * b), sigma_probe)
        if np.array_equal(perturbed.data, base.data):
            warnings.warn(
                f"probe step {epsilon} produced no representable output change",
                RoundoffWarning,
                stacklevel=3,
            )
        total += float(b @ (perturbed.data - base.data)) / epsilon
    return total / probes.shape[0]


def mc_trace(
    den: Denoiser,
    x_noisy: Signal,
    sigma: float,
    probes: int,
    epsilon: float,
    rng: RngStream,
    base: Signal | None = None,
) -> float:
    """Monte Carlo Jacobian trace of the denoiser at (x_noisy, sigma).

    Each of the `probes` Gaussian probes costs one extra denoiser
    evaluation; the unperturbed output is computed once (or passed in).
    """
    if probes < 1:
        raise SgpsError(f"probes must be >= 1, got {probes}")
    if epsilon <= 0:
        raise SgpsError(f"epsilon must be positive, got {epsilon}")
    if base is None:
        base = den.denoise(x_noisy, sigma)
    b = rng.standard_normal((int(probes), x_noisy.n))
    return _trace_with_probes(den, x_noisy, sigma, epsilon, b, base)


@dataclass(frozen=True)
class SureEvaluation:
    """One risk evaluation: where it was taken, its terms, and the frozen
    probes and base output its gradient reuses."""

    point: Signal
    value: float
    data_term: float
    trace_estimate: float
    sigma_used: float
    epsilon: float
    probes: np.ndarray
    denoised: Signal

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
    fixed; the gradient differentiates this function of x."""
    xhat = den.denoise(x, sigma_hat)
    trace = _trace_with_probes(den, x, sigma_hat, epsilon, probes, xhat)
    resid = x.data - xhat.data
    data_term = float(resid @ resid)
    return SureEvaluation(
        point=x,
        value=sure_identity(x.n, sigma_hat, data_term, trace),
        data_term=data_term,
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
    eps = probe_epsilon(x_noisy, cfg.epsilon_divisor)
    probes = rng.standard_normal((cfg.mc_probes, x_noisy.n))
    return _evaluate(den, x_noisy, sigma_hat, eps, probes)


def sure_gradient(den: Denoiser, evaluation: SureEvaluation) -> Signal:
    """Gradient of the risk expression with respect to the noisy input, at
    the evaluation's point.

    sigma_hat, the probe step, and the probes are the evaluation's and are
    treated as constants.  With an analytic denoiser the gradient uses
    exact Jacobian products and the evaluation's base output, and costs no
    extra denoiser evaluations; otherwise central differences with step
    1e-4 * (1 + max|x|) are used.
    """
    x = evaluation.point
    sigma_hat = evaluation.sigma_used
    eps = evaluation.epsilon
    probes = evaluation.probes

    if den.has_analytic_jacobian:
        s2 = sigma_hat * sigma_hat
        sigma_probe = max(eps, sigma_hat)
        resid = x.data - evaluation.denoised.data
        g = 2.0 * (resid - den.jacobian_vjp(x, sigma_hat, resid))
        acc = np.zeros(x.n)
        for b in probes:
            shifted = x.with_data(x.data + eps * b)
            acc += den.jacobian_vjp(shifted, sigma_probe, b)
            acc -= den.jacobian_vjp(x, sigma_hat, b)
        g += (2.0 * s2 / (eps * probes.shape[0])) * acc
        return x.with_data(g)

    h = 1e-4 * (1.0 + float(np.max(np.abs(x.data))))
    g = np.zeros(x.n)
    for i in range(x.n):
        step = np.zeros_like(x.data)
        step[i] = h
        fp = _evaluate(den, x.with_data(x.data + step), sigma_hat, eps, probes).value
        fm = _evaluate(den, x.with_data(x.data - step), sigma_hat, eps, probes).value
        g[i] = (fp - fm) / (2.0 * h)
    return x.with_data(g)


def sure_update(x: Signal, grad: Signal, alpha: float) -> Signal:
    """Gradient step x - alpha * grad."""
    if x.shape != grad.shape:
        raise SgpsError(f"shape mismatch: {x.shape} vs {grad.shape}")
    if alpha < 0:
        raise SgpsError(f"alpha must be >= 0, got {alpha}")
    return x.with_data(x.data - alpha * grad.data)
