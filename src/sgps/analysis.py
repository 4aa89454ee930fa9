"""Statistical diagnostics: normality checks, Gaussian divergences, and the
desk-scale validation experiments built from them."""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import RngStream, SamplerConfig, SgpsError, Signal
from .guidance import langevin_guide
from .noise_est import PatchConfig, estimate_sigma
from .operators import ForwardOp
from .prior import Denoiser, GmmPrior
# denoise_step stays a name here for bench/workloads.py's tracer
from .sampler import correction_level, denoise_step, probe_stream, walk_ladder  # noqa: F401
from .sure import sure_gradient, sure_update, sure_value


@dataclass(frozen=True)
class NormalityReport:
    count: int
    qq_correlation: float
    skewness: float
    excess_kurtosis: float


def _qq_correlation(sorted_std: np.ndarray) -> float:
    # scipy.special costs start-up time that only the normality checks need
    from scipy.special import ndtri

    n = sorted_std.size
    # Blom plotting positions for the normal probability plot
    q = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    return float(np.corrcoef(sorted_std, q)[0, 1])


def normality_report(samples: np.ndarray) -> NormalityReport:
    """Probability-plot correlation, skewness, and excess kurtosis of a
    sample, after standardization.  Needs >= 100 values with spread."""
    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    if x.size < 100:
        raise SgpsError(f"need at least 100 samples, got {x.size}")
    mu = float(x.mean())
    sd = float(x.std())
    if sd == 0.0:
        raise SgpsError("samples have zero variance")
    z = (x - mu) / sd
    m2 = float(np.mean(z * z))
    m3 = float(np.mean(z**3))
    m4 = float(np.mean(z**4))
    return NormalityReport(
        count=int(x.size),
        qq_correlation=_qq_correlation(np.sort(z)),
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
    )


def qq_correlation_threshold(
    n: int, trials: int, quantile: float, rng: RngStream
) -> float:
    """Null-calibrated acceptance threshold: the given quantile of the
    probability-plot correlation over Gaussian samples of matched size."""
    vals = np.empty(trials)
    for t in range(trials):
        z = rng.normal(n)
        z = (z - z.mean()) / z.std()
        vals[t] = _qq_correlation(np.sort(z))
    return float(np.quantile(vals, quantile))


def gaussian_w2(mean_a: np.ndarray, std_a: float, mean_b: np.ndarray, std_b: float) -> float:
    """Squared 2-Wasserstein distance between isotropic Gaussians:
    ||mu_a - mu_b||^2 + n (std_a - std_b)^2."""
    if std_a < 0 or std_b < 0:
        raise SgpsError("standard deviations must be nonnegative")
    if mean_a.size != mean_b.size:
        raise SgpsError(f"mean lengths differ: {mean_a.size} vs {mean_b.size}")
    d = mean_a - mean_b
    return float(d @ d + mean_a.size * (std_a - std_b) ** 2)


def kl_gaussian(mean_q: np.ndarray, std_q: float, mean_p: np.ndarray, std_p: float) -> float:
    """KL(N(mu_q, std_q^2 I) || N(mu_p, std_p^2 I)); asymmetric in its
    arguments."""
    if std_q <= 0 or std_p <= 0:
        raise SgpsError("standard deviations must be positive")
    if mean_q.size != mean_p.size:
        raise SgpsError(f"mean lengths differ: {mean_q.size} vs {mean_p.size}")
    vq = std_q * std_q
    vp = std_p * std_p
    d = mean_q - mean_p
    return float(
        mean_q.size * (math.log(std_p / std_q) + vq / (2.0 * vp) - 0.5) + d @ d / (2.0 * vp)
    )


def fit_isotropic_gaussian(samples: np.ndarray) -> tuple[np.ndarray, float]:
    """Empirical mean vector and pooled scalar standard deviation of an
    (m, n) sample matrix."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise SgpsError("need an (m, n) matrix with m >= 2")
    mu = x.mean(axis=0)
    sd = float(np.sqrt(np.mean((x - mu) ** 2)))
    return mu, sd


def loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    if lx.size != ly.size or lx.size < 2:
        raise SgpsError("need matching sequences of length >= 2")
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def linear_gaussian_posterior(
    prior: GmmPrior, op: ForwardOp, y: Signal, sigma_y: float
) -> tuple[Signal, np.ndarray]:
    """Exact posterior mean and covariance for a single-component Gaussian
    prior under a linear operator, by dense linear algebra.

    The operator matrix is materialized column by column through apply, so
    this oracle does not rely on the operator's own adjoint.
    """
    if prior.k != 1:
        raise SgpsError("closed-form posterior needs a single-component prior")
    if not op.linear:
        raise SgpsError("closed-form posterior needs a linear operator")
    n = prior.n
    if math.prod(op.input_shape) != n:
        raise SgpsError(f"operator input {op.input_shape} does not match prior length {n}")
    # row i of the batch is A e_i, so the matrix is its transpose
    a = np.ascontiguousarray(op.apply(np.eye(n)).T)
    s2 = prior.var_scale
    sy2 = sigma_y * sigma_y
    precision = np.eye(n) / s2 + a.T @ a / sy2
    cov = np.linalg.inv(precision)
    mean = cov @ (prior.means[0] / s2 + a.T @ y.data / sy2)
    return Signal(mean, op.input_shape), cov


def smooth_field(rng: RngStream, shape: tuple[int, ...], amplitude: float = 1.0) -> Signal:
    """Low-rank smooth test signal: random planar gradients plus two broad
    bumps.  Its patch covariance has only a handful of nonzero directions,
    which is what the noise-floor scan assumes about clean content."""
    if len(shape) == 1:
        t = np.linspace(-1.0, 1.0, shape[0])
        coef = rng.normal(3)
        field = coef[0] * t + coef[1] * np.exp(-((t - 0.3) ** 2) / 0.08)
        field += coef[2] * np.exp(-((t + 0.4) ** 2) / 0.05)
        return Signal(amplitude * field, shape)
    h, w = shape
    yy, xx = np.meshgrid(
        np.linspace(-1.0, 1.0, h), np.linspace(-1.0, 1.0, w), indexing="ij"
    )
    coef = rng.normal(5)
    field = coef[0] * xx + coef[1] * yy + 0.5 * coef[2] * xx * yy
    field += coef[3] * np.exp(-((xx - 0.2) ** 2 + (yy + 0.1) ** 2) / 0.18)
    field += coef[4] * np.exp(-((xx + 0.4) ** 2 + (yy - 0.3) ** 2) / 0.10)
    return Signal(amplitude * field.reshape(-1), shape)


def sigma_sweep(
    sigmas,
    images: int,
    shape: tuple[int, ...],
    patch: PatchConfig,
    seed: int,
    amplitude: float = 0.5,
) -> list[dict]:
    """Estimator accuracy across noise levels on smooth synthetic images.

    Returns one row per level with the mean estimate and its relative error.
    """
    if images < 1:
        raise SgpsError(f"need at least 1 image per level, got {images}")
    sigmas = [float(s) for s in sigmas]
    for sigma in sigmas:
        if not (math.isfinite(sigma) and sigma > 0):
            raise SgpsError(f"noise levels must be finite and positive, got {sigma}")
    rows = []
    stream = 0
    for sigma in sigmas:
        ests = []
        for _ in range(images):
            rng = RngStream(seed, stream)
            stream += 1
            base = smooth_field(rng, shape, amplitude)
            noisy = base.with_data(base.data + sigma * rng.normal(base.n))
            ests.append(estimate_sigma(noisy, patch))
        mean_est = float(np.mean(ests))
        rows.append(
            {
                "sigma": sigma,
                "mean_estimate": mean_est,
                "rel_error": mean_est / sigma - 1.0,
            }
        )
    return rows


def w2_scaling_curve(
    op: ForwardOp,
    y: Signal,
    anchor: Signal,
    sigma_t: float,
    cfg: SamplerConfig,
    etas,
    samples: int,
    seed: int,
) -> list[tuple[float, float]]:
    """Squared W2 between the one-step guidance residual and the combined
    Gaussian N(0, (sigma_t^2 + 2 eta) I), as a function of the step size.

    Incoming samples are anchor + sigma_t * noise, drawn from stream i of
    the seed, which then drives sample i's guide step; all samples of one
    step size are guided as one batch.  Common random numbers are used
    across step sizes so the curve is a smooth function of eta.  Means and
    spreads are fit empirically and compared with the closed-form Gaussian
    W2.
    """
    if samples < 2:
        raise SgpsError(f"the Gaussian fit needs at least 2 samples, got {samples}")
    n = anchor.n
    anchors = np.broadcast_to(anchor.data, (samples, n))
    out = []
    for eta in etas:
        step_cfg = cfg.replace(langevin_steps=1, langevin_eta=float(eta))
        rngs = [RngStream(seed, i) for i in range(samples)]
        x0 = np.stack([anchor.data + sigma_t * rng.normal(n) for rng in rngs])
        resid = langevin_guide(x0, anchors, sigma_t, op, y, step_cfg, rngs) - anchor.data
        mu, sd = fit_isotropic_gaussian(resid)
        combined = math.sqrt(sigma_t * sigma_t + 2.0 * float(eta))
        out.append((float(eta), gaussian_w2(mu, sd, np.zeros(n), combined)))
    return out


def chain_prefix(
    den: Denoiser,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    rngs: Sequence[RngStream],
    depth: int,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """First `depth` steps of the sampler's chain with the correction off,
    one chain per stream, run as one batch: per step the noise level and
    the (B, n) denoised and guided rows.  Row b is the chain that rngs[b]
    alone walks."""
    states = []

    def keep(k: int, sigma_t: float, x0t: np.ndarray, x0ty: np.ndarray) -> np.ndarray:
        states.append((sigma_t, x0t, x0ty))
        return x0ty

    walk_ladder(den, op, y, cfg, rngs, keep, depth)
    return states


def kl_trend_trials(
    den: Denoiser,
    prior: GmmPrior,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    patch: PatchConfig,
    trials: int,
    samples: int,
    depth: int,
    seed: int,
) -> np.ndarray:
    """KL to the exact posterior before and after one risk-gradient update.

    Each trial runs `samples` independent uncorrected chains, as one batch,
    down to ladder index `depth` and updates each once at the sampler's
    correction_level (a chain the sampler would skip stays as it is).
    Isotropic Gaussians fit to the guided and to the updated population are
    compared by closed-form KL with the exact linear-Gaussian posterior.
    Returns (trials, 2) with columns (kl_before, kl_after).
    """
    post_mean, post_cov = linear_gaussian_posterior(prior, op, y, cfg.sigma_y)
    post_std = float(np.sqrt(np.mean(np.diag(post_cov))))
    out = np.empty((trials, 2))
    for t in range(trials):
        rngs = [RngStream(seed, (t << 20) + i) for i in range(samples)]
        sigma_t, _, before = chain_prefix(den, op, y, cfg, rngs, depth)[-1]
        after = before.copy()
        for i, rng in enumerate(rngs):
            x0ty = Signal(before[i], op.input_shape)
            sigma_hat = correction_level(estimate_sigma(x0ty, patch), sigma_t, cfg)
            if sigma_hat is None:
                continue
            ev = sure_value(den, x0ty, sigma_hat, cfg, probe_stream(rng))
            grad = sure_gradient(den, ev)
            after[i] = sure_update(x0ty, grad, cfg.alpha).data
        mu_b, sd_b = fit_isotropic_gaussian(before)
        mu_a, sd_a = fit_isotropic_gaussian(after)
        out[t, 0] = kl_gaussian(mu_b, sd_b, post_mean.data, post_std)
        out[t, 1] = kl_gaussian(mu_a, sd_a, post_mean.data, post_std)
    return out
