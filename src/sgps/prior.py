"""Analytic priors and the denoiser interface.

A Gaussian mixture with shared isotropic component variance s^2 has a
closed-form posterior mean under additive Gaussian noise, which makes it a
denoiser whose Jacobian trace and Jacobian-vector products are exact.  That
gives every downstream estimator an oracle to test against.
"""
from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core import RngStream, SgpsError, Signal

_TWO_PI = 2.0 * np.pi
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Points whose mixture posterior a GmmDenoiser keeps.  One risk evaluation
# with mc_probes probes denoises 1 + mc_probes points and its gradient takes
# Jacobian products at the same points, so 16 covers mc_probes up to 15;
# beyond that the products recompute, with the same result.
MEMO_ENTRIES = 16


def logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) over a 1-D array.

    The maxima are split off the sum and counted.  This is the operation
    order of scipy.special.logsumexp, whose results it matches bit for bit
    at about an eighth of its per-call cost; like scipy's, a non-finite
    result falls back to the direct formula.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        at_max = a == a_max
        m = np.float64(np.count_nonzero(at_max))
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


def _check_sigma(sigma: float) -> float:
    s = float(sigma)
    if not np.isfinite(s) or s <= 0:
        raise SgpsError(f"noise level must be positive and finite, got {sigma}")
    return s


class Denoiser(abc.ABC):
    """The denoiser contract.

    Implementations map (noisy signal, noise level) to an estimate of the
    clean signal, and give exact products with the transpose of that map's
    Jacobian.  The risk gradient is built from those products alone, so it
    costs no denoiser evaluation and the evaluation budget holds for every
    denoiser.  Every method takes x as a flat float64 array of length n and
    leaves it unchanged; denoise returns a new array.
    """

    @abc.abstractmethod
    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Estimate of the clean signal given x at noise level sigma."""

    @abc.abstractmethod
    def jacobian_vjp(self, x: np.ndarray, sigma: float, v: np.ndarray) -> np.ndarray:
        """Exact J(x, sigma)^T v."""

    def jacobian_trace(self, x: np.ndarray, sigma: float) -> float:
        """Exact trace of d denoise / d x at (x, sigma)."""
        raise NotImplementedError(f"{type(self).__name__} has no exact Jacobian trace")


@dataclass(frozen=True)
class GmmPrior:
    """Mixture of K isotropic Gaussians with shared variance var_scale.

    weights: (K,), strictly positive, summing to 1 within 1e-12.
    means: (K, n) flat row-major component means, all sharing `shape`.
    """

    weights: np.ndarray
    means: np.ndarray
    var_scale: float
    shape: tuple[int, ...]

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64).reshape(-1)
        m = np.ascontiguousarray(self.means, dtype=np.float64)
        if m.ndim != 2:
            raise SgpsError(f"means must be a (K, n) array, got ndim={m.ndim}")
        if w.size != m.shape[0]:
            raise SgpsError(f"{w.size} weights for {m.shape[0]} means")
        if not np.all(w > 0):
            raise SgpsError("mixture weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise SgpsError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if not np.all(np.isfinite(m)):
            raise SgpsError("mixture means must be finite")
        if not 0 < float(self.var_scale) < np.inf:
            raise SgpsError(f"var_scale must be positive and finite, got {self.var_scale}")
        shape = tuple(int(s) for s in self.shape)
        if int(np.prod(shape)) != m.shape[1]:
            raise SgpsError(f"shape {shape} does not match mean length {m.shape[1]}")
        w.flags.writeable = False
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "var_scale", float(self.var_scale))
        object.__setattr__(self, "shape", shape)

    @property
    def k(self) -> int:
        return int(self.weights.size)

    @property
    def n(self) -> int:
        return int(self.means.shape[1])

    def draw(self, rng: RngStream) -> Signal:
        k = int(rng.gen.choice(self.k, p=self.weights))
        x = self.means[k] + np.sqrt(self.var_scale) * rng.normal(self.n)
        return Signal(x, self.shape)


class GmmDenoiser(Denoiser):
    """Posterior mean of a GmmPrior under additive Gaussian noise; its
    Jacobian products and trace are exact.

    The posterior at a point is a pure function of the point and the
    read-only mixture, so the last MEMO_ENTRIES points are kept and a
    repeat returns the same bits.
    """

    def __init__(self, prior: GmmPrior):
        self.prior = prior
        self._mean_sq = np.einsum("kn,kn->k", prior.means, prior.means)
        self._memo: OrderedDict = OrderedDict()

    def _log_resp(self, x: np.ndarray, smoothed_var: float) -> np.ndarray:
        """Log responsibilities at x, up to a constant shared by every k.

        ||x - m_k||^2 = ||x||^2 - 2 m_k.x + ||m_k||^2, and normalisation
        cancels ||x||^2.  Against subtract-and-square distances the moments
        differ by up to 1e-10 relative at mean amplitude 1 (4e-7 at 100);
        against extended precision this form was never the farther of the two.
        """
        d2 = self._mean_sq - 2.0 * (self.prior.means @ x)
        return np.log(self.prior.weights) - d2 / (2.0 * smoothed_var)

    def _moments(self, x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray, slice]:
        """Read-only responsibilities g at (x, sigma) and g @ means, and the
        span of g's nonzero entries, outside which g is exactly 0.0 (never
        empty: g's largest entry is 1, or NaN if the point overflowed)."""
        key = (float(sigma), x.tobytes())
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            return hit
        lr = self._log_resp(x, self.prior.var_scale + sigma * sigma)
        lr -= logsumexp(lr)
        g = np.exp(lr)
        nz = np.flatnonzero(g)
        span = slice(int(nz[0]), int(nz[-1]) + 1)
        mbar = g[span] @ self.prior.means[span]
        g.flags.writeable = False
        mbar.flags.writeable = False
        self._memo[key] = (g, mbar, span)
        if len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)
        return g, mbar, span

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """MMSE estimate of the clean signal given x = clean + sigma * noise."""
        sigma = _check_sigma(sigma)
        s2 = self.prior.var_scale
        mbar = self._moments(x, sigma)[1]
        return (s2 * x + sigma * sigma * mbar) / (s2 + sigma * sigma)

    def jacobian_trace(self, x: np.ndarray, sigma: float) -> float:
        """Exact trace of the posterior-mean Jacobian.

        J = (s^2 I + sig^2 C / v^2) / v^2 with C the responsibility-weighted
        covariance of the component means, so the trace needs only the
        weighted second moments, never an n x n matrix.
        """
        sigma = _check_sigma(sigma)
        s2 = self.prior.var_scale
        sig2 = sigma * sigma
        v2 = s2 + sig2
        g, mbar, _ = self._moments(x, sigma)
        trace_c = float(g @ self._mean_sq) - float(mbar @ mbar)
        return self.prior.n * s2 / v2 + sig2 * trace_c / (v2 * v2)

    def jacobian_vjp(self, x: np.ndarray, sigma: float, v: np.ndarray) -> np.ndarray:
        """J^T v; J is symmetric for this prior so this is also J v."""
        sigma = _check_sigma(sigma)
        s2 = self.prior.var_scale
        sig2 = sigma * sigma
        v2 = s2 + sig2
        g, mbar, span = self._moments(x, sigma)
        means = self.prior.means[span]
        cv = (g[span] * (means @ v)) @ means - mbar * float(mbar @ v)
        return (s2 * v) / v2 + sig2 * cv / (v2 * v2)


class PerturbedDenoiser(Denoiser):
    """Analytic denoiser plus a bounded deterministic perturbation.

    Emulates the residual structure of a learned denoiser while keeping every
    diagnostic exact.  The perturbation a * sin(f * x + phase) is bounded by
    |a|, differentiable, and a pure function of the input.
    """

    def __init__(self, base: Denoiser, amplitude: float, frequency: float = 1.0):
        if not (np.isfinite(amplitude) and np.isfinite(frequency)):
            raise SgpsError(f"perturbation must be finite, got {amplitude}, {frequency}")
        self.base = base
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)

    def _phase(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.float64)
        return _TWO_PI * np.mod(idx * _GOLDEN, 1.0)

    def _slope(self, x: np.ndarray) -> np.ndarray:
        """The perturbation's derivative: its Jacobian is this diagonal."""
        return self.amplitude * self.frequency * np.cos(self.frequency * x + self._phase(x.size))

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        _check_sigma(sigma)
        d = self.base.denoise(x, sigma)
        return d + self.amplitude * np.sin(self.frequency * x + self._phase(x.size))

    def jacobian_trace(self, x: np.ndarray, sigma: float) -> float:
        return self.base.jacobian_trace(x, sigma) + float(self._slope(x).sum())

    def jacobian_vjp(self, x: np.ndarray, sigma: float, v: np.ndarray) -> np.ndarray:
        return self.base.jacobian_vjp(x, sigma, v) + self._slope(x) * v


class CountingDenoiser(Denoiser):
    """Wrapper that counts forward evaluations of the wrapped denoiser.

    Jacobian diagnostics are delegated without counting; only denoise calls
    cost a function evaluation in the budget sense.
    """

    def __init__(self, base: Denoiser):
        self.base = base
        self.calls = 0

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        self.calls += 1
        return self.base.denoise(x, sigma)

    def jacobian_trace(self, x: np.ndarray, sigma: float) -> float:
        return self.base.jacobian_trace(x, sigma)

    def jacobian_vjp(self, x: np.ndarray, sigma: float, v: np.ndarray) -> np.ndarray:
        return self.base.jacobian_vjp(x, sigma, v)
