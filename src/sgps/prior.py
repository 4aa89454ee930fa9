"""Analytic priors and the denoiser interface.

A Gaussian mixture with shared isotropic component variance s^2 has a
closed-form posterior mean under additive Gaussian noise, which makes it a
denoiser whose score, Jacobian trace, and Jacobian-vector products are all
exact.  That gives every downstream estimator an oracle to test against.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core import RngStream, SgpsError, Signal

_TWO_PI = 2.0 * np.pi
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Points whose mixture posterior a GmmPrior keeps.  One risk evaluation
# with mc_probes probes denoises 1 + mc_probes points and its gradient takes
# Jacobian products at the same points, so 16 covers mc_probes up to 15;
# beyond that the products recompute, with the same result.
MEMO_ENTRIES = 16
# The distance pass works on about this many bytes of differences at a time
# (cache-resident, and few enough blocks that the loop costs little) instead
# of one K x n temporary.
_BLOCK_BYTES = 1 << 18
# einsum sums a row of at most this many entries (its iterator's buffer) in
# one inner loop, so the row's sum does not depend on the rows around it.
# Longer rows are cut at buffer boundaries that do, so they take one pass.
_EINSUM_ROW_MAX = 8192


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


class Denoiser:
    """Minimal denoiser interface.

    Implementations map (noisy signal, noise level) to an estimate of the
    clean signal.  has_analytic_jacobian advertises that jacobian_trace and
    jacobian_vjp are exact; consumers fall back to finite differences when
    it is False.
    """

    has_analytic_jacobian: bool = False

    def denoise(self, x: Signal, sigma: float) -> Signal:
        raise NotImplementedError

    def __call__(self, x: Signal, sigma: float) -> Signal:
        return self.denoise(x, sigma)

    def jacobian_trace(self, x: Signal, sigma: float) -> float:
        """Exact trace of d denoise / d x at (x, sigma)."""
        raise NotImplementedError(f"{type(self).__name__} has no exact Jacobian trace")

    def jacobian_vjp(self, x: Signal, sigma: float, v: np.ndarray) -> np.ndarray:
        """Exact J(x, sigma)^T v."""
        raise NotImplementedError(f"{type(self).__name__} has no analytic Jacobian products")


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
        if np.any(w <= 0):
            raise SgpsError("mixture weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise SgpsError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if not np.all(np.isfinite(m)):
            raise SgpsError("mixture means must be finite")
        if float(self.var_scale) <= 0:
            raise SgpsError(f"var_scale must be positive, got {self.var_scale}")
        shape = tuple(int(s) for s in self.shape)
        if int(np.prod(shape)) != m.shape[1]:
            raise SgpsError(f"shape {shape} does not match mean length {m.shape[1]}")
        w.flags.writeable = False
        m = m.copy()
        m.flags.writeable = False
        mean_sq = np.einsum("kn,kn->k", m, m)
        mean_sq.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "var_scale", float(self.var_scale))
        object.__setattr__(self, "shape", shape)
        # not fields, so eq and repr see only the mixture
        object.__setattr__(self, "_mean_sq", mean_sq)
        object.__setattr__(self, "_memo", OrderedDict())

    @property
    def k(self) -> int:
        return int(self.weights.size)

    @property
    def n(self) -> int:
        return int(self.means.shape[1])

    def _log_resp(self, xv: np.ndarray, smoothed_var: float) -> np.ndarray:
        k, n = self.means.shape
        rows = k if n > _EINSUM_ROW_MAX else max(1, _BLOCK_BYTES // (8 * n))
        d = np.empty((min(rows, k), n))
        sq = np.empty(k)
        for k0 in range(0, k, rows):
            blk = d[: min(rows, k - k0)]
            np.subtract(xv, self.means[k0 : k0 + rows], out=blk)
            np.einsum("kn,kn->k", blk, blk, out=sq[k0 : k0 + rows])
        return np.log(self.weights) - sq / (2.0 * smoothed_var)

    def _moments(self, xv: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Responsibilities g at (xv, sigma) and g @ means, both read-only.

        They are a pure function of the point and the read-only mixture, so
        the last MEMO_ENTRIES points are kept and a repeat returns the same
        bits a recomputation would.
        """
        key = (float(sigma), xv.tobytes())
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            return hit
        v2 = self.var_scale + sigma * sigma
        lr = self._log_resp(xv, v2)
        lr -= logsumexp(lr)
        g = np.exp(lr)
        mbar = g @ self.means
        g.flags.writeable = False
        mbar.flags.writeable = False
        self._memo[key] = (g, mbar)
        if len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)
        return g, mbar

    def responsibilities(self, xv: np.ndarray, sigma: float) -> np.ndarray:
        return self._moments(xv, sigma)[0]

    def log_density(self, x: Signal, sigma: float) -> float:
        """Log density of the sigma-smoothed mixture at x."""
        sigma = _check_sigma(sigma)
        v2 = self.var_scale + sigma * sigma
        lr = self._log_resp(x.data, v2)
        norm = 0.5 * self.n * np.log(_TWO_PI * v2)
        return float(logsumexp(lr) - norm)

    def posterior_mean(self, x: Signal, sigma: float) -> Signal:
        """MMSE estimate of the clean signal given x = clean + sigma * noise."""
        sigma = _check_sigma(sigma)
        s2 = self.var_scale
        v2 = s2 + sigma * sigma
        mbar = self._moments(x.data, sigma)[1]
        return x.with_data((s2 * x.data + sigma * sigma * mbar) / v2)

    def score(self, x: Signal, sigma: float) -> Signal:
        """Gradient of log_density at x."""
        sigma = _check_sigma(sigma)
        v2 = self.var_scale + sigma * sigma
        mbar = self._moments(x.data, sigma)[1]
        return x.with_data((mbar - x.data) / v2)

    def trace_jacobian(self, x: Signal, sigma: float) -> float:
        """Exact trace of the posterior-mean Jacobian.

        J = (s^2 I + sig^2 C / v^2) / v^2 with C the responsibility-weighted
        covariance of the component means, so the trace needs only the
        weighted second moments, never an n x n matrix.
        """
        sigma = _check_sigma(sigma)
        s2 = self.var_scale
        sig2 = sigma * sigma
        v2 = s2 + sig2
        g, mbar = self._moments(x.data, sigma)
        second = float(g @ self._mean_sq)
        trace_c = second - float(mbar @ mbar)
        return self.n * s2 / v2 + sig2 * trace_c / (v2 * v2)

    def jacobian_vjp(self, x: Signal, sigma: float, v: np.ndarray) -> np.ndarray:
        """J^T v; J is symmetric for this prior so this is also J v."""
        sigma = _check_sigma(sigma)
        s2 = self.var_scale
        sig2 = sigma * sigma
        v2 = s2 + sig2
        g, mbar = self._moments(x.data, sigma)
        proj = self.means @ v
        cv = (g * proj) @ self.means - mbar * float(mbar @ v)
        return (s2 * v) / v2 + sig2 * cv / (v2 * v2)

    def draw(self, rng: RngStream) -> Signal:
        k = int(rng.gen.choice(self.k, p=self.weights))
        x = self.means[k] + np.sqrt(self.var_scale) * rng.normal(self.n)
        return Signal(x, self.shape)


class GmmDenoiser(Denoiser):
    """Denoiser view of a GmmPrior; all diagnostics are exact."""

    has_analytic_jacobian = True

    def __init__(self, prior: GmmPrior):
        self.prior = prior

    def denoise(self, x: Signal, sigma: float) -> Signal:
        return self.prior.posterior_mean(x, sigma)

    def jacobian_trace(self, x: Signal, sigma: float) -> float:
        return self.prior.trace_jacobian(x, sigma)

    def jacobian_vjp(self, x: Signal, sigma: float, v: np.ndarray) -> np.ndarray:
        return self.prior.jacobian_vjp(x, sigma, v)


class PerturbedDenoiser(Denoiser):
    """Analytic denoiser plus a bounded deterministic perturbation.

    Emulates the residual structure of a learned denoiser while keeping every
    diagnostic exact.  The perturbation a * sin(f * x + phase) is bounded by
    |a|, differentiable, and a pure function of the input; amplitude 0 (the
    default) reduces to the wrapped denoiser exactly.
    """

    has_analytic_jacobian = True

    def __init__(self, base: Denoiser, amplitude: float = 0.0, frequency: float = 1.0):
        if not base.has_analytic_jacobian:
            raise SgpsError("PerturbedDenoiser needs an analytic base denoiser")
        self.base = base
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)

    def _phase(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.float64)
        return _TWO_PI * np.mod(idx * _GOLDEN, 1.0)

    def denoise(self, x: Signal, sigma: float) -> Signal:
        _check_sigma(sigma)
        d = self.base.denoise(x, sigma)
        if self.amplitude == 0.0:
            return d
        bump = self.amplitude * np.sin(self.frequency * x.data + self._phase(x.n))
        return x.with_data(d.data + bump)

    def jacobian_trace(self, x: Signal, sigma: float) -> float:
        t = self.base.jacobian_trace(x, sigma)
        if self.amplitude == 0.0:
            return t
        diag = self.amplitude * self.frequency * np.cos(
            self.frequency * x.data + self._phase(x.n)
        )
        return t + float(diag.sum())

    def jacobian_vjp(self, x: Signal, sigma: float, v: np.ndarray) -> np.ndarray:
        out = self.base.jacobian_vjp(x, sigma, v)
        if self.amplitude == 0.0:
            return out
        diag = self.amplitude * self.frequency * np.cos(
            self.frequency * x.data + self._phase(x.n)
        )
        return out + diag * v


class LinearDenoiser(Denoiser):
    """D(x) = M x + offset with a stored matrix; trace and products are exact.

    The noise level argument is validated but otherwise ignored, which makes
    this the reference case for trace-estimator tests.
    """

    has_analytic_jacobian = True

    def __init__(self, matrix: np.ndarray, offset: np.ndarray | None = None):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SgpsError(f"matrix must be square, got shape {m.shape}")
        self.matrix = m
        self.offset = (
            np.zeros(m.shape[0]) if offset is None else np.asarray(offset, dtype=np.float64)
        )

    def denoise(self, x: Signal, sigma: float) -> Signal:
        _check_sigma(sigma)
        return x.with_data(self.matrix @ x.data + self.offset)

    def jacobian_trace(self, x: Signal, sigma: float) -> float:
        _check_sigma(sigma)
        return float(np.trace(self.matrix))

    def jacobian_vjp(self, x: Signal, sigma: float, v: np.ndarray) -> np.ndarray:
        _check_sigma(sigma)
        return self.matrix.T @ v


class CountingDenoiser(Denoiser):
    """Wrapper that counts forward evaluations of the wrapped denoiser.

    Jacobian diagnostics are delegated without counting; only denoise calls
    cost a function evaluation in the budget sense.
    """

    def __init__(self, base: Denoiser):
        self.base = base
        self.calls = 0
        self.has_analytic_jacobian = base.has_analytic_jacobian

    def denoise(self, x: Signal, sigma: float) -> Signal:
        self.calls += 1
        return self.base.denoise(x, sigma)

    def jacobian_trace(self, x: Signal, sigma: float) -> float:
        return self.base.jacobian_trace(x, sigma)

    def jacobian_vjp(self, x: Signal, sigma: float, v: np.ndarray) -> np.ndarray:
        return self.base.jacobian_vjp(x, sigma, v)
