"""Analytic priors and the denoiser interface.

A Gaussian mixture with shared isotropic component variance s^2 has a
closed-form posterior mean under additive Gaussian noise, which makes it a
denoiser whose Jacobian trace and Jacobian-vector products are exact.  That
gives every downstream estimator an oracle to test against.
"""
from __future__ import annotations

import abc
import threading
from dataclasses import dataclass

import numpy as np

from .core import RngStream, SgpsError, Signal

_TWO_PI = 2.0 * np.pi
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis of a 2-D array, as a (B, 1) column.

    The maxima are split off the sum and counted.  This is the operation
    order of scipy.special.logsumexp, whose results it matches bit for bit
    row by row at a fraction of its per-call cost; like scipy's, a
    non-finite result falls back to the direct formula.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        m = np.count_nonzero(at_max, axis=1, keepdims=True).astype(np.float64)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s != 0, s / m, s)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out[:, 0])
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1, keepdims=True))
    return out


def _levels(xs: np.ndarray, sigmas) -> np.ndarray:
    """The rows' noise levels as a (B, 1) column, one positive finite level
    per row."""
    s = np.asarray(sigmas, dtype=np.float64).reshape(-1, 1)
    if len(s) != len(xs):
        raise SgpsError(f"{len(s)} noise levels for {len(xs)} rows")
    if not np.all((s > 0) & np.isfinite(s)):
        raise SgpsError(f"noise levels must be positive and finite, got {s[:, 0]}")
    return s


class Denoiser(abc.ABC):
    """The denoiser contract.

    Implementations map (noisy signal, noise level) to an estimate of the
    clean signal, and give exact products with the transpose of that map's
    Jacobian.  The risk gradient is built from those products alone, so it
    costs no denoiser evaluation and the evaluation budget holds for every
    denoiser.  Every method takes xs as a (B, n) float64 array, one point
    per row, and sigmas as B noise levels, one per row, and leaves xs
    unchanged; row b of the result is the result for row b alone.
    """

    @abc.abstractmethod
    def denoise(self, xs: np.ndarray, sigmas) -> np.ndarray:
        """New (B, n) array: each row's estimate of the clean signal given
        that row at its level."""

    @abc.abstractmethod
    def jacobian_vjp(self, xs: np.ndarray, sigmas, vs: np.ndarray) -> np.ndarray:
        """(B, n) array of the exact products J(x_b, sigma_b)^T v_b."""

    def jacobian_trace(self, xs: np.ndarray, sigmas) -> np.ndarray:
        """(B,) array of the exact traces of d denoise / d x at each row."""
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

    The posterior at a point is a pure function of the point, its level and
    the read-only mixture.  Each thread keeps its latest call that computed
    anything, so a call at its rows, such as a risk gradient at the points
    its value denoised, computes nothing and returns the same bits, also
    when threads share the denoiser.
    """

    def __init__(self, prior: GmmPrior):
        self.prior = prior
        self._mean_sq = np.einsum("kn,kn->k", prior.means, prior.means)
        # per thread, the kept call: (level, row bytes) -> row, and per row
        # the responsibilities, posterior mean and nonzero span
        self._kept = threading.local()

    def _log_resp(self, xs: np.ndarray, smoothed_var: np.ndarray) -> np.ndarray:
        """(B, K) log responsibilities at the rows xs, each row up to a
        constant shared by every k; smoothed_var is a (B, 1) column.

        ||x - m_k||^2 = ||x||^2 - 2 m_k.x + ||m_k||^2, and normalisation
        cancels ||x||^2, so every row's distances come from one product
        xs @ means^T.  Against subtract-and-square distances the moments
        differ by up to 1e-10 relative at mean amplitude 1 (4e-7 at 100);
        against extended precision this form was never the farther of the two.
        """
        d2 = self._mean_sq - 2.0 * (xs @ self.prior.means.T)
        return np.log(self.prior.weights) - d2 / (2.0 * smoothed_var)

    def _posterior(self, xs: np.ndarray, sig: np.ndarray) -> tuple:
        """(B, K) responsibilities g, the (B, n) products g @ means, and each
        row's span [first, stop) of nonzero entries, outside which g is
        exactly 0.0 (never empty: g's largest entry is 1, or NaN if the row
        overflowed).  The posterior means are one product over the union
        of the spans."""
        lr = self._log_resp(xs, self.prior.var_scale + sig * sig)
        lr -= logsumexp(lr)
        g = np.exp(lr)
        nz = g != 0
        first = nz.argmax(axis=1)
        stop = nz.shape[1] - nz[:, ::-1].argmax(axis=1)
        span = slice(int(first.min()), int(stop.max()))
        mbar = g[:, span] @ self.prior.means[span]
        return g, mbar, first, stop

    def _moments(self, xs: np.ndarray, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray, slice]:
        """(B, K) responsibilities and (B, n) posterior means at the rows
        xs with the (B, 1) levels sig, and the union of the rows' nonzero
        spans.  Unless the kept call holds every row, each distinct row is
        computed once, in order of first appearance, and this call is kept."""
        keys = [(s, x.tobytes()) for x, s in zip(xs, sig[:, 0].tolist())]
        held = getattr(self._kept, "call", None)
        if held is None or not all(key in held[0] for key in keys):
            order: dict = {}
            for i, key in enumerate(keys):
                order.setdefault(key, i)
            at = list(order.values())
            held = self._kept.call = (dict(zip(order, range(len(order)))),
                                      self._posterior(xs[at], sig[at]))
        index, (g, mbar, first, stop) = held
        rows = [index[key] for key in keys]
        return g[rows], mbar[rows], slice(int(first[rows].min()), int(stop[rows].max()))

    def denoise(self, xs: np.ndarray, sigmas) -> np.ndarray:
        """MMSE estimate of the clean signal given x = clean + sigma * noise."""
        sig = _levels(xs, sigmas)
        s2 = self.prior.var_scale
        mbar = self._moments(xs, sig)[1]
        return (s2 * xs + sig * sig * mbar) / (s2 + sig * sig)

    def jacobian_trace(self, xs: np.ndarray, sigmas) -> np.ndarray:
        """Exact trace of the posterior-mean Jacobian.

        J = (s^2 I + sig^2 C / v^2) / v^2 with C the responsibility-weighted
        covariance of the component means, so the trace needs only the
        weighted second moments, never an n x n matrix.
        """
        sig = _levels(xs, sigmas)
        s2 = self.prior.var_scale
        sig2 = (sig * sig)[:, 0]
        v2 = s2 + sig2
        g, mbar, _ = self._moments(xs, sig)
        trace_c = g @ self._mean_sq - np.einsum("bn,bn->b", mbar, mbar)
        return self.prior.n * s2 / v2 + sig2 * trace_c / (v2 * v2)

    def jacobian_vjp(self, xs: np.ndarray, sigmas, vs: np.ndarray) -> np.ndarray:
        """J^T v; J is symmetric for this prior so this is also J v.

        C v is written in the covariance's centred form (g * (p - g.p)) @
        means with p = means @ v, two products for all rows.  For one
        component g is exactly 1 and p - g.p exactly 0, so C v is exactly 0.
        """
        sig = _levels(xs, sigmas)
        s2 = self.prior.var_scale
        sig2 = sig * sig
        v2 = s2 + sig2
        g, _, span = self._moments(xs, sig)
        means = self.prior.means[span]
        g = g[:, span]
        p = vs @ means.T
        p -= np.einsum("bk,bk->b", g, p)[:, None]
        cv = (g * p) @ means
        return (s2 * vs) / v2 + sig2 * cv / (v2 * v2)


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

    def _slope(self, xs: np.ndarray) -> np.ndarray:
        """The perturbation's derivative: its Jacobian is this diagonal."""
        wave = self.frequency * xs + self._phase(xs.shape[1])
        return self.amplitude * self.frequency * np.cos(wave)

    def denoise(self, xs: np.ndarray, sigmas) -> np.ndarray:
        _levels(xs, sigmas)
        d = self.base.denoise(xs, sigmas)
        return d + self.amplitude * np.sin(self.frequency * xs + self._phase(xs.shape[1]))

    def jacobian_trace(self, xs: np.ndarray, sigmas) -> np.ndarray:
        return self.base.jacobian_trace(xs, sigmas) + self._slope(xs).sum(axis=1)

    def jacobian_vjp(self, xs: np.ndarray, sigmas, vs: np.ndarray) -> np.ndarray:
        return self.base.jacobian_vjp(xs, sigmas, vs) + self._slope(xs) * vs


class CountingDenoiser(Denoiser):
    """Wrapper that counts forward evaluations of the wrapped denoiser.

    Each denoised row is one evaluation in the budget sense, however many
    rows a call takes.  Jacobian diagnostics are delegated without counting.
    """

    def __init__(self, base: Denoiser):
        self.base = base
        self.calls = 0

    def denoise(self, xs: np.ndarray, sigmas) -> np.ndarray:
        self.calls += len(xs)
        return self.base.denoise(xs, sigmas)

    def jacobian_trace(self, xs: np.ndarray, sigmas) -> np.ndarray:
        return self.base.jacobian_trace(xs, sigmas)

    def jacobian_vjp(self, xs: np.ndarray, sigmas, vs: np.ndarray) -> np.ndarray:
        return self.base.jacobian_vjp(xs, sigmas, vs)
