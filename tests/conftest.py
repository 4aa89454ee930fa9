"""Shared test oracles."""
import threading

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from sgps.core import RngStream, SgpsError
from sgps.prior import Denoiser
from sgps.sure import _evaluate


def _central_difference_gradient(den, evaluation):
    """Central differences, step 1e-4 * (1 + max|x|), of the risk expression
    the evaluation froze: its sigma_used, epsilon and probes held fixed."""
    x = evaluation.point
    h = 1e-4 * (1.0 + float(np.max(np.abs(x.data))))
    g = np.zeros(x.n)
    for i in range(x.n):
        step = np.zeros(x.n)
        step[i] = h
        f = [
            _evaluate(den, x.with_data(x.data + s), evaluation.sigma_used,
                      evaluation.epsilon, evaluation.probes).value
            for s in (step, -step)
        ]
        g[i] = (f[0] - f[1]) / (2.0 * h)
    return x.with_data(g)


@pytest.fixture
def central_difference_gradient():
    """The reference the exact risk gradient is checked against."""
    return _central_difference_gradient


class LinearDenoiser(Denoiser):
    """D(x) = M x + offset with a stored matrix; trace and products are exact.

    The noise level is ignored, which makes this the reference case for
    trace-estimator tests.
    """

    def __init__(self, matrix, offset=None):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SgpsError(f"matrix must be square, got shape {m.shape}")
        self.matrix = m
        self.offset = np.zeros(len(m)) if offset is None else np.asarray(offset, dtype=np.float64)

    def denoise(self, xs, sigmas):
        return xs @ self.matrix.T + self.offset

    def jacobian_trace(self, xs, sigmas):
        return np.full(len(xs), float(np.trace(self.matrix)))

    def jacobian_vjp(self, xs, sigmas, vs):
        return vs @ self.matrix


@pytest.fixture
def linear_denoiser():
    """The LinearDenoiser class."""
    return LinearDenoiser


def _mixture_moments(den, xv, sigma):
    """A GmmDenoiser's responsibilities and posterior mean at the flat point xv."""
    g, mbar, _ = den._moments(xv[None], np.array([[sigma]]))
    return g[0], mbar[0]


def _mixture_score(den, xv, sigma):
    """Gradient of the sigma-smoothed mixture's log density at the flat point
    xv, (g @ means - x) / (s^2 + sigma^2), from a GmmDenoiser's own moments."""
    v2 = den.prior.var_scale + sigma * sigma
    return (_mixture_moments(den, xv, sigma)[1] - xv) / v2


def _mixture_responsibilities(den, xv, sigma):
    """Posterior component probabilities of a GmmDenoiser at the flat point xv."""
    return _mixture_moments(den, xv, sigma)[0]


def _mixture_direct(prior, xv, sigma, v):
    """The posterior mean, jacobian_vjp(v) and jacobian_trace at the flat
    point xv from subtract-and-square distances and products over all K
    components."""
    s2, sig2 = prior.var_scale, sigma * sigma
    v2 = s2 + sig2
    d = xv[None, :] - prior.means
    lr = np.log(prior.weights) - np.einsum("kn,kn->k", d, d) / (2.0 * v2)
    g = np.exp(lr - logsumexp(lr))
    mbar = g @ prior.means
    cv = (g * (prior.means @ v)) @ prior.means - mbar * (mbar @ v)
    second = g @ np.einsum("kn,kn->k", prior.means, prior.means)
    return ((s2 * xv + sig2 * mbar) / v2, s2 * v / v2 + sig2 * cv / (v2 * v2),
            prior.n * s2 / v2 + sig2 * (second - mbar @ mbar) / (v2 * v2))


def _mixture_log_density(prior, xv, sigma):
    """Log density at xv of the sigma-smoothed mixture, from scipy's
    multivariate normal and nothing of the prior but its parameters."""
    cov = (prior.var_scale + sigma * sigma) * np.eye(prior.n)
    logs = [multivariate_normal(mean=m, cov=cov).logpdf(xv) for m in prior.means]
    return float(logsumexp(np.log(prior.weights) + np.array(logs)))


@pytest.fixture
def mixture_score():
    return _mixture_score


@pytest.fixture
def mixture_responsibilities():
    return _mixture_responsibilities


@pytest.fixture
def mixture_direct():
    return _mixture_direct


@pytest.fixture
def mixture_log_density():
    return _mixture_log_density


class DrawLog:
    """Every RngStream.normal_into call while the log is installed: per
    stream key (seed, stream_id), the sizes of its fills in order and the
    threads that drew them ("main" or the thread's name); and every stream
    that two threads drew at once."""

    def __init__(self):
        self.sizes = {}
        self.threads = {}
        self.overlaps = []
        self._active = set()
        self._lock = threading.Lock()

    def fill(self, real, stream, out):
        th = threading.current_thread()
        name = "main" if th is threading.main_thread() else th.name
        key = (stream.seed, stream.stream_id)
        with self._lock:
            if id(stream) in self._active:
                self.overlaps.append(key)
            self._active.add(id(stream))
            self.sizes.setdefault(key, []).append(out.size)
            self.threads.setdefault(key, set()).add(name)
        try:
            real(stream, out)
        finally:
            with self._lock:
                self._active.discard(id(stream))

    def drawn_by(self):
        """The names of the threads that drew anything."""
        return set().union(*self.threads.values())


@pytest.fixture
def watch_draws(monkeypatch):
    """A DrawLog of the test's guide draws."""
    log = DrawLog()
    real = RngStream.normal_into
    monkeypatch.setattr(RngStream, "normal_into", lambda self, out: log.fill(real, self, out))
    return log
