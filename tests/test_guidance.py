import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgps import (
    CountingDenoiser,
    DivergenceError,
    GmmDenoiser,
    GmmPrior,
    MaskOp,
    RngStream,
    SamplerConfig,
    SgpsError,
    Signal,
    identity_op,
)
from sgps.guidance import default_eta, langevin_guide


def test_default_eta_formula():
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.3)
    assert default_eta(0.5, cfg) == pytest.approx(0.5 * 0.09)
    assert default_eta(0.2, cfg) == pytest.approx(0.5 * 0.04)
    cfg2 = cfg.replace(lipschitz_scale=4.0)
    assert default_eta(0.5, cfg2) == pytest.approx(0.5 * 0.09 / 4.0)


def test_explicit_eta_overrides_default():
    # with noise off and y == anchor the update contracts by (1 - eta*lam)
    # per step, so the endpoint pins down which eta was actually used
    n = 4
    op = identity_op((n,))
    st, sy, eta, steps = 0.5, 0.4, 0.0151, 7
    cfg = SamplerConfig(
        steps=4, t_max=4.0, sigma_y=sy, langevin_eta=eta, langevin_steps=steps
    )
    anchor = Signal(np.zeros(n), (n,))
    x0 = np.ones((1, n))
    out = langevin_guide(x0, anchor.data[None], st, op, anchor, cfg, [RngStream(1, 0)],
                         noise_scale=0.0)
    lam = 1.0 / st**2 + 1.0 / sy**2
    np.testing.assert_allclose(out[0], (1.0 - eta * lam) ** steps * np.ones(n), rtol=1e-12)


def test_deterministic_given_stream():
    n = 8
    op = identity_op((n,))
    anchor = np.zeros((1, n))
    y = Signal(np.ones(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=20)
    a = langevin_guide(anchor, anchor, 0.7, op, y, cfg, [RngStream(3, 1)])
    b = langevin_guide(anchor, anchor, 0.7, op, y, cfg, [RngStream(3, 1)])
    assert np.array_equal(a, b)


def test_noise_scale_zero_converges_to_map_point():
    # without injected noise the chain is plain gradient descent on the
    # quadratic potential, so it must approach the closed-form minimizer
    n = 6
    op = identity_op((n,))
    rng = RngStream(4, 0)
    anchor = Signal(rng.normal(n), (n,))
    y = Signal(rng.normal(n), (n,))
    st, sy = 0.4, 0.2
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=sy, langevin_steps=4000)
    rows = anchor.data[None]
    out = langevin_guide(rows, rows, st, op, y, cfg, [RngStream(5, 0)], noise_scale=0.0)
    want = (anchor.data / st**2 + y.data / sy**2) / (1.0 / st**2 + 1.0 / sy**2)
    np.testing.assert_allclose(out[0], want, atol=1e-12)


def guide_from_anchor(seed, reps, anchor, st, op, y, cfg):
    """reps chains started at anchor + st * noise, each from stream (seed, r)
    with its guide noise from that stream's substream 1, guided as one batch."""
    streams = [RngStream(seed, r) for r in range(reps)]
    x0 = np.stack([anchor.data + g.normal(anchor.n) * st for g in streams])
    return langevin_guide(x0, np.broadcast_to(anchor.data, x0.shape), st, op, y, cfg,
                          [g.substream(1) for g in streams])


def test_discrete_chain_moments_identity():
    # stationary mean and variance of the exact discrete-time update
    # x' = x - eta * grad U + sqrt(2 eta) xi for the quadratic potential;
    # the discrete variance 2 eta / (1 - (1 - eta lam)^2) exceeds the
    # continuous-limit 1 / lam and is what the sampler actually produces
    st, sy = 0.4, 0.3
    n = 6
    op = identity_op((n,))
    anchor = Signal(np.linspace(0.5, 1.0, n), (n,))
    y = Signal(np.linspace(-0.2, 0.4, n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=sy, langevin_steps=600)
    eta = default_eta(st, cfg)
    lam = 1.0 / st**2 + 1.0 / sy**2
    mu_exact = (anchor.data / st**2 + y.data / sy**2) / lam
    var_exact = 2.0 * eta / (1.0 - (1.0 - eta * lam) ** 2)
    reps = 1500
    fin = guide_from_anchor(11, reps, anchor, st, op, y, cfg)
    se_mean = np.sqrt(var_exact / reps)
    assert np.max(np.abs(fin.mean(0) - mu_exact)) < 4.0 * se_mean
    pooled = fin.var(0, ddof=1).mean() / var_exact
    se_pooled = np.sqrt(2.0 / (reps - 1) / n)
    assert abs(pooled - 1.0) < 4.0 * se_pooled
    # and rule out the continuous-limit variance: it is 4+ sigma away here
    cont = (1.0 / lam) / var_exact
    assert abs(pooled - cont) > 8.0 * se_pooled


def test_unobserved_coordinates_follow_anchor_potential():
    # masked-out coordinates feel only the anchor term; their stationary
    # spread is the discrete OU variance at rate 1/sigma_t^2
    n = 4
    op = MaskOp((n,), np.array([0, 1]))
    st = 0.5
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.2, langevin_steps=400)
    eta = default_eta(st, cfg)
    lam = 1.0 / st**2
    var_exact = 2.0 * eta / (1.0 - (1.0 - eta * lam) ** 2)
    anchor = Signal(np.zeros(n), (n,))
    y = Signal(np.zeros(2), (2,))
    reps = 2000
    vals = guide_from_anchor(21, reps, anchor, st, op, y, cfg)[:, 2:]
    pooled = vals.var(ddof=1) / var_exact
    assert abs(pooled - 1.0) < 4.0 * np.sqrt(2.0 / (reps * 2 - 1))


def test_zero_denoiser_evals():
    prior = GmmPrior(np.array([1.0]), np.zeros((1, 4)), 1.0, (4,))
    den = CountingDenoiser(GmmDenoiser(prior))
    op = identity_op((4,))
    x = np.zeros((1, 4))
    y = Signal(np.zeros(4), (4,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=50)
    langevin_guide(x, x, 0.5, op, y, cfg, [RngStream(1, 0)])
    assert den.calls == 0


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_reported_with_stage():
    n = 4
    op = identity_op((n,))
    x = np.ones((1, n))
    y = Signal(np.zeros(n), (n,))
    # eta far beyond 2/lambda makes the quadratic chain blow up
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=1e-4, langevin_eta=50.0, langevin_steps=2000)
    with pytest.raises(DivergenceError) as err:
        langevin_guide(x, x, 0.5, op, y, cfg, [RngStream(2, 0)])
    assert err.value.stage == "langevin"


def reference_guide(x, anchor, sigma_t, keep, y, cfg, rng):
    """The one-chain Langevin loop written out for a mask operator."""
    eta = default_eta(sigma_t, cfg)
    for _ in range(cfg.langevin_steps):
        grad = (x - anchor) / (sigma_t * sigma_t)
        fid = np.zeros(x.size)
        fid[keep] = x[keep] - y
        grad += fid / (cfg.sigma_y * cfg.sigma_y)
        x = x - eta * grad + math.sqrt(2.0 * eta) * rng.normal(x.size)
    return x


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(1, 5),
    n=st.integers(2, 9),
    steps=st.integers(1, 12),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_equals_single_chains(batch, n, steps, masked, seed):
    keep = np.arange(0, n, 2) if masked else np.arange(n)
    op = MaskOp((n,), keep)
    g = RngStream(seed, 0)
    xs = g.standard_normal((batch, n))
    anchors = g.standard_normal((batch, n))
    y = Signal(g.normal(keep.size), (keep.size,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.3, langevin_steps=steps)
    before = xs.copy()
    rows = langevin_guide(xs, anchors, 0.6, op, y, cfg,
                          [RngStream(seed, 1 + b) for b in range(batch)])
    assert np.array_equal(xs, before)
    for b in range(batch):
        one = langevin_guide(xs[b:b + 1], anchors[b:b + 1], 0.6, op, y, cfg,
                             [RngStream(seed, 1 + b)])
        assert np.array_equal(rows[b], one[0])
        want = reference_guide(xs[b], anchors[b], 0.6, keep, y.data, cfg, RngStream(seed, 1 + b))
        assert np.array_equal(rows[b], want)


def test_batch_rejects_mismatched_rows_and_streams():
    op = identity_op((3,))
    y = Signal(np.zeros(3), (3,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=2)
    xs = np.zeros((2, 3))
    with pytest.raises(SgpsError):
        langevin_guide(xs, xs, 0.5, op, y, cfg, [RngStream(1, 0)])
    with pytest.raises(SgpsError):
        langevin_guide(xs, np.zeros((3, 3)), 0.5, op, y, cfg, [RngStream(1, 0)] * 2)
    with pytest.raises(SgpsError):
        langevin_guide(np.zeros((2, 4)), np.zeros((2, 4)), 0.5, op, y, cfg, [RngStream(1, 0)] * 2)


def test_one_diverging_row_stops_the_batch_at_its_first_iteration():
    # an unstable step makes every row grow 15-fold per iteration; only the
    # row that starts near the top of the float range overflows in time
    n = 4
    op = identity_op((n,))
    y = Signal(np.zeros(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_eta=2.0, langevin_steps=100)
    xs = np.stack([np.ones(n), np.full(n, 1e250), -np.ones(n)])
    firsts = []
    for b in range(3):
        x = xs[b:b + 1]
        try:
            langevin_guide(x, x, 0.5, op, y, cfg, [RngStream(6, b)])
        except DivergenceError as e:
            firsts.append((b, e.step_index))
    assert len(firsts) == 1 and firsts[0][0] == 1
    with pytest.raises(DivergenceError) as err:
        langevin_guide(xs, xs, 0.5, op, y, cfg, [RngStream(6, b) for b in range(3)])
    assert err.value.stage == "langevin"
    assert err.value.step_index == firsts[0][1]
