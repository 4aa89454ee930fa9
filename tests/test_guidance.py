import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgps import (
    CountingDenoiser,
    DivergenceError,
    DownsampleOp,
    GmmDenoiser,
    GmmPrior,
    MagnitudeDftOp,
    MaskOp,
    RngStream,
    SamplerConfig,
    SgpsError,
    Signal,
    identity_op,
)
from sgps import guidance
from sgps.guidance import default_eta, draw_noise, langevin_guide
from sgps.operators import ForwardOp


def test_default_eta_formula():
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.3)
    op = identity_op((4,))
    assert default_eta(0.5, cfg, op) == pytest.approx(0.5 * 0.09)
    assert default_eta(0.2, cfg, op) == pytest.approx(0.5 * 0.04)
    # a bound above 1 divides the step (8 padded bins here); one below 1
    # leaves it unchanged
    assert default_eta(0.5, cfg, MagnitudeDftOp((4,))) == pytest.approx(0.5 * 0.09 / 8.0)
    assert default_eta(0.5, cfg, DownsampleOp((4,), 2)) == default_eta(0.5, cfg, op)


def test_explicit_eta_overrides_default():
    # the guide walks the written-out loop at the configured step, bit for bit
    n = 4
    keep = np.arange(n)
    op = MaskOp((n,), keep)
    st, eta = 0.5, 0.0151
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.4, langevin_eta=eta, langevin_steps=7)
    assert eta != default_eta(st, cfg, op)
    g = RngStream(1, 0)
    x0 = g.standard_normal((1, n))
    anchor = g.standard_normal((1, n))
    y = Signal(g.normal(n), (n,))
    out = langevin_guide(x0, anchor, st, op, y, cfg, [RngStream(1, 1)])
    want = reference_guide(x0[0], anchor[0], st, keep, y.data, cfg, RngStream(1, 1), eta=eta)
    assert np.array_equal(out[0], want)


def test_deterministic_given_stream():
    n = 8
    op = identity_op((n,))
    anchor = np.zeros((1, n))
    y = Signal(np.ones(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=20)
    a = langevin_guide(anchor, anchor, 0.7, op, y, cfg, [RngStream(3, 1)])
    b = langevin_guide(anchor, anchor, 0.7, op, y, cfg, [RngStream(3, 1)])
    assert np.array_equal(a, b)


def guide_from_anchor(seed, reps, anchor, st, op, y, cfg):
    """reps chains started at anchor + st * noise, each from stream (seed, r)
    with its guide noise from that stream's substream 1, guided as one batch."""
    streams = [RngStream(seed, r) for r in range(reps)]
    x0 = np.stack([anchor.data + g.normal(anchor.n) * st for g in streams])
    return langevin_guide(x0, np.broadcast_to(anchor.data, x0.shape), st, op, y, cfg,
                          [g.substream(1) for g in streams])


def test_discrete_chain_moments_identity():
    # stationary mean (the minimizer of the potential) and variance of the
    # exact discrete-time update x' = x - eta * grad U + sqrt(2 eta) xi for
    # the quadratic potential; the discrete variance
    # 2 eta / (1 - (1 - eta lam)^2) exceeds the continuous-limit 1 / lam
    # and is what the sampler actually produces
    st, sy = 0.4, 0.3
    n = 6
    op = identity_op((n,))
    anchor = Signal(np.linspace(0.5, 1.0, n), (n,))
    y = Signal(np.linspace(-0.2, 0.4, n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=sy, langevin_steps=600)
    eta = default_eta(st, cfg, op)
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
    eta = default_eta(st, cfg, op)
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


def reference_guide(x, anchor, sigma_t, keep, y, cfg, rng, eta=None):
    """The one-chain Langevin loop written out for a mask operator, at step
    eta (by default the operator's default step)."""
    if eta is None:
        eta = default_eta(sigma_t, cfg, MaskOp((x.size,), keep))
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


def noise_bytes_for(chunk, batch, n):
    """A NOISE_BYTES that gives chunks of chunk iterations (None: one chunk
    longer than any call)."""
    return 1 << 40 if chunk is None else 8 * batch * n * chunk


@settings(max_examples=40, deadline=None)
@given(
    chunk=st.sampled_from([1, 3, None]),
    batch=st.integers(1, 5),
    n=st.integers(2, 9),
    steps=st.integers(1, 40),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_noise_equals_one_draw_per_iteration(chunk, batch, n, steps, masked, seed):
    keep = np.arange(0, n, 2) if masked else np.arange(n)
    op = MaskOp((n,), keep)
    g = RngStream(seed, 0)
    xs = g.standard_normal((batch, n))
    anchors = g.standard_normal((batch, n))
    y = Signal(g.normal(keep.size), (keep.size,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.3, langevin_steps=steps)
    with mock.patch.object(guidance, "NOISE_BYTES", noise_bytes_for(chunk, batch, n)):
        rows = langevin_guide(xs, anchors, 0.6, op, y, cfg,
                              [RngStream(seed, 1 + b) for b in range(batch)])
    for b in range(batch):
        want = reference_guide(xs[b], anchors[b], 0.6, keep, y.data, cfg, RngStream(seed, 1 + b))
        assert np.array_equal(rows[b].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("steps", [1, 7, 12])
def test_each_stream_advances_by_exactly_the_iterations_drawn(chunk, steps):
    # a call leaves every stream where steps * n single draws leave it, so
    # nothing is drawn beyond the last iteration; and each row fills its
    # noise once per chunk
    batch, n = 3, 5
    op = identity_op((n,))
    y = Signal(np.zeros(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=steps)
    rngs = [RngStream(4, b) for b in range(batch)]
    fill = RngStream.normal_into
    fills = []

    def spy(self, out):
        fills.append(out.size)
        fill(self, out)

    with mock.patch.object(guidance, "NOISE_BYTES", noise_bytes_for(chunk, batch, n)), \
            mock.patch.object(RngStream, "normal_into", spy):
        langevin_guide(np.zeros((batch, n)), np.zeros((batch, n)), 0.5, op, y, cfg, rngs)
    per_fill = steps if chunk is None else min(chunk, steps)
    assert len(fills) == batch * math.ceil(steps / per_fill)
    assert sum(fills) == batch * steps * n
    for b, r in enumerate(rngs):
        fresh = RngStream(4, b)
        fresh.normal(steps * n)
        assert r.normal(1)[0] == fresh.normal(1)[0]


def test_default_chunk_fills_the_noise_budget():
    # 40 rows of 256 take 81920 bytes an iteration, so 1 MiB holds 12
    batch, n = 40, 256
    op = identity_op((n,))
    y = Signal(np.zeros(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=30)
    fills = []
    fill = RngStream.normal_into

    def spy(self, out):
        fills.append(out.shape)
        fill(self, out)

    with mock.patch.object(RngStream, "normal_into", spy):
        langevin_guide(np.zeros((batch, n)), np.zeros((batch, n)), 0.5, op, y, cfg,
                       [RngStream(5, b) for b in range(batch)])
    assert guidance.NOISE_BYTES == 1 << 20
    assert fills == [(12, n)] * batch + [(12, n)] * batch + [(6, n)] * batch


@pytest.mark.parametrize("keep", ["identity", "reversed", "partial"])
@pytest.mark.parametrize("batch", [1, 4])
def test_mask_gradient_equals_the_generic_form(keep, batch):
    # MaskOp's own gradient against A^T (A x - y) / sigma_y^2 through apply
    # and adjoint, bit for bit; rows with negative zeros included
    n = 12
    idx = {"identity": np.arange(n), "reversed": np.arange(n)[::-1],
           "partial": np.array([7, 0, 3, 11, 5])}[keep]
    op = MaskOp((3, 4), idx)
    g = RngStream(9, batch)
    xs = g.standard_normal((batch, n))
    xs[0, :3] = -0.0
    y = g.normal(idx.size)
    y[:2] = 0.0
    got = op.fidelity_gradient(xs, y, 0.3)
    want = ForwardOp._gradient_rows(op, xs, y, 0.3)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_noise_buffer_is_kept_between_calls():
    # a guide call within NOISE_BYTES reuses its thread's buffer, whatever it
    # holds from the last call, and a call beyond it gets a buffer of its own
    batch, n = 3, 8
    op = identity_op((n,))
    y = Signal(np.zeros(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=5)
    xs = RngStream(9, 0).standard_normal((batch, n))

    def guide():
        return langevin_guide(xs, xs, 0.5, op, y, cfg, [RngStream(9, 1 + b) for b in range(batch)])

    first = guide()
    kept = guidance._scratch.noise
    kept.fill(np.nan)
    assert np.array_equal(guide(), first)
    assert guidance._scratch.noise is kept
    with mock.patch.object(guidance, "NOISE_BYTES", noise_bytes_for(1, batch, n) - 8):
        assert np.array_equal(guide(), first)
    assert guidance._scratch.noise is kept


@pytest.mark.parametrize("steps", [1, 7])
def test_a_drawn_noise_block_equals_the_guides_own_draws(steps):
    # a block that draw_noise filled from fresh streams gives the rows the
    # guide gives when it draws from them itself, and the guide then draws
    # nothing from the streams it is handed
    batch, n = 3, 5
    op = identity_op((n,))
    g = RngStream(10, 0)
    xs = g.standard_normal((batch, n))
    y = Signal(g.normal(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=steps)
    streams = lambda: [RngStream(10, 1 + b) for b in range(batch)]  # noqa: E731
    want = langevin_guide(xs, xs, 0.5, op, y, cfg, streams())
    block = draw_noise(streams(), np.empty((batch, steps, n)))
    rngs = streams()
    with mock.patch.object(RngStream, "normal_into", side_effect=AssertionError("drew")):
        got = langevin_guide(xs, xs, 0.5, op, y, cfg, rngs, noise=block)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for b, r in enumerate(rngs):
        assert r.normal(1)[0] == RngStream(10, 1 + b).normal(1)[0]


def test_a_noise_block_of_the_wrong_shape_is_rejected():
    n = 4
    op = identity_op((n,))
    y = Signal(np.zeros(n), (n,))
    cfg = SamplerConfig(steps=4, t_max=4.0, sigma_y=0.5, langevin_steps=3)
    with pytest.raises(SgpsError, match="noise block"):
        langevin_guide(np.zeros((2, n)), np.zeros((2, n)), 0.5, op, y, cfg,
                       [RngStream(11, b) for b in range(2)], noise=np.zeros((2, 2, n)))
