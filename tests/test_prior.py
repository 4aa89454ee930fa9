import dataclasses

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from sgps import (
    CountingDenoiser,
    GmmDenoiser,
    GmmPrior,
    LinearDenoiser,
    PerturbedDenoiser,
    RngStream,
    SgpsError,
    Signal,
)


def small_prior(k=3, n=5, seed=0, var=0.5):
    rng = RngStream(seed, 0)
    means = rng.standard_normal((k, n)) * 1.5
    w = rng.gen.random(k) + 0.5
    return GmmPrior(w / w.sum(), means, var, (n,))


def fd_gradient(f, xv, h=1e-6):
    g = np.empty_like(xv)
    for i in range(xv.size):
        e = np.zeros_like(xv)
        e[i] = h
        g[i] = (f(xv + e) - f(xv - e)) / (2 * h)
    return g


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(SgpsError):
            GmmPrior(np.array([0.5, 0.4]), np.zeros((2, 3)), 1.0, (3,))

    def test_weights_must_be_positive(self):
        with pytest.raises(SgpsError):
            GmmPrior(np.array([1.2, -0.2]), np.zeros((2, 3)), 1.0, (3,))

    def test_var_scale_positive(self):
        with pytest.raises(SgpsError):
            GmmPrior(np.array([1.0]), np.zeros((1, 3)), 0.0, (3,))

    def test_mean_shape_must_match(self):
        with pytest.raises(SgpsError):
            GmmPrior(np.array([1.0]), np.zeros((1, 4)), 1.0, (3,))

    def test_sigma_must_be_positive(self):
        prior = small_prior()
        x = Signal(np.zeros(5), (5,))
        with pytest.raises(SgpsError):
            prior.posterior_mean(x, 0.0)


def test_logsumexp_matches_scipy_bitwise():
    # the sampler's pinned bytes were taken with scipy's logsumexp
    from scipy.special import logsumexp as scipy_logsumexp

    from sgps.prior import logsumexp

    g = RngStream(3, 0)
    for k in (1, 2, 3, 8, 9, 17, 256):
        for t in range(200):
            a = g.standard_normal(k) * 10.0 ** (t % 7 - 3) - 100.0 * (t % 3)
            if k > 1 and t % 4 == 0:
                a[t % k] = a.max()  # a tie at the maximum
            if k > 2 and t % 5 == 0:
                a[: k // 2] = a[0]
            want = scipy_logsumexp(a)
            assert logsumexp(a) == want and type(logsumexp(a)) is type(want)
    for a in ([-np.inf, 0.0], [-np.inf, -np.inf], [1e308, 1e308]):
        a = np.array(a)
        assert logsumexp(a) == scipy_logsumexp(a)


def test_log_density_matches_scipy_mixture():
    prior = small_prior(k=3, n=4, seed=2)
    sigma = 0.7
    v2 = prior.var_scale + sigma * sigma
    x = Signal(RngStream(5, 0).normal(4), (4,))
    ref = 0.0
    dens = np.array(
        [
            multivariate_normal(mean=m, cov=v2 * np.eye(4)).pdf(x.data)
            for m in prior.means
        ]
    )
    ref = np.log(np.dot(prior.weights, dens))
    assert prior.log_density(x, sigma) == pytest.approx(ref, rel=1e-10)


def test_score_is_gradient_of_log_density():
    prior = small_prior(k=3, n=5, seed=3)
    sigma = 0.4
    x = Signal(RngStream(6, 0).normal(5), (5,))
    got = prior.score(x, sigma).data
    want = fd_gradient(lambda v: prior.log_density(Signal(v, (5,)), sigma), x.data.copy())
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_posterior_mean_tweedie_identity():
    # D(x) = x + sigma^2 * score(x) for the smoothed density
    prior = small_prior(k=2, n=6, seed=4)
    sigma = 0.6
    x = Signal(RngStream(7, 0).normal(6), (6,))
    lhs = prior.posterior_mean(x, sigma).data
    rhs = x.data + sigma * sigma * prior.score(x, sigma).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_single_component_closed_form():
    n = 4
    m = np.linspace(-1.0, 1.0, n)
    prior = GmmPrior(np.array([1.0]), m[None, :], 0.8, (n,))
    sigma = 0.5
    x = Signal(np.ones(n), (n,))
    v2 = 0.8 + 0.25
    expected = (0.8 * x.data + 0.25 * m) / v2
    np.testing.assert_allclose(prior.posterior_mean(x, sigma).data, expected, rtol=1e-14)
    assert prior.trace_jacobian(x, sigma) == pytest.approx(n * 0.8 / v2, rel=1e-14)


def fd_jacobian(prior, xv, sigma, h=1e-6):
    n = xv.size
    jac = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp = prior.posterior_mean(Signal(xv + e, (n,)), sigma).data
        fm = prior.posterior_mean(Signal(xv - e, (n,)), sigma).data
        jac[:, i] = (fp - fm) / (2 * h)
    return jac


def test_trace_jacobian_matches_brute_force():
    prior = small_prior(k=3, n=5, seed=8, var=0.4)
    sigma = 0.35
    x = Signal(RngStream(9, 0).normal(5), (5,))
    jac = fd_jacobian(prior, x.data.copy(), sigma)
    assert prior.trace_jacobian(x, sigma) == pytest.approx(np.trace(jac), rel=1e-5)


def test_jacobian_vjp_matches_brute_force():
    prior = small_prior(k=3, n=5, seed=10, var=0.4)
    sigma = 0.45
    x = Signal(RngStream(11, 0).normal(5), (5,))
    v = RngStream(12, 0).normal(5)
    jac = fd_jacobian(prior, x.data.copy(), sigma)
    np.testing.assert_allclose(
        prior.jacobian_vjp(x, sigma, v), jac.T @ v, rtol=1e-5, atol=1e-8
    )


def test_jacobian_is_symmetric():
    # posterior mean is a gradient map, so vjp and jvp coincide
    prior = small_prior(k=4, n=5, seed=13)
    sigma = 0.3
    x = Signal(RngStream(14, 0).normal(5), (5,))
    jac = fd_jacobian(prior, x.data.copy(), sigma)
    np.testing.assert_allclose(jac, jac.T, atol=1e-6)


def test_draw_reproducible_and_in_support():
    prior = small_prior(k=2, n=8, seed=15)
    a = prior.draw(RngStream(1, 0))
    b = prior.draw(RngStream(1, 0))
    assert np.array_equal(a.data, b.data)
    assert a.shape == (8,)


class TestGmmDenoiser:
    def test_flags(self):
        den = GmmDenoiser(small_prior())
        assert den.has_analytic_jacobian
        assert CountingDenoiser(den).has_analytic_jacobian

    def test_delegates(self):
        prior = small_prior(seed=20)
        den = GmmDenoiser(prior)
        x = Signal(RngStream(21, 0).normal(5), (5,))
        np.testing.assert_array_equal(den(x, 0.4).data, prior.posterior_mean(x, 0.4).data)
        assert den.jacobian_trace(x, 0.4) == prior.trace_jacobian(x, 0.4)


class TestPerturbedDenoiser:
    def test_zero_amplitude_is_identity_wrapper(self):
        base = GmmDenoiser(small_prior(seed=22))
        den = PerturbedDenoiser(base, amplitude=0.0)
        x = Signal(RngStream(23, 0).normal(5), (5,))
        np.testing.assert_array_equal(den(x, 0.5).data, base(x, 0.5).data)
        assert den.jacobian_trace(x, 0.5) == pytest.approx(base.jacobian_trace(x, 0.5))

    def test_output_is_base_plus_wiggle(self):
        base = GmmDenoiser(small_prior(seed=24))
        den = PerturbedDenoiser(base, amplitude=0.05, frequency=3.0)
        x = Signal(RngStream(25, 0).normal(5), (5,))
        diff = den(x, 0.5).data - base(x, 0.5).data
        assert np.max(np.abs(diff)) <= 0.05 + 1e-12
        assert np.max(np.abs(diff)) > 0.0

    def test_trace_matches_brute_force(self):
        base = GmmDenoiser(small_prior(seed=26, n=4))
        den = PerturbedDenoiser(base, amplitude=0.08, frequency=2.5)
        x = Signal(RngStream(27, 0).normal(4), (4,))
        sigma = 0.5
        h = 1e-6
        tr = 0.0
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fp = den(Signal(x.data + e, (4,)), sigma).data
            fm = den(Signal(x.data - e, (4,)), sigma).data
            tr += (fp[i] - fm[i]) / (2 * h)
        assert den.jacobian_trace(x, sigma) == pytest.approx(tr, rel=1e-5)

    def test_vjp_matches_brute_force(self):
        base = GmmDenoiser(small_prior(seed=28, n=4))
        den = PerturbedDenoiser(base, amplitude=0.08, frequency=2.5)
        x = Signal(RngStream(29, 0).normal(4), (4,))
        v = RngStream(30, 0).normal(4)
        sigma = 0.5
        h = 1e-6
        jac = np.empty((4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fp = den(Signal(x.data + e, (4,)), sigma).data
            fm = den(Signal(x.data - e, (4,)), sigma).data
            jac[:, i] = (fp - fm) / (2 * h)
        np.testing.assert_allclose(den.jacobian_vjp(x, sigma, v), jac.T @ v, rtol=1e-5, atol=1e-8)


class TestLinearDenoiser:
    def test_exact_trace_and_vjp(self):
        rng = RngStream(31, 0)
        m = rng.standard_normal((6, 6)) * 0.3
        den = LinearDenoiser(m)
        x = Signal(rng.normal(6), (6,))
        v = rng.normal(6)
        assert den.jacobian_trace(x, 0.5) == pytest.approx(np.trace(m), rel=1e-14)
        np.testing.assert_allclose(den.jacobian_vjp(x, 0.5, v), m.T @ v, rtol=1e-14)

    def test_offset(self):
        m = np.eye(3) * 0.5
        den = LinearDenoiser(m, offset=np.ones(3))
        x = Signal(np.full(3, 2.0), (3,))
        np.testing.assert_allclose(den(x, 0.1).data, np.full(3, 2.0))

    def test_rejects_non_square(self):
        with pytest.raises(SgpsError):
            LinearDenoiser(np.zeros((2, 3)))


def test_counting_denoiser_counts_only_denoise():
    base = GmmDenoiser(small_prior(seed=33))
    den = CountingDenoiser(base)
    x = Signal(np.zeros(5), (5,))
    assert den.calls == 0
    den(x, 0.5)
    den.denoise(x, 0.5)
    den.jacobian_trace(x, 0.5)
    den.jacobian_vjp(x, 0.5, np.ones(5))
    assert den.calls == 2


class TestMixtureMemo:
    """The posterior is computed once per point; repeats reuse it bit for bit."""

    def test_diagnostics_after_denoise_equal_a_fresh_prior(self):
        prior = small_prior(k=9, n=13, seed=40, var=0.3)
        g = RngStream(41, 0)
        for sigma in (2.0, 0.7, 0.2):
            x = Signal(g.normal(13) * 1.5, (13,))
            v = g.normal(13)
            prior.posterior_mean(x, sigma)
            fresh = [small_prior(k=9, n=13, seed=40, var=0.3) for _ in range(3)]
            assert np.array_equal(prior.jacobian_vjp(x, sigma, v),
                                  fresh[0].jacobian_vjp(x, sigma, v))
            assert prior.trace_jacobian(x, sigma) == fresh[1].trace_jacobian(x, sigma)
            assert np.array_equal(prior.score(x, sigma).data, fresh[2].score(x, sigma).data)

    def test_moments_are_read_only(self):
        prior = small_prior(k=4, n=5, seed=42)
        g, mbar = prior._moments(RngStream(43, 0).normal(5), 0.5)
        assert not g.flags.writeable and not mbar.flags.writeable

    def test_memo_never_exceeds_its_cap(self):
        from sgps.prior import MEMO_ENTRIES

        prior = small_prior(k=3, n=4, seed=44)
        g = RngStream(45, 0)
        points = [Signal(g.normal(4), (4,)) for _ in range(MEMO_ENTRIES + 5)]
        for i, x in enumerate(points):
            prior.posterior_mean(x, 0.5)
            assert len(prior._memo) == min(i + 1, MEMO_ENTRIES)
        # the oldest points were evicted, the newest are kept
        assert (0.5, points[-1].data.tobytes()) in prior._memo
        assert (0.5, points[0].data.tobytes()) not in prior._memo

    def test_memo_is_not_a_field(self):
        a = small_prior(k=3, n=4, seed=46)
        a.posterior_mean(Signal(np.ones(4), (4,)), 0.5)
        assert "_memo" not in repr(a) and "_mean_sq" not in repr(a)
        assert [f.name for f in dataclasses.fields(a)] == ["weights", "means", "var_scale", "shape"]

    @pytest.mark.parametrize("k,n", [(1, 5), (3, 1), (7, 33), (33, 2049), (257, 4096),
                                     (300, 127), (5, 8192), (4, 8193), (9, 10001)])
    def test_blocked_distances_equal_one_pass(self, k, n):
        g = RngStream(47, k * 100003 + n)
        means = g.standard_normal((k, n))
        prior = GmmPrior(np.full(k, 1.0 / k), means, 0.5, (n,))
        for _ in range(3):
            xv = g.standard_normal(n)
            d = xv[None, :] - prior.means
            want = np.log(prior.weights) - np.einsum("kn,kn->k", d, d) / (2.0 * 0.7)
            got = prior._log_resp(xv, 0.7)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
