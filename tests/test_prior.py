import dataclasses

import numpy as np
import pytest

from sgps import (
    CountingDenoiser,
    Denoiser,
    GmmDenoiser,
    GmmPrior,
    PerturbedDenoiser,
    RngStream,
    SgpsError,
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

    @pytest.mark.parametrize("weights,var", [([np.nan], 1.0), ([0.5, np.nan], 1.0),
                                             ([1.0], np.nan), ([1.0], np.inf)])
    def test_non_finite_weights_and_variance(self, weights, var):
        with pytest.raises(SgpsError):
            GmmPrior(np.array(weights), np.zeros((len(weights), 3)), var, (3,))

    @pytest.mark.parametrize("amplitude,frequency", [(np.nan, 1.0), (np.inf, 1.0),
                                                     (0.1, np.nan), (0.1, -np.inf)])
    def test_non_finite_perturbation(self, amplitude, frequency):
        with pytest.raises(SgpsError, match="perturbation must be finite"):
            PerturbedDenoiser(GmmDenoiser(small_prior()), amplitude, frequency)

    def test_mean_shape_must_match(self):
        with pytest.raises(SgpsError):
            GmmPrior(np.array([1.0]), np.zeros((1, 4)), 1.0, (3,))

    def test_sigma_must_be_positive(self):
        den = GmmDenoiser(small_prior())
        with pytest.raises(SgpsError):
            den.denoise(np.zeros((2, 5)), [0.5, 0.0])

    def test_one_level_per_row(self):
        den = GmmDenoiser(small_prior())
        with pytest.raises(SgpsError, match="2 noise levels for 3 rows"):
            den.denoise(np.zeros((3, 5)), [0.5, 0.5])


def test_logsumexp_matches_scipy_bitwise():
    # the sampler's pinned bytes were taken with scipy's logsumexp
    from scipy.special import logsumexp as scipy_logsumexp

    from sgps.prior import logsumexp

    # row by row, whatever the other rows hold
    g = RngStream(3, 0)
    for k in (1, 2, 3, 8, 9, 17, 256):
        rows = []
        for t in range(200):
            a = g.standard_normal(k) * 10.0 ** (t % 7 - 3) - 100.0 * (t % 3)
            if k > 1 and t % 4 == 0:
                a[t % k] = a.max()  # a tie at the maximum
            if k > 2 and t % 5 == 0:
                a[: k // 2] = a[0]
            rows.append(a)
        out = logsumexp(np.stack(rows))
        assert out.shape == (200, 1)
        for a, got in zip(rows, out[:, 0]):
            assert got == scipy_logsumexp(a)
    special = np.array([[-np.inf, 0.0], [-np.inf, -np.inf], [1e308, 1e308], [0.5, -1.0]])
    for a, got in zip(special, logsumexp(special)[:, 0]):
        assert got == scipy_logsumexp(a)


def test_log_density_matches_scipy_mixture(mixture_log_density):
    # the scipy oracle against the isotropic Gaussian mixture written out
    prior = small_prior(k=3, n=4, seed=2)
    sigma = 0.7
    v2 = prior.var_scale + sigma * sigma
    x = RngStream(5, 0).normal(4)
    d2 = np.sum((prior.means - x) ** 2, axis=1)
    dens = np.exp(-0.5 * d2 / v2) / (2 * np.pi * v2) ** 2
    ref = np.log(np.dot(prior.weights, dens))
    assert mixture_log_density(prior, x, sigma) == pytest.approx(ref, rel=1e-10)


def test_score_is_gradient_of_log_density(mixture_score, mixture_log_density):
    # the score, and the posterior mean through D(x) = x + sigma^2 * score,
    # against central differences of scipy's mixture density, with K > 1
    prior = small_prior(k=3, n=5, seed=3)
    den = GmmDenoiser(prior)
    sigma = 0.4
    x = RngStream(6, 0).normal(5)
    grad = fd_gradient(lambda v: mixture_log_density(prior, v, sigma), x)
    np.testing.assert_allclose(mixture_score(den, x, sigma), grad, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(den.denoise(x[None], [sigma])[0], x + sigma * sigma * grad,
                               rtol=1e-6, atol=1e-8)


def test_posterior_mean_tweedie_identity(mixture_score):
    # D(x) = x + sigma^2 * score(x) for the smoothed density
    den = GmmDenoiser(small_prior(k=2, n=6, seed=4))
    sigma = 0.6
    x = RngStream(7, 0).normal(6)
    lhs = den.denoise(x[None], [sigma])[0]
    rhs = x + sigma * sigma * mixture_score(den, x, sigma)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_single_component_closed_form():
    # one component has responsibility exactly 1, so each row's mean is the
    # linear formula at its own level bit for bit, and its products are
    # s^2 v / v^2, as C v is exactly 0
    n = 64
    g = RngStream(49, 0)
    m = g.standard_normal(n)
    den = GmmDenoiser(GmmPrior(np.array([1.0]), m[None, :], 0.8, (n,)))
    sigmas = [8.0, 0.5, 0.02]
    xs, vs = g.standard_normal((3, n)), g.standard_normal((3, n))
    got = den.denoise(xs, sigmas)
    vjp = den.jacobian_vjp(xs, sigmas, vs)
    trace = den.jacobian_trace(xs, sigmas)
    for b, sigma in enumerate(sigmas):
        v2 = 0.8 + sigma * sigma
        expected = (0.8 * xs[b] + sigma * sigma * m) / v2
        assert np.array_equal(got[b].view(np.uint64), expected.view(np.uint64))
        product = (0.8 * vs[b]) / v2
        assert np.array_equal(vjp[b].view(np.uint64), product.view(np.uint64))
        assert trace[b] == pytest.approx(n * 0.8 / v2, rel=1e-14)


def fd_jacobian(den, xv, sigma, h=1e-6):
    # row i of each call is xv moved by h along coordinate i, so row i of
    # the difference is column i of the Jacobian
    steps = h * np.eye(xv.size)
    levels = np.full(xv.size, sigma)
    diff = den.denoise(xv + steps, levels) - den.denoise(xv - steps, levels)
    return (diff / (2 * h)).T


def one_row(method, x, sigma, *v):
    """A denoiser method at the single point x, as a one-row call."""
    return method(x[None], [sigma], *(a[None] for a in v))[0]


def test_trace_jacobian_matches_brute_force():
    den = GmmDenoiser(small_prior(k=3, n=5, seed=8, var=0.4))
    sigma = 0.35
    x = RngStream(9, 0).normal(5)
    jac = fd_jacobian(den, x, sigma)
    assert one_row(den.jacobian_trace, x, sigma) == pytest.approx(np.trace(jac), rel=1e-5)


def test_jacobian_vjp_matches_brute_force():
    den = GmmDenoiser(small_prior(k=3, n=5, seed=10, var=0.4))
    sigma = 0.45
    x = RngStream(11, 0).normal(5)
    v = RngStream(12, 0).normal(5)
    jac = fd_jacobian(den, x, sigma)
    np.testing.assert_allclose(one_row(den.jacobian_vjp, x, sigma, v), jac.T @ v,
                               rtol=1e-5, atol=1e-8)


def test_jacobian_is_symmetric():
    # posterior mean is a gradient map, so vjp and jvp coincide
    den = GmmDenoiser(small_prior(k=4, n=5, seed=13))
    jac = fd_jacobian(den, RngStream(14, 0).normal(5), 0.3)
    np.testing.assert_allclose(jac, jac.T, atol=1e-6)


def test_draw_reproducible_and_in_support():
    prior = small_prior(k=2, n=8, seed=15)
    a = prior.draw(RngStream(1, 0))
    b = prior.draw(RngStream(1, 0))
    assert np.array_equal(a.data, b.data)
    assert a.shape == (8,)


def contract_denoisers(linear_denoiser):
    """One instance of each shipped denoiser, and the linear test oracle,
    on n = 6 points."""
    gmm = GmmDenoiser(small_prior(k=4, n=6, seed=19))
    g = RngStream(20, 0)
    k1 = GmmDenoiser(GmmPrior(np.array([1.0]), g.standard_normal((1, 6)), 0.5, (6,)))
    return {
        "gmm-k1": k1,
        "gmm-k4": gmm,
        "perturbed": PerturbedDenoiser(gmm, amplitude=0.05, frequency=3.0),
        "perturbed-k1": PerturbedDenoiser(k1, amplitude=0.05, frequency=3.0),
        "counting": CountingDenoiser(gmm),
        "linear": linear_denoiser(0.3 * g.standard_normal((6, 6)), g.normal(6)),
    }


CONTRACT_KINDS = ["gmm-k1", "gmm-k4", "perturbed", "perturbed-k1", "counting", "linear"]
# every row's posterior is one component's, so the mean and the products
# are elementwise; a matrix product, mixture or linear, rounds with the batch
BITWISE_KINDS = {"gmm-k1", "perturbed-k1"}


@pytest.mark.parametrize("kind", CONTRACT_KINDS)
def test_denoiser_contract(kind, linear_denoiser):
    # read-only (B, n) float64 rows and one level per row go in, and the
    # rows come back unchanged; denoise returns a new (B, n) float64 array
    # on every call, jacobian_vjp a (B, n) and jacobian_trace a (B,) array
    den = contract_denoisers(linear_denoiser)[kind]
    g = RngStream(21, 0)
    xs, vs = g.standard_normal((3, 6)), g.standard_normal((3, 6))
    levels = np.array([0.4, 1.3, 0.4])
    for a in (xs, vs, levels):
        a.flags.writeable = False
    before = xs.copy()
    out = den.denoise(xs, levels)
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (3, 6)
    again = den.denoise(xs, levels)
    assert np.array_equal(out, again)
    assert not np.shares_memory(out, xs) and not np.shares_memory(out, again)
    assert den.jacobian_vjp(xs, levels, vs).shape == (3, 6)
    trace = den.jacobian_trace(xs, levels)
    assert trace.shape == (3,) and np.all(np.isfinite(trace))
    assert np.array_equal(xs, before)


@pytest.mark.parametrize("kind", CONTRACT_KINDS)
def test_row_equals_the_one_row_call(kind, linear_denoiser):
    # row b of a B-row call is the call on row b alone, each on a fresh
    # denoiser so that no memo is shared: bit for bit where every row's
    # posterior is one component's, to rel 1e-12 where a matrix product
    # rounds with the batch
    g = RngStream(22, 0)
    xs, vs = g.standard_normal((5, 6)), g.standard_normal((5, 6))
    levels = [0.3, 2.0, 0.3, 0.05, 7.5]
    batch = contract_denoisers(linear_denoiser)[kind]
    got = (batch.denoise(xs, levels), batch.jacobian_vjp(xs, levels, vs),
           batch.jacobian_trace(xs, levels))
    for b in range(5):
        den = contract_denoisers(linear_denoiser)[kind]
        want = (one_row(den.denoise, xs[b], levels[b]),
                one_row(den.jacobian_vjp, xs[b], levels[b], vs[b]),
                one_row(den.jacobian_trace, xs[b], levels[b]))
        for rows, row in zip(got, want):
            if kind in BITWISE_KINDS:
                assert np.array_equal(np.asarray(rows[b]).view(np.uint64),
                                      np.asarray(row).view(np.uint64))
            else:
                np.testing.assert_allclose(rows[b], row, rtol=1e-12, atol=0)


class TestPerturbedDenoiser:
    def test_zero_amplitude_is_identity_wrapper(self):
        base = GmmDenoiser(small_prior(seed=22))
        den = PerturbedDenoiser(base, amplitude=0.0)
        x = RngStream(23, 0).normal(5)
        np.testing.assert_array_equal(one_row(den.denoise, x, 0.5), one_row(base.denoise, x, 0.5))
        assert one_row(den.jacobian_trace, x, 0.5) == pytest.approx(
            one_row(base.jacobian_trace, x, 0.5))

    def test_output_is_base_plus_wiggle(self):
        base = GmmDenoiser(small_prior(seed=24))
        den = PerturbedDenoiser(base, amplitude=0.05, frequency=3.0)
        x = RngStream(25, 0).normal(5)
        diff = one_row(den.denoise, x, 0.5) - one_row(base.denoise, x, 0.5)
        assert np.max(np.abs(diff)) <= 0.05 + 1e-12
        assert np.max(np.abs(diff)) > 0.0

    def test_trace_matches_brute_force(self):
        base = GmmDenoiser(small_prior(seed=26, n=4))
        den = PerturbedDenoiser(base, amplitude=0.08, frequency=2.5)
        x = RngStream(27, 0).normal(4)
        jac = fd_jacobian(den, x, 0.5)
        assert one_row(den.jacobian_trace, x, 0.5) == pytest.approx(np.trace(jac), rel=1e-5)

    def test_vjp_matches_brute_force(self):
        base = GmmDenoiser(small_prior(seed=28, n=4))
        den = PerturbedDenoiser(base, amplitude=0.08, frequency=2.5)
        x = RngStream(29, 0).normal(4)
        v = RngStream(30, 0).normal(4)
        jac = fd_jacobian(den, x, 0.5)
        np.testing.assert_allclose(one_row(den.jacobian_vjp, x, 0.5, v), jac.T @ v,
                                   rtol=1e-5, atol=1e-8)


class TestLinearDenoiser:
    """The linear test denoiser is itself an oracle, so it is checked too."""

    def test_exact_trace_and_vjp(self, linear_denoiser):
        rng = RngStream(31, 0)
        m = rng.standard_normal((6, 6)) * 0.3
        den = linear_denoiser(m)
        x = rng.normal(6)
        v = rng.normal(6)
        assert one_row(den.jacobian_trace, x, 0.5) == pytest.approx(np.trace(m), rel=1e-14)
        np.testing.assert_allclose(one_row(den.jacobian_vjp, x, 0.5, v), m.T @ v, rtol=1e-14)

    def test_offset(self, linear_denoiser):
        m = np.eye(3) * 0.5
        den = linear_denoiser(m, offset=np.ones(3))
        np.testing.assert_allclose(one_row(den.denoise, np.full(3, 2.0), 0.1), np.full(3, 2.0))

    def test_rejects_non_square(self, linear_denoiser):
        with pytest.raises(SgpsError):
            linear_denoiser(np.zeros((2, 3)))


def test_denoiser_without_jacobian_products_cannot_be_built():
    # the risk gradient needs exact products, so a denoise-only map is not
    # a Denoiser
    class DenoiseOnly(Denoiser):
        def denoise(self, xs, sigmas):
            return xs.copy()

    with pytest.raises(TypeError, match="jacobian_vjp"):
        DenoiseOnly()


def test_counting_denoiser_counts_only_denoise():
    # a row is one evaluation, however many rows a call takes
    base = GmmDenoiser(small_prior(seed=33))
    den = CountingDenoiser(base)
    x = np.zeros((1, 5))
    xs = RngStream(34, 0).standard_normal((3, 5))
    assert den.calls == 0
    den.denoise(x, [0.5])
    den.denoise(x, [0.5])
    den.denoise(xs, [0.5, 0.2, 0.5])
    den.jacobian_trace(xs, [0.5, 0.2, 0.5])
    den.jacobian_vjp(xs, [0.5, 0.2, 0.5], np.ones((3, 5)))
    assert den.calls == 5


class TestMixtureMemo:
    """A GmmDenoiser keeps the posterior of its latest call that computed
    anything; a call at those rows reuses it bit for bit."""

    def test_diagnostics_after_denoise_equal_a_fresh_prior(self, mixture_score):
        den = GmmDenoiser(small_prior(k=9, n=13, seed=40, var=0.3))
        g = RngStream(41, 0)
        for sigma in (2.0, 0.7, 0.2):
            x = g.normal(13) * 1.5
            v = g.normal(13)
            one_row(den.denoise, x, sigma)
            fresh = [GmmDenoiser(small_prior(k=9, n=13, seed=40, var=0.3)) for _ in range(3)]
            assert np.array_equal(one_row(den.jacobian_vjp, x, sigma, v),
                                  one_row(fresh[0].jacobian_vjp, x, sigma, v))
            assert (one_row(den.jacobian_trace, x, sigma)
                    == one_row(fresh[1].jacobian_trace, x, sigma))
            assert np.array_equal(mixture_score(den, x, sigma), mixture_score(fresh[2], x, sigma))

    @staticmethod
    def spy(den):
        """Record the row count of every _log_resp call on den."""
        seen = []
        log_resp = den._log_resp
        den._log_resp = lambda xs, var: seen.append(len(xs)) or log_resp(xs, var)
        return seen

    def test_a_call_at_held_rows_computes_nothing(self):
        # the gradient's rows repeat and reorder the value's rows; any such
        # call is a gather from the kept call, with the bits of that call
        den = GmmDenoiser(small_prior(k=4, n=5, seed=42))
        xs = RngStream(43, 0).standard_normal((3, 5))
        sigmas = np.array([0.5, 0.5, 0.1])
        seen = self.spy(den)
        first = den.denoise(xs, sigmas)
        assert seen == [3]
        again = [0, 2, 2, 1, 0]
        assert np.array_equal(den.denoise(xs[again], sigmas[again]), first[again])
        den.jacobian_vjp(xs[again], sigmas[again], np.ones((5, 5)))
        den.jacobian_trace(xs[1:], sigmas[1:])
        assert seen == [3]

    def test_each_distinct_point_is_computed_once(self):
        # repeated rows share one posterior, and a call that brings any row
        # the kept call does not hold computes each of its distinct rows
        den = GmmDenoiser(small_prior(k=4, n=5, seed=46))
        a, b, c = RngStream(47, 0).standard_normal((3, 5))
        seen = self.spy(den)
        first = den.denoise(np.stack([a, b, a, b]), [0.5, 0.5, 0.5, 0.5])
        assert seen == [2]
        assert np.array_equal(first[0], first[2]) and np.array_equal(first[1], first[3])
        # a at another level is another point
        den.denoise(np.stack([b, c, a]), [0.5, 0.5, 0.2])
        assert seen == [2, 3]

    def test_memo_is_not_a_field(self):
        # the memo lives on the denoiser; the prior is only its parameters
        a = small_prior(k=3, n=4, seed=46)
        GmmDenoiser(a).denoise(np.ones((1, 4)), [0.5])
        assert not any(hasattr(a, name) for name in ("_kept", "_mean_sq"))
        assert [f.name for f in dataclasses.fields(a)] == ["weights", "means", "var_scale", "shape"]


def assert_matches_direct(prior, xs, sigmas, vs, mixture_direct):
    # all rows in one call of each method; each row against the direct
    # formula at its own level
    den = GmmDenoiser(prior)
    got = (den.denoise(xs, sigmas), den.jacobian_vjp(xs, sigmas, vs),
           den.jacobian_trace(xs, sigmas))
    for b, sigma in enumerate(sigmas):
        for rows, want in zip(got, mixture_direct(prior, xs[b], sigma, vs[b])):
            assert np.max(np.abs(rows[b] - want)) <= 1e-9 * np.max(np.abs(want))


class TestDirectFormula:
    """The mixture posterior on rows against subtract-and-square distances
    and products over all K components, one point at a time; the two round
    differently."""

    @pytest.mark.parametrize("k,n", [(1, 5), (3, 1), (7, 33), (33, 2049), (257, 4096),
                                     (300, 127), (5, 8192), (4, 8193), (9, 10001)])
    def test_moments_match_the_direct_formula(self, k, n, mixture_direct):
        g = RngStream(47, k * 100003 + n)
        means = g.standard_normal((k, n))
        prior = GmmPrior(np.full(k, 1.0 / k), means, 0.5, (n,))
        assert_matches_direct(prior, g.standard_normal((3, n)), [3.0, 0.4, 3.0],
                              g.standard_normal((3, n)), mixture_direct)

    @pytest.mark.parametrize("support", [[0], [5], [11], [0, 11], list(range(12))],
                             ids=["first", "middle", "last", "first-and-last", "all"])
    def test_products_over_the_nonzero_span(self, support, mixture_responsibilities,
                                            mixture_direct):
        g = RngStream(48, len(support) * 100 + support[0])
        w = g.gen.random(12) + 0.5
        prior = GmmPrior(w / w.sum(), g.standard_normal((12, 64)), 0.01, (64,))
        if len(support) == 12:
            # a high level spreads the responsibilities over every component
            sigma, xv = 30.0, 30.0 * g.standard_normal(64)
        else:
            # near the chosen means and so far from the rest that their
            # responsibilities underflow to exactly 0
            sigma = 0.05
            xv = prior.means[support].mean(axis=0) + 0.01 * g.standard_normal(64)
        v = g.standard_normal(64)
        assert_matches_direct(prior, xv[None], [sigma], v[None], mixture_direct)
        resp = mixture_responsibilities(GmmDenoiser(prior), xv, sigma)
        assert np.flatnonzero(resp).tolist() == support

    def test_rows_with_different_spans(self, mixture_responsibilities, mixture_direct):
        # one call over rows whose nonzero responsibilities differ: each
        # row's products run over the union of the spans, where the other
        # rows' responsibilities are exactly 0
        g = RngStream(49, 0)
        w = g.gen.random(12) + 0.5
        prior = GmmPrior(w / w.sum(), g.standard_normal((12, 64)), 0.01, (64,))
        supports = [[5], [0], [11], [3, 4]]
        xs = np.stack([prior.means[s].mean(axis=0) + 0.01 * g.standard_normal(64)
                       for s in supports])
        sigmas = [0.05] * len(supports)
        assert_matches_direct(prior, xs, sigmas, g.standard_normal(xs.shape), mixture_direct)
        for x, support in zip(xs, supports):
            resp = mixture_responsibilities(GmmDenoiser(prior), x, 0.05)
            assert np.flatnonzero(resp).tolist() == support
