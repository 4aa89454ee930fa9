"""Risk estimator: probe plumbing, trace estimates, analytic vs FD gradients."""
from unittest import mock

import numpy as np
import pytest

from sgps.core import RngStream, RoundoffWarning, SamplerConfig, SgpsError, Signal
from sgps.prior import Denoiser, GmmDenoiser, GmmPrior, LinearDenoiser
from sgps.sure import (
    EPSILON_ABS_FLOOR,
    SureEvaluation,
    mc_trace,
    probe_epsilon,
    sure_gradient,
    sure_identity,
    sure_update,
    sure_value,
)


def small_prior(n=8, k=2, seed=3, s2=0.25):
    g = RngStream(seed, 0)
    means = g.standard_normal((k, n))
    w = np.arange(1.0, k + 1.0)
    return GmmPrior(w / w.sum(), means, s2, (n,))


class BareDenoiser(Denoiser):
    """Same map as GmmDenoiser but exposing only denoise, so every consumer
    must take its finite-difference path."""

    def __init__(self, prior):
        self._inner = GmmDenoiser(prior)

    def denoise(self, x, sigma):
        return self._inner.denoise(x, sigma)


def base_config(**kw):
    kw.setdefault("steps", 4)
    kw.setdefault("t_max", 4.0)
    kw.setdefault("sigma_y", 0.1)
    return SamplerConfig(**kw)


class TestProbeEpsilon:
    def test_formula(self):
        x = Signal(np.array([0.5, 2.0, -1.0]), (3,))
        assert probe_epsilon(x, 1000.0) == 2.0 / 1000.0

    def test_floor_when_max_is_negative(self):
        x = Signal(np.array([-3.0, -4.0]), (2,))
        assert probe_epsilon(x, 1000.0) == EPSILON_ABS_FLOOR * 5.0

    def test_floor_when_signal_tiny(self):
        x = Signal(np.full(4, 1e-9), (4,))
        assert probe_epsilon(x, 1000.0) == pytest.approx(EPSILON_ABS_FLOOR, rel=1e-6)

    def test_bad_divisor(self):
        x = Signal(np.ones(2), (2,))
        with pytest.raises(SgpsError):
            probe_epsilon(x, 0.0)


class TestSureValue:
    def test_identity_recomputes_bitwise(self):
        den = GmmDenoiser(small_prior())
        g = RngStream(9, 0)
        x = Signal(g.normal(8), (8,))
        ev = sure_value(den, x, 0.3, base_config(), g.substream(1))
        again = sure_identity(x.n, ev.sigma_used, ev.data_term, ev.trace_estimate)
        assert again == ev.value

    def test_fields_against_manual_linear(self):
        # for D(x) = M x + c the recorded pieces are all closed form
        g = RngStream(12, 0)
        n = 6
        m = g.standard_normal((n, n)) * 0.2
        c = g.normal(n)
        den = LinearDenoiser(m, c)
        x = Signal(g.normal(n), (n,))
        cfg = base_config(mc_probes=3)
        ev = sure_value(den, x, 0.4, cfg, g.substream(2))
        want_hat = m @ x.data + c
        np.testing.assert_allclose(ev.denoised.data, want_hat, rtol=1e-12)
        resid = x.data - want_hat
        assert ev.data_term == pytest.approx(float(resid @ resid), rel=1e-12)
        # perturbed - base = eps * M b exactly in the linear case
        want_trace = np.mean([b @ (m @ b) for b in ev.probes])
        assert ev.trace_estimate == pytest.approx(want_trace, rel=1e-9)
        assert ev.probes.shape == (3, n)
        assert ev.epsilon == probe_epsilon(x, cfg.epsilon_divisor)

    def test_probes_frozen_and_2d(self):
        den = GmmDenoiser(small_prior())
        g = RngStream(9, 1)
        x = Signal(g.normal(8), (8,))
        ev = sure_value(den, x, 0.3, base_config(), g.substream(1))
        with pytest.raises(ValueError):
            ev.probes[0, 0] = 0.0
        with pytest.raises(SgpsError):
            SureEvaluation(x, 0.0, 0.0, 0.0, 0.3, 1e-3, np.zeros(4), x)

    def test_sigma_must_be_positive(self):
        den = GmmDenoiser(small_prior())
        x = Signal(np.zeros(8), (8,))
        with pytest.raises(SgpsError):
            sure_value(den, x, 0.0, base_config(), RngStream(1, 0))

    def test_constant_denoiser_warns_roundoff(self):
        den = LinearDenoiser(np.zeros((4, 4)), np.ones(4))
        x = Signal(np.ones(4) * 0.5, (4,))
        with pytest.warns(RoundoffWarning):
            sure_value(den, x, 0.2, base_config(), RngStream(2, 0))

    def test_unbiased_against_paired_mse(self):
        # light version of the estimator's defining property
        n = 16
        prior = small_prior(n=n, k=2, seed=21, s2=0.25)
        den = GmmDenoiser(prior)
        cfg = base_config(mc_probes=1)
        sigma = 0.25
        draws = 3000
        sure_vals = np.empty(draws)
        mse_vals = np.empty(draws)
        for i in range(draws):
            g = RngStream(3000 + i, 0)
            x0 = prior.draw(g)
            noisy = x0.with_data(x0.data + sigma * g.substream(1).normal(n))
            ev = sure_value(den, noisy, sigma, cfg, g.substream(2))
            sure_vals[i] = ev.value
            diff = ev.denoised.data - x0.data
            mse_vals[i] = float(diff @ diff)
        gap = sure_vals.mean() - mse_vals.mean()
        sem = np.sqrt(sure_vals.var(ddof=1) / draws + mse_vals.var(ddof=1) / draws)
        assert abs(gap) < 4.0 * sem


class TestMcTrace:
    def test_matches_manual_probe_average(self):
        g = RngStream(31, 0)
        n = 5
        m = g.standard_normal((n, n)) * 0.3
        den = LinearDenoiser(m)
        x = Signal(g.normal(n), (n,))
        eps = 1e-3
        est = mc_trace(den, x, 0.5, 8, eps, RngStream(31, 1))
        b = RngStream(31, 1).standard_normal((8, n))
        want = np.mean([bi @ (m @ bi) for bi in b])
        assert est == pytest.approx(want, rel=1e-9)

    def test_base_argument_is_equivalent(self):
        den = GmmDenoiser(small_prior())
        g = RngStream(32, 0)
        x = Signal(g.normal(8), (8,))
        base = den.denoise(x, 0.3)
        a = mc_trace(den, x, 0.3, 4, 1e-3, RngStream(32, 1))
        b = mc_trace(den, x, 0.3, 4, 1e-3, RngStream(32, 1), base=base)
        assert a == b

    def test_converges_to_exact_trace(self):
        prior = small_prior(n=8, k=3, seed=33, s2=0.5)
        den = GmmDenoiser(prior)
        g = RngStream(33, 5)
        x = Signal(g.normal(8), (8,))
        exact = den.jacobian_trace(x, 0.4)
        est = mc_trace(den, x, 0.4, 3000, probe_epsilon(x, 1000.0), g.substream(1))
        assert abs(est - exact) / abs(exact) < 0.05

    def test_validation(self):
        den = GmmDenoiser(small_prior())
        x = Signal(np.zeros(8), (8,))
        with pytest.raises(SgpsError):
            mc_trace(den, x, 0.3, 0, 1e-3, RngStream(1, 0))
        with pytest.raises(SgpsError):
            mc_trace(den, x, 0.3, 2, 0.0, RngStream(1, 0))


class TestSureGradient:
    def test_analytic_matches_central_differences(self):
        # the acceptance suite runs 50 instances; a dozen here for speed
        worst = 0.0
        for inst in range(12):
            g = RngStream(600 + inst, 0)
            n = int(4 + 4 * (inst % 3))
            k = 1 + inst % 3
            prior = small_prior(n=n, k=k, seed=600 + inst, s2=0.2 + 0.1 * (inst % 2))
            analytic = GmmDenoiser(prior)
            bare = BareDenoiser(prior)
            x = Signal(g.normal(n), (n,))
            sigma = 0.15 + 0.1 * (inst % 4)
            cfg = base_config(mc_probes=2)
            ev = sure_value(analytic, x, sigma, cfg, g.substream(1))
            ga = sure_gradient(analytic, ev)
            gf = sure_gradient(bare, ev)
            worst = max(worst, float(np.max(np.abs(ga.data - gf.data))))
        assert worst <= 1e-4

    def test_deterministic_given_evaluation(self):
        den = GmmDenoiser(small_prior(k=3))
        g = RngStream(41, 0)
        x = Signal(g.normal(8), (8,))
        cfg = base_config(mc_probes=2)
        ev = sure_value(den, x, 0.3, cfg, g.substream(1))
        g1 = sure_gradient(den, ev)
        g2 = sure_gradient(den, ev)
        assert np.array_equal(g1.data, g2.data)

    def test_single_component_gradient_ignores_probes(self):
        # constant Jacobian: the probe terms cancel exactly, so any probe
        # count gives the same gradient bit for bit
        prior = small_prior(n=8, k=1, seed=7, s2=0.3)
        den = GmmDenoiser(prior)
        g = RngStream(43, 0)
        x = Signal(g.normal(8), (8,))
        outs = []
        for probes in (1, 5):
            cfg = base_config(mc_probes=probes)
            ev = sure_value(den, x, 0.3, cfg, RngStream(43, probes))
            outs.append(sure_gradient(den, ev))
        assert np.array_equal(outs[0].data, outs[1].data)

    def test_descends_the_fixed_probe_expression(self):
        # a small step along -gradient must lower the frozen-probe value
        prior = small_prior(n=8, k=3, seed=51, s2=0.4)
        den = GmmDenoiser(prior)
        g = RngStream(51, 0)
        x = Signal(prior.draw(g).data + 0.3 * g.substream(1).normal(8), (8,))
        cfg = base_config(mc_probes=2)
        ev = sure_value(den, x, 0.3, cfg, g.substream(2))
        grad = sure_gradient(den, ev)
        from sgps.sure import _evaluate

        before = _evaluate(den, x, 0.3, ev.epsilon, ev.probes).value
        step = 1e-4 / max(1.0, float(np.max(np.abs(grad.data))))
        moved = x.with_data(x.data - step * grad.data)
        after = _evaluate(den, moved, 0.3, ev.epsilon, ev.probes).value
        assert after < before


    @pytest.mark.parametrize("probes", [1, 4, 15])
    def test_gradient_reuses_the_value_posteriors(self, probes):
        # the value denoises the base point and each shifted point; the
        # gradient's Jacobian products are taken at the same points
        prior = small_prior(n=12, k=5, seed=17)
        den = GmmDenoiser(prior)
        x = Signal(RngStream(18, 0).normal(12), (12,))
        cfg = base_config(mc_probes=probes)
        with mock.patch.object(GmmPrior, "_log_resp", autospec=True,
                               side_effect=GmmPrior._log_resp) as spy:
            ev = sure_value(den, x, 0.3, cfg, RngStream(19, 0))
            grad = sure_gradient(den, ev)
        assert spy.call_count == 1 + probes
        fresh = GmmDenoiser(small_prior(n=12, k=5, seed=17))
        ev_fresh = sure_value(fresh, x, 0.3, cfg, RngStream(19, 0))
        fresh.prior._memo.clear()
        want = sure_gradient(fresh, ev_fresh)
        assert np.array_equal(grad.data, want.data)


class TestSureUpdate:
    def test_formula(self):
        x = Signal(np.array([1.0, 2.0]), (2,))
        grad = Signal(np.array([0.5, -1.0]), (2,))
        out = sure_update(x, grad, 0.5)
        np.testing.assert_array_equal(out.data, [0.75, 2.5])

    def test_alpha_zero_is_identity(self):
        g = RngStream(61, 0)
        x = Signal(g.normal(6), (6,))
        grad = Signal(g.normal(6), (6,))
        assert np.array_equal(sure_update(x, grad, 0.0).data, x.data)

    def test_validation(self):
        x = Signal(np.zeros(4), (4,))
        with pytest.raises(SgpsError):
            sure_update(x, Signal(np.zeros(5), (5,)), 0.5)
        with pytest.raises(SgpsError):
            sure_update(x, x, -0.1)
