import warnings

import numpy as np
import pytest

from sgps import RngStream, SgpsError, Signal
from sgps.analysis import smooth_field
from sgps.noise_est import PatchConfig, estimate_sigma, extract_patches, tail_eigenvalues


class TestExtractPatches:
    def test_1d_count_and_content(self):
        x = Signal(np.arange(10.0), (10,))
        p = extract_patches(x, PatchConfig(patch_size=4, stride=1))
        assert p.shape == (7, 4)
        np.testing.assert_array_equal(p[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(p[-1], [6, 7, 8, 9])

    def test_1d_stride(self):
        x = Signal(np.arange(10.0), (10,))
        p = extract_patches(x, PatchConfig(patch_size=4, stride=3))
        assert p.shape == (3, 4)
        np.testing.assert_array_equal(p[1], [3, 4, 5, 6])

    def test_2d_count_and_content(self):
        x = Signal(np.arange(25.0), (5, 5))
        p = extract_patches(x, PatchConfig(patch_size=3, stride=1))
        assert p.shape == (9, 9)
        np.testing.assert_array_equal(p[0], [0, 1, 2, 5, 6, 7, 10, 11, 12])

    def test_2d_stride(self):
        x = Signal(np.arange(36.0), (6, 6))
        p = extract_patches(x, PatchConfig(patch_size=3, stride=3))
        assert p.shape == (4, 9)

    def test_signal_smaller_than_patch(self):
        with pytest.raises(SgpsError):
            extract_patches(Signal(np.zeros(5), (5,)), PatchConfig(patch_size=7))

    def test_config_validation(self):
        with pytest.raises(SgpsError):
            PatchConfig(patch_size=0)
        with pytest.raises(SgpsError):
            PatchConfig(stride=0)
        with pytest.raises(SgpsError):
            PatchConfig(rel_tol=-1.0)


def test_tail_eigenvalues_descending_and_match_numpy():
    rng = RngStream(1, 0)
    patches = rng.standard_normal((40, 6))
    lam = tail_eigenvalues(patches)
    centered = patches - patches.mean(0)
    cov = centered.T @ centered / patches.shape[0]
    ref = np.sort(np.linalg.eigvalsh(cov))[::-1]
    np.testing.assert_allclose(lam, ref, rtol=1e-10, atol=1e-12)
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.all(lam >= 0)


def test_pure_noise_estimate():
    rng = RngStream(2, 0)
    sigma = 0.3
    x = Signal(sigma * rng.normal(4096), (64, 64))
    est = estimate_sigma(x, PatchConfig())
    assert est == pytest.approx(sigma, rel=0.05)


def test_smooth_signal_plus_noise():
    # low-rank structure goes to the top eigenvalues; the flat tail is noise
    rng = RngStream(3, 0)
    base = smooth_field(rng, (48, 48), 0.5)
    sigma = 0.1
    x = base.with_data(base.data + sigma * rng.normal(base.n))
    est = estimate_sigma(x, PatchConfig())
    assert est == pytest.approx(sigma, rel=0.15)


def test_planted_low_rank_plus_noise():
    # exactly rank-2 patches plus iid noise: tail mean identifies sigma^2
    rng = RngStream(4, 0)
    n = 80
    t = np.linspace(0.0, 4.0 * np.pi, n)
    clean = 0.8 * np.sin(t) + 0.5 * np.cos(2.0 * t)
    sigma = 0.2
    x = Signal(clean + sigma * rng.normal(n), (n,))
    est = estimate_sigma(x, PatchConfig(patch_size=7))
    assert est == pytest.approx(sigma, rel=0.25)


def test_monotone_in_true_noise():
    rng = RngStream(5, 0)
    base = smooth_field(rng, (48, 48), 0.5)
    ests = []
    for sigma in (0.05, 0.1, 0.2, 0.4):
        noisy = base.with_data(base.data + sigma * RngStream(6, int(sigma * 1000)).normal(base.n))
        ests.append(estimate_sigma(noisy, PatchConfig()))
    assert all(a < b for a, b in zip(ests, ests[1:]))


def test_noise_free_smooth_signal_reads_near_zero():
    rng = RngStream(7, 0)
    base = smooth_field(rng, (32, 32), 0.5)
    est = estimate_sigma(base, PatchConfig())
    assert est < 0.02


def test_needs_at_least_two_patches():
    with pytest.raises(SgpsError):
        estimate_sigma(Signal(np.zeros(7), (7,)), PatchConfig(patch_size=7))


def test_few_patches_warns_but_returns():
    # fewer patches than patch dimension: rank-deficient covariance
    rng = RngStream(8, 0)
    x = Signal(0.25 * rng.normal(10), (10,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = estimate_sigma(x, PatchConfig(patch_size=7))
    assert any("patch" in str(w.message).lower() for w in caught)
    assert np.isfinite(est)
    assert est >= 0.0


def test_deterministic():
    rng = RngStream(9, 0)
    x = Signal(0.1 * rng.normal(1024), (32, 32))
    assert estimate_sigma(x, PatchConfig()) == estimate_sigma(x, PatchConfig())


def test_estimate_matches_np_median_scan():
    # the scan reads medians off the sorted spectrum; it must agree bit for
    # bit with the plain mean-and-np.median scan over each tail
    cfg = PatchConfig(patch_size=5)
    for seed, shape in ((1, (16, 16)), (2, (24, 20)), (3, (64,)), (4, (33,))):
        base = smooth_field(RngStream(seed, 0), shape, 0.5)
        x = base.with_data(base.data + 0.05 * RngStream(seed, 1).normal(base.n))
        lam = tail_eigenvalues(extract_patches(x, cfg))
        want = float(np.sqrt(lam[-1]))
        for i in range(lam.size):
            mean = float(lam[i:].mean())
            med = float(np.median(lam[i:]))
            if mean <= med or abs(mean - med) <= cfg.rel_tol * med:
                want = float(np.sqrt(max(mean, 0.0)))
                break
        assert estimate_sigma(x, cfg) == want
