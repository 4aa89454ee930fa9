import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgps import (
    BlurOp,
    DownsampleOp,
    MagnitudeDftOp,
    MaskOp,
    RangeClipOp,
    RngStream,
    SgpsError,
    ShapeMismatchError,
    Signal,
    gaussian_kernel,
    identity_op,
    load_kernel,
)


def adjoint_gap(op, seed=0):
    rng = RngStream(seed, 0)
    x = Signal(rng.normal(int(np.prod(op.input_shape))), op.input_shape)
    w = Signal(rng.normal(int(np.prod(op.output_shape))), op.output_shape)
    lhs = float(np.dot(op.apply(x).data, w.data))
    rhs = float(np.dot(x.data, op.adjoint(w).data))
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


def fd_fidelity(op, x, y, sigma_y, h=1e-6):
    def obj(v):
        r = op.apply(x.with_data(v)).data - y.data
        return 0.5 * float(np.dot(r, r)) / (sigma_y * sigma_y)

    g = np.empty(x.n)
    for i in range(x.n):
        e = np.zeros(x.n)
        e[i] = h
        g[i] = (obj(x.data + e) - obj(x.data - e)) / (2 * h)
    return g


class TestMask:
    def test_apply_gathers(self):
        op = MaskOp((5,), np.array([0, 2, 4]))
        out = op.apply(Signal(np.arange(5.0), (5,)))
        np.testing.assert_array_equal(out.data, [0.0, 2.0, 4.0])
        assert out.shape == (3,)

    def test_adjoint_scatters(self):
        op = MaskOp((5,), np.array([0, 2, 4]))
        back = op.adjoint(Signal(np.array([1.0, 2.0, 3.0]), (3,)))
        np.testing.assert_array_equal(back.data, [1.0, 0.0, 2.0, 0.0, 3.0])

    def test_adjoint_identity(self):
        op = MaskOp((9,), np.array([1, 3, 4, 8]))
        assert adjoint_gap(op) < 1e-14

    def test_rejects_duplicates(self):
        with pytest.raises(SgpsError):
            MaskOp((5,), np.array([1, 1, 2]))

    def test_rejects_out_of_range(self):
        with pytest.raises(SgpsError):
            MaskOp((5,), np.array([4, 5]))

    def test_2d_input_flat_measurement(self):
        op = MaskOp((3, 3), np.arange(9))
        out = op.apply(Signal(np.arange(9.0), (3, 3)))
        assert out.shape == (9,)

    def test_checks_input_shape(self):
        op = MaskOp((5,), np.array([0, 1]))
        with pytest.raises(ShapeMismatchError):
            op.apply(Signal(np.zeros(4), (4,)))

    def test_fidelity_gradient_matches_fd(self):
        op = MaskOp((6,), np.array([0, 2, 5]))
        rng = RngStream(3, 0)
        x = Signal(rng.normal(6), (6,))
        y = Signal(rng.normal(3), (3,))
        got = op.fidelity_gradient(x, y, 0.25).data
        np.testing.assert_allclose(got, fd_fidelity(op, x, y, 0.25), rtol=1e-6, atol=1e-8)


def test_identity_op_round_trip():
    op = identity_op((3, 4))
    x = Signal(np.arange(12.0), (3, 4))
    np.testing.assert_array_equal(op.apply(x).data, x.data)
    assert op.apply(x).shape == (12,)


class TestBlur:
    def test_1d_circular_oracle(self):
        kern = np.array([0.25, 0.5, 0.25])
        op = BlurOp((5,), kern)
        x = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        out = op.apply(Signal(x, (5,))).data
        # impulse response wraps around the boundary
        np.testing.assert_allclose(out, [0.5, 0.25, 0.0, 0.0, 0.25], rtol=1e-14)

    def test_matches_fft_convolution_2d(self):
        kern = gaussian_kernel(3, 0.9, 2)
        op = BlurOp((6, 7), kern)
        rng = RngStream(4, 0)
        x = rng.standard_normal((6, 7))
        got = op.apply(Signal(x.reshape(-1), (6, 7))).as_nd()
        pad = np.zeros((6, 7))
        pad[:3, :3] = kern
        pad = np.roll(pad, (-1, -1), axis=(0, 1))  # center the kernel at (0, 0)
        want = np.real(np.fft.ifft2(np.fft.fft2(x) * np.fft.fft2(pad)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize(
        "shape,kshape", [((7,), (3,)), ((8,), (4,)), ((6, 7), (3, 3)), ((9, 6), (3, 2)), ((5, 5), (5, 5))]
    )
    def test_bitwise_equal_to_sum_of_rolled_taps(self, shape, kshape):
        # the pinned sampler bytes depend on this exact summation order
        rng = RngStream(8, 0)
        kern = rng.standard_normal(kshape)
        kern.flat[0] = 0.0
        op = BlurOp(shape, kern)
        x = Signal(rng.normal(int(np.prod(shape))), shape)
        for flip, got in ((1, op.apply(x)), (-1, op.adjoint(x))):
            want = np.zeros(shape)
            for tap in np.ndindex(kshape):
                if kern[tap] == 0.0:
                    continue
                shift = tuple(flip * (j - (k - 1) // 2) for j, k in zip(tap, kshape))
                want += kern[tap] * np.roll(x.as_nd(), shift, axis=tuple(range(len(shape))))
            assert np.array_equal(got.as_nd(), want)

    def test_delta_kernel_is_identity(self):
        op = BlurOp((7,), np.array([0.0, 1.0, 0.0]))
        x = Signal(RngStream(5, 0).normal(7), (7,))
        np.testing.assert_allclose(op.apply(x).data, x.data, rtol=1e-15)

    def test_adjoint_identity(self):
        op = BlurOp((8,), gaussian_kernel(5, 1.0, 1))
        assert adjoint_gap(op) < 1e-14
        op2 = BlurOp((5, 6), gaussian_kernel(3, 0.8, 2))
        assert adjoint_gap(op2) < 1e-14

    def test_mean_preserved(self):
        op = BlurOp((6, 6), gaussian_kernel(5, 1.3, 2))
        x = Signal(RngStream(6, 0).normal(36), (6, 6))
        assert op.apply(x).data.mean() == pytest.approx(x.data.mean(), rel=1e-12)

    def test_fidelity_gradient_matches_fd(self):
        op = BlurOp((6,), gaussian_kernel(3, 0.7, 1))
        rng = RngStream(7, 0)
        x = Signal(rng.normal(6), (6,))
        y = Signal(rng.normal(6), (6,))
        got = op.fidelity_gradient(x, y, 0.5).data
        np.testing.assert_allclose(got, fd_fidelity(op, x, y, 0.5), rtol=1e-6, atol=1e-8)


class TestDownsample:
    def test_block_mean_1d(self):
        op = DownsampleOp((6,), 2)
        out = op.apply(Signal(np.array([1.0, 3.0, 2.0, 4.0, 0.0, 6.0]), (6,)))
        np.testing.assert_array_equal(out.data, [2.0, 3.0, 3.0])

    def test_block_mean_2d(self):
        op = DownsampleOp((4, 4), 2)
        x = np.arange(16.0).reshape(4, 4)
        out = op.apply(Signal(x.reshape(-1), (4, 4))).as_nd()
        want = np.array([[2.5, 4.5], [10.5, 12.5]])
        np.testing.assert_array_equal(out, want)

    def test_adjoint_identity(self):
        assert adjoint_gap(DownsampleOp((12,), 3)) < 1e-14
        assert adjoint_gap(DownsampleOp((6, 8), 2)) < 1e-14

    def test_rejects_indivisible(self):
        with pytest.raises(SgpsError):
            DownsampleOp((7,), 2)

    def test_fidelity_gradient_matches_fd(self):
        op = DownsampleOp((8,), 2)
        rng = RngStream(9, 0)
        x = Signal(rng.normal(8), (8,))
        y = Signal(rng.normal(4), (4,))
        got = op.fidelity_gradient(x, y, 0.3).data
        np.testing.assert_allclose(got, fd_fidelity(op, x, y, 0.3), rtol=1e-6, atol=1e-8)


class TestMagnitudeDft:
    def test_impulse_has_flat_magnitude(self):
        op = MagnitudeDftOp((4, 4), oversample=2.0)
        x = np.zeros((4, 4))
        x[0, 0] = 1.0
        out = op.apply(Signal(x.reshape(-1), (4, 4)))
        np.testing.assert_allclose(out.data, np.ones(out.n), rtol=1e-12)

    def test_matches_numpy_fft(self):
        op = MagnitudeDftOp((4, 6), oversample=2.0)
        rng = RngStream(10, 0)
        x = rng.standard_normal((4, 6))
        out = op.apply(Signal(x.reshape(-1), (4, 6))).as_nd()
        pad = np.zeros((8, 12))
        pad[:4, :6] = x
        want = np.abs(np.fft.fft2(pad))
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_oversample_output_shape(self):
        op = MagnitudeDftOp((4, 4), oversample=1.5)
        assert op.output_shape == (6, 6)

    def test_translation_invariant_magnitude(self):
        # without oversampling, a circular shift leaves |F x| unchanged
        op = MagnitudeDftOp((8, 8), oversample=1.0)
        rng = RngStream(11, 0)
        x = rng.standard_normal((8, 8))
        a = op.apply(Signal(x.reshape(-1), (8, 8))).data
        b = op.apply(Signal(np.roll(x, (2, 3), axis=(0, 1)).reshape(-1), (8, 8))).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_not_linear(self):
        assert not MagnitudeDftOp((4, 4)).linear

    def test_fidelity_gradient_matches_fd(self):
        op = MagnitudeDftOp((3, 3), oversample=2.0)
        rng = RngStream(12, 0)
        x = Signal(rng.normal(9), (3, 3))
        y = op.apply(x)
        y = y.with_data(y.data * (1.0 + 0.05 * rng.normal(y.n)))
        got = op.fidelity_gradient(x, y, 0.4).data
        np.testing.assert_allclose(got, fd_fidelity(op, x, y, 0.4), rtol=1e-5, atol=1e-7)


class TestRangeClip:
    def test_hard_values(self):
        op = RangeClipOp((4,), threshold=2.0)
        out = op.apply(Signal(np.array([-1.0, 1.0, 2.0, 5.0]), (4,)))
        np.testing.assert_allclose(out.data, [-0.5, 0.5, 1.0, 1.0], rtol=1e-14)

    def test_smooth_values(self):
        op = RangeClipOp((3,), threshold=1.5, smooth=True)
        x = np.array([-0.5, 0.0, 3.0])
        np.testing.assert_allclose(op.apply(Signal(x, (3,))).data, np.tanh(x / 1.5), rtol=1e-14)

    def test_not_linear(self):
        assert not RangeClipOp((4,), 1.0).linear

    @pytest.mark.parametrize("smooth", [False, True])
    def test_fidelity_gradient_matches_fd(self, smooth):
        op = RangeClipOp((6,), threshold=1.0, smooth=smooth)
        rng = RngStream(13, 0)
        # keep samples away from the hard-clip kink at the threshold
        x = Signal(np.array([-1.4, -0.6, 0.2, 0.5, 1.6, 2.2]), (6,))
        y = Signal(rng.normal(6) * 0.3, (6,))
        got = op.fidelity_gradient(x, y, 0.7).data
        np.testing.assert_allclose(got, fd_fidelity(op, x, y, 0.7), rtol=1e-5, atol=1e-8)


OPERATOR_MAKERS = {
    "mask": lambda shape: MaskOp(shape, np.arange(0, int(np.prod(shape)), 3)[::-1]),
    "identity": identity_op,
    "blur": lambda shape: BlurOp(shape, gaussian_kernel(3, 0.9, len(shape))),
    "downsample": lambda shape: DownsampleOp(shape, 2),
    "magnitude-dft": lambda shape: MagnitudeDftOp(shape, oversample=1.5),
    "range-clip": lambda shape: RangeClipOp(shape, threshold=0.4),
    "range-clip-smooth": lambda shape: RangeClipOp(shape, threshold=0.4, smooth=True),
}


class TestBatchEqualsLoop:
    """Row b of a batched call is the Signal call on row b, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(OPERATOR_MAKERS))
    @pytest.mark.parametrize("shape", [(12,), (6, 8)])
    @pytest.mark.parametrize("batch", [1, 3, 7])
    def test_rows_match_signal_calls(self, kind, shape, batch):
        op = OPERATOR_MAKERS[kind](shape)
        rng = RngStream(14, batch)
        n, m = int(np.prod(op.input_shape)), int(np.prod(op.output_shape))
        xs = rng.standard_normal((batch, n))
        ws = rng.standard_normal((batch, m))
        y = Signal(rng.normal(m), op.output_shape)
        applied = op.apply(xs)
        grads = op.fidelity_gradient(xs, y.data, 0.3)
        assert applied.shape == (batch, m) and grads.shape == (batch, n)
        adjoined = op.adjoint(ws) if op.linear else None
        for b in range(batch):
            x = Signal(xs[b], op.input_shape)
            assert np.array_equal(applied[b], op.apply(x).data)
            assert np.array_equal(grads[b], op.fidelity_gradient(x, y, 0.3).data)
            if op.linear:
                assert np.array_equal(adjoined[b], op.adjoint(Signal(ws[b], op.output_shape)).data)

    def test_linear_gradient_goes_through_apply_and_adjoint(self):
        # wrappers on an instance's apply and adjoint see the gradient's calls
        op = BlurOp((5,), gaussian_kernel(3, 1.0, 1))
        calls = []
        for name in ("apply", "adjoint"):
            method = getattr(op, name)
            setattr(op, name, lambda arr, _m=method, _n=name: calls.append(_n) or _m(arr))
        op.fidelity_gradient(np.ones((3, 5)), np.zeros(5), 0.5)
        assert calls == ["apply", "adjoint"]


class TestKernels:
    def test_gaussian_kernel_normalized_and_symmetric(self):
        k = gaussian_kernel(5, 1.2, 1)
        assert k.sum() == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(k, k[::-1], rtol=1e-14)

    def test_gaussian_kernel_2d_is_outer_product(self):
        k1 = gaussian_kernel(3, 0.8, 1)
        k2 = gaussian_kernel(3, 0.8, 2)
        np.testing.assert_allclose(k2, np.outer(k1, k1), rtol=1e-12)
        assert k2.sum() == pytest.approx(1.0, rel=1e-14)

    def test_rejects_even_size(self):
        with pytest.raises(SgpsError):
            gaussian_kernel(4, 1.0, 1)

    def test_load_kernel(self, tmp_path):
        path = tmp_path / "kern.txt"
        np.savetxt(path, np.array([0.25, 0.5, 0.25]))
        k = load_kernel(str(path))
        np.testing.assert_allclose(k, [0.25, 0.5, 0.25])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 24),
    kept=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_mask_adjoint_property(n, kept, seed):
    rng = RngStream(seed, 0)
    keep = np.sort(rng.gen.permutation(n)[: min(kept, n)])
    assert adjoint_gap(MaskOp((n,), keep), seed) < 1e-13


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 20), width=st.floats(0.3, 2.0), seed=st.integers(0, 1000))
def test_blur_adjoint_property(n, width, seed):
    assert adjoint_gap(BlurOp((n,), gaussian_kernel(3, width, 1)), seed) < 1e-13


@settings(max_examples=40, deadline=None)
@given(blocks=st.integers(1, 6), factor=st.integers(1, 4), seed=st.integers(0, 1000))
def test_downsample_adjoint_property(blocks, factor, seed):
    assert adjoint_gap(DownsampleOp((blocks * factor,), factor), seed) < 1e-13
