"""Forward measurement operators and gradients of the data-fidelity term.

Linear operators expose an exact adjoint, and the generic fidelity gradient
A^T (A x - y) / sigma_y^2 falls out of it.  The nonlinear operators override
the gradient with their almost-everywhere derivative, using the convention
that the derivative is zero exactly at non-differentiable points.
"""
from __future__ import annotations

import numpy as np

from .core import SgpsError, ShapeMismatchError, Signal


class ForwardOp:
    kind: str = "abstract"
    linear: bool = False

    def __init__(self, input_shape: tuple[int, ...], output_shape: tuple[int, ...]):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.output_shape = tuple(int(s) for s in output_shape)

    def _check_input(self, x: Signal) -> None:
        if x.shape != self.input_shape:
            raise ShapeMismatchError(
                f"{self.kind}: input shape {x.shape}, expected {self.input_shape}"
            )

    def _check_output(self, y: Signal) -> None:
        if y.shape != self.output_shape:
            raise ShapeMismatchError(
                f"{self.kind}: measurement shape {y.shape}, expected {self.output_shape}"
            )

    def apply(self, x: Signal) -> Signal:
        raise NotImplementedError

    def adjoint(self, w: Signal) -> Signal:
        raise NotImplementedError(f"{self.kind} has no adjoint (nonlinear operator)")

    def fidelity_gradient(self, x: Signal, y: Signal, sigma_y: float) -> Signal:
        """Gradient of ||A(x) - y||^2 / (2 sigma_y^2) with respect to x."""
        if sigma_y <= 0:
            raise SgpsError(f"sigma_y must be positive, got {sigma_y}")
        if not self.linear:
            raise NotImplementedError(f"{self.kind} must override fidelity_gradient")
        self._check_input(x)
        self._check_output(y)
        r = self.apply(x).data - y.data
        g = self.adjoint(Signal._adopt(r, self.output_shape))
        return Signal._adopt(g.data / (sigma_y * sigma_y), self.input_shape)


class MaskOp(ForwardOp):
    """Keeps the listed flat coordinates, in the given order."""

    kind = "mask"
    linear = True

    def __init__(self, input_shape: tuple[int, ...], keep: np.ndarray):
        idx = np.asarray(keep, dtype=np.int64).reshape(-1)
        n = int(np.prod(input_shape))
        if idx.size == 0:
            raise SgpsError("mask must keep at least one coordinate")
        if np.any(idx < 0) or np.any(idx >= n):
            raise SgpsError(f"mask indices out of range for n={n}")
        if np.unique(idx).size != idx.size:
            raise SgpsError("mask indices must be distinct")
        super().__init__(input_shape, (idx.size,))
        self.keep = idx
        self._n = n

    def apply(self, x: Signal) -> Signal:
        self._check_input(x)
        return Signal._adopt(x.data[self.keep], self.output_shape)

    def adjoint(self, w: Signal) -> Signal:
        self._check_output(w)
        out = np.zeros(self._n)
        out[self.keep] = w.data
        return Signal._adopt(out, self.input_shape)


def identity_op(input_shape: tuple[int, ...]) -> MaskOp:
    n = int(np.prod(input_shape))
    return MaskOp(input_shape, np.arange(n))


class BlurOp(ForwardOp):
    """Circular convolution with a stored kernel.

    The kernel has the same number of axes as the signal and is anchored at
    its center tap, so a symmetric kernel gives a self-adjoint operator.
    """

    kind = "blur"
    linear = True

    def __init__(self, input_shape: tuple[int, ...], kernel: np.ndarray):
        k = np.asarray(kernel, dtype=np.float64)
        if k.ndim != len(input_shape):
            raise SgpsError(
                f"kernel ndim {k.ndim} does not match signal ndim {len(input_shape)}"
            )
        if any(ks > s for ks, s in zip(k.shape, input_shape)):
            raise SgpsError(f"kernel {k.shape} larger than signal {input_shape}")
        super().__init__(input_shape, input_shape)
        self.kernel = k
        # centered tap offsets per axis; the signal is wrap-padded by the
        # widest offset so that every tap reads a plain window of the padding
        offsets = [[j - (dim - 1) // 2 for j in range(dim)] for dim in k.shape]
        pads = [max(abs(o) for o in offs) for offs in offsets]
        # flat indices of the padded signal, so padding is one take
        axes = [np.arange(-p, size + p) % size for p, size in zip(pads, self.input_shape)]
        self._wrap = np.ravel_multi_index(np.ix_(*axes), self.input_shape)
        self._taps = {}
        for flip in (False, True):
            sign = -1 if flip else 1
            taps = []
            for tap_idx in np.ndindex(k.shape):
                c = k[tap_idx]
                if c == 0.0:
                    continue
                window = tuple(
                    slice(p - sign * offsets[ax][j], p - sign * offsets[ax][j] + size)
                    for ax, (j, p, size) in enumerate(zip(tap_idx, pads, self.input_shape))
                )
                taps.append((c, window))
            self._taps[flip] = taps

    def _convolve(self, arr: np.ndarray, flip: bool) -> np.ndarray:
        # the window of a tap with shift s holds np.roll(arr, s), and the taps
        # are summed in kernel order, so the result is that of rolling
        padded = arr.take(self._wrap)
        out = np.zeros(self.input_shape)
        term = np.empty(self.input_shape)
        for c, window in self._taps[flip]:
            np.multiply(c, padded[window], out=term)
            out += term
        return out

    def apply(self, x: Signal) -> Signal:
        self._check_input(x)
        return x.with_data(self._convolve(x.data, flip=False))

    def adjoint(self, w: Signal) -> Signal:
        self._check_output(w)
        return w.with_data(self._convolve(w.data, flip=True))


class DownsampleOp(ForwardOp):
    """Block average by an integer factor along every axis."""

    kind = "downsample"
    linear = True

    def __init__(self, input_shape: tuple[int, ...], factor: int):
        f = int(factor)
        if f < 1:
            raise SgpsError(f"factor must be >= 1, got {factor}")
        if any(s % f != 0 for s in input_shape):
            raise SgpsError(f"shape {input_shape} not divisible by factor {f}")
        super().__init__(input_shape, tuple(s // f for s in input_shape))
        self.factor = f

    def apply(self, x: Signal) -> Signal:
        self._check_input(x)
        f = self.factor
        arr = x.as_nd()
        if arr.ndim == 1:
            out = arr.reshape(-1, f).mean(axis=1)
        else:
            h, w = self.output_shape
            out = arr.reshape(h, f, w, f).mean(axis=(1, 3))
        return Signal(out.reshape(-1), self.output_shape)

    def adjoint(self, w: Signal) -> Signal:
        self._check_output(w)
        f = self.factor
        arr = w.as_nd()
        block = f ** arr.ndim
        for ax in range(arr.ndim):
            arr = np.repeat(arr, f, axis=ax)
        return Signal(arr.reshape(-1) / block, self.input_shape)


class MagnitudeDftOp(ForwardOp):
    """Pointwise magnitude of the DFT on a zero-padded oversampled grid.

    The transform is evaluated with explicit DFT matrices, which keeps the
    gradient derivation transparent at the signal sizes used here.
    """

    kind = "magnitude-dft"
    linear = False

    def __init__(self, input_shape: tuple[int, ...], oversample: float = 2.0):
        if oversample < 1.0:
            raise SgpsError(f"oversample must be >= 1, got {oversample}")
        padded = tuple(int(round(oversample * s)) for s in input_shape)
        super().__init__(input_shape, padded)
        self.oversample = float(oversample)
        self._mats = [self._dft_matrix(p) for p in padded]

    @staticmethod
    def _dft_matrix(n: int) -> np.ndarray:
        j = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(j, j) / n)

    def _pad(self, arr: np.ndarray) -> np.ndarray:
        out = np.zeros(self.output_shape, dtype=np.float64)
        sl = tuple(slice(0, s) for s in arr.shape)
        out[sl] = arr
        return out

    def _transform(self, arr: np.ndarray) -> np.ndarray:
        xp = self._pad(arr)
        if xp.ndim == 1:
            return self._mats[0] @ xp
        return self._mats[0] @ xp @ self._mats[1]

    def apply(self, x: Signal) -> Signal:
        self._check_input(x)
        z = self._transform(x.as_nd())
        return Signal(np.abs(z).reshape(-1), self.output_shape)

    def fidelity_gradient(self, x: Signal, y: Signal, sigma_y: float) -> Signal:
        if sigma_y <= 0:
            raise SgpsError(f"sigma_y must be positive, got {sigma_y}")
        self._check_input(x)
        self._check_output(y)
        z = self._transform(x.as_nd())
        m = np.abs(z)
        r = m - y.as_nd()
        # subgradient convention: zero-magnitude bins contribute nothing
        u = np.where(m > 0, r / np.where(m > 0, m, 1.0), 0.0) * z
        if z.ndim == 1:
            g = np.real(self._mats[0] @ np.conj(u))
        else:
            g = np.real(self._mats[0] @ np.conj(u) @ self._mats[1])
        sl = tuple(slice(0, s) for s in self.input_shape)
        return Signal(g[sl].reshape(-1) / (sigma_y * sigma_y), self.input_shape)


class RangeClipOp(ForwardOp):
    """Dynamic-range compression: min(x, threshold) / threshold.

    With smooth=True the hard clip is replaced by tanh(x / threshold), a
    saturating map with the same scale and an everywhere-defined derivative.
    The hard clip uses derivative zero at the kink x == threshold.
    """

    kind = "range-clip"
    linear = False

    def __init__(self, input_shape: tuple[int, ...], threshold: float, smooth: bool = False):
        if threshold <= 0:
            raise SgpsError(f"threshold must be positive, got {threshold}")
        super().__init__(input_shape, input_shape)
        self.threshold = float(threshold)
        self.smooth = bool(smooth)

    def apply(self, x: Signal) -> Signal:
        self._check_input(x)
        t = self.threshold
        if self.smooth:
            return x.with_data(np.tanh(x.data / t))
        return x.with_data(np.minimum(x.data, t) / t)

    def _deriv(self, xv: np.ndarray) -> np.ndarray:
        t = self.threshold
        if self.smooth:
            th = np.tanh(xv / t)
            return (1.0 - th * th) / t
        return np.where(xv < t, 1.0 / t, 0.0)

    def fidelity_gradient(self, x: Signal, y: Signal, sigma_y: float) -> Signal:
        if sigma_y <= 0:
            raise SgpsError(f"sigma_y must be positive, got {sigma_y}")
        self._check_input(x)
        self._check_output(y)
        r = self.apply(x).data - y.data
        return x.with_data(self._deriv(x.data) * r / (sigma_y * sigma_y))


def load_kernel(path: str) -> np.ndarray:
    """Kernel taps from a whitespace-separated text file; rows become axes."""
    k = np.loadtxt(path, dtype=np.float64)
    return np.atleast_1d(k)


def gaussian_kernel(size: int, width: float, ndim: int = 1) -> np.ndarray:
    """Normalized truncated Gaussian taps; 2D kernels are outer products."""
    if size < 1 or size % 2 == 0:
        raise SgpsError(f"kernel size must be odd and positive, got {size}")
    if width <= 0:
        raise SgpsError(f"kernel width must be positive, got {width}")
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-0.5 * (r / width) ** 2)
    taps /= taps.sum()
    if ndim == 1:
        return taps
    if ndim == 2:
        return np.outer(taps, taps)
    raise SgpsError(f"ndim must be 1 or 2, got {ndim}")
