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
    """A measurement operator.

    apply, adjoint and fidelity_gradient take one Signal, whose shape is
    checked, or a (B, n) float64 array with one chain per row, which is not;
    they return the same kind.  A Signal runs the row code as a one-row
    batch, so row b of a batched call equals the call on row b's Signal
    bit for bit.
    """

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

    def apply(self, x: Signal | np.ndarray) -> Signal | np.ndarray:
        if not isinstance(x, Signal):
            return self._apply_rows(x)
        self._check_input(x)
        return Signal._adopt(self._apply_rows(x.data[None])[0], self.output_shape)

    def adjoint(self, w: Signal | np.ndarray) -> Signal | np.ndarray:
        if not isinstance(w, Signal):
            return self._adjoint_rows(w)
        self._check_output(w)
        return Signal._adopt(self._adjoint_rows(w.data[None])[0], self.input_shape)

    def fidelity_gradient(
        self, x: Signal | np.ndarray, y: Signal | np.ndarray, sigma_y: float
    ) -> Signal | np.ndarray:
        """Gradient of ||A(x) - y||^2 / (2 sigma_y^2) with respect to x.

        x and y are Signals, or x is a (B, n) array of rows and y the flat
        measurement array every row is compared with.
        """
        if sigma_y <= 0:
            raise SgpsError(f"sigma_y must be positive, got {sigma_y}")
        if not isinstance(x, Signal):
            return self._gradient_rows(x, y, sigma_y)
        self._check_input(x)
        self._check_output(y)
        g = self._gradient_rows(x.data[None], y.data, sigma_y)
        return Signal._adopt(g[0], self.input_shape)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint_rows(self, ws: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} has no adjoint (nonlinear operator)")

    def _gradient_rows(self, xs: np.ndarray, y: np.ndarray, sigma_y: float) -> np.ndarray:
        if not self.linear:
            raise NotImplementedError(f"{self.kind} must override fidelity_gradient")
        # through the public methods, so a wrapper on them sees every call
        r = self.apply(xs) - y
        return self.adjoint(r) / (sigma_y * sigma_y)


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
        # the adjoint gathers each coordinate's measurement from the row
        # with a zero appended; a dropped coordinate reads the zero
        self._spread = np.full(n, idx.size)
        self._spread[idx] = np.arange(idx.size)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return xs.take(self.keep, axis=-1)

    def _adjoint_rows(self, ws: np.ndarray) -> np.ndarray:
        padded = np.zeros((len(ws), ws.shape[1] + 1))
        padded[:, :-1] = ws
        return padded.take(self._spread, axis=-1)


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
        # flat indices of the padded signal, so padding a row is one take
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
                # the leading slice keeps every row of the batch
                window = (slice(None),) + tuple(
                    slice(p - sign * offsets[ax][j], p - sign * offsets[ax][j] + size)
                    for ax, (j, p, size) in enumerate(zip(tap_idx, pads, self.input_shape))
                )
                taps.append((c, window))
            self._taps[flip] = taps

    def _convolve(self, xs: np.ndarray, flip: bool) -> np.ndarray:
        # the window of a tap with shift s holds np.roll(row, s), and the taps
        # are summed in kernel order, so each row is that of rolling
        padded = xs.take(self._wrap, axis=-1)
        out = np.zeros((len(xs),) + self.input_shape)
        term = np.empty_like(out)
        for c, window in self._taps[flip]:
            np.multiply(c, padded[window], out=term)
            out += term
        return out.reshape(len(xs), -1)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return self._convolve(xs, flip=False)

    def _adjoint_rows(self, ws: np.ndarray) -> np.ndarray:
        return self._convolve(ws, flip=True)


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

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        f = self.factor
        b = len(xs)
        if len(self.input_shape) == 1:
            out = xs.reshape(b, -1, f).mean(axis=2)
        else:
            h, w = self.output_shape
            out = xs.reshape(b, h, f, w, f).mean(axis=(2, 4))
        return out.reshape(b, -1)

    def _adjoint_rows(self, ws: np.ndarray) -> np.ndarray:
        f = self.factor
        b = len(ws)
        arr = ws.reshape((b,) + self.output_shape)
        for ax in range(1, arr.ndim):
            arr = np.repeat(arr, f, axis=ax)
        return arr.reshape(b, -1) / f ** len(self.output_shape)


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
        # the input's corner of the padded grid, for every row
        self._corner = (slice(None),) + tuple(slice(0, s) for s in self.input_shape)

    @staticmethod
    def _dft_matrix(n: int) -> np.ndarray:
        j = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(j, j) / n)

    def _dft(self, arr: np.ndarray) -> np.ndarray:
        """The DFT matrices applied to each row's grid; a 1-D grid is a
        column, so every row takes the same matrix-vector product."""
        if arr.ndim == 2:
            return (self._mats[0] @ arr[..., None])[..., 0]
        return self._mats[0] @ arr @ self._mats[1]

    def _transform(self, xs: np.ndarray) -> np.ndarray:
        b = len(xs)
        grid = np.zeros((b,) + self.output_shape)
        grid[self._corner] = xs.reshape((b,) + self.input_shape)
        return self._dft(grid)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return np.abs(self._transform(xs)).reshape(len(xs), -1)

    def _gradient_rows(self, xs: np.ndarray, y: np.ndarray, sigma_y: float) -> np.ndarray:
        z = self._transform(xs)
        m = np.abs(z)
        r = m - y.reshape(self.output_shape)
        # subgradient convention: zero-magnitude bins contribute nothing
        u = np.where(m > 0, r / np.where(m > 0, m, 1.0), 0.0) * z
        g = np.real(self._dft(np.conj(u)))
        return g[self._corner].reshape(len(xs), -1) / (sigma_y * sigma_y)


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

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        t = self.threshold
        if self.smooth:
            return np.tanh(xs / t)
        return np.minimum(xs, t) / t

    def _deriv(self, xv: np.ndarray) -> np.ndarray:
        t = self.threshold
        if self.smooth:
            th = np.tanh(xv / t)
            return (1.0 - th * th) / t
        return np.where(xv < t, 1.0 / t, 0.0)

    def _gradient_rows(self, xs: np.ndarray, y: np.ndarray, sigma_y: float) -> np.ndarray:
        r = self.apply(xs) - y
        return self._deriv(xs) * r / (sigma_y * sigma_y)


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
