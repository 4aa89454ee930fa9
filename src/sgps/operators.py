"""Forward measurement operators and gradients of the data-fidelity term.

Linear operators expose an exact adjoint, and the generic fidelity gradient
A^T (A x - y) / sigma_y^2 falls out of it.  The nonlinear operators override
the gradient with their almost-everywhere derivative, using the convention
that the derivative is zero exactly at non-differentiable points.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .core import SgpsError, ShapeMismatchError, Signal


class ForwardOp:
    """A measurement operator.

    apply, adjoint and fidelity_gradient take one Signal, whose shape is
    checked, or a (B, n) float64 array with one chain per row, which is not;
    they return the same kind.  A Signal runs the row code as a one-row
    batch, so row b of a batched call equals the call on row b's Signal
    bit for bit.

    lipschitz_bound is ||A^T A|| up to rounding for a linear operator (an
    upper bound for a blur kernel with negative taps); for a nonlinear
    operator it bounds the Gauss-Newton term of the fidelity gradient.  The
    default Langevin step divides by it.
    """

    kind: str = "abstract"
    linear: bool = False
    lipschitz_bound: float

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
        return Signal(self._apply_rows(x.data[None])[0], self.output_shape)

    def adjoint(self, w: Signal | np.ndarray) -> Signal | np.ndarray:
        if not isinstance(w, Signal):
            return self._adjoint_rows(w)
        self._check_output(w)
        return Signal(self._adjoint_rows(w.data[None])[0], self.input_shape)

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
        return Signal(g[0], self.input_shape)

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
        self.lipschitz_bound = 1.0
        # the adjoint gathers each coordinate's measurement from the row
        # with a zero appended; a dropped coordinate reads the zero
        self._spread = np.full(n, idx.size)
        self._spread[idx] = np.arange(idx.size)
        self._identity = idx.size == n and bool(np.all(idx == np.arange(n)))

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return xs.take(self.keep, axis=-1)

    def _adjoint_rows(self, ws: np.ndarray) -> np.ndarray:
        padded = np.zeros((len(ws), ws.shape[1] + 1))
        padded[:, :-1] = ws
        return padded.take(self._spread, axis=-1)

    def _gradient_rows(self, xs: np.ndarray, y: np.ndarray, sigma_y: float) -> np.ndarray:
        # A^T (A x - y) / sigma_y^2 without the padded copy and the gather:
        # the same values, divided the same way
        if self._identity:
            g = xs - y
        else:
            g = np.zeros(xs.shape)
            g[:, self.keep] = xs.take(self.keep, axis=-1) - y
        g /= sigma_y * sigma_y
        return g


def identity_op(input_shape: tuple[int, ...]) -> MaskOp:
    n = int(np.prod(input_shape))
    return MaskOp(input_shape, np.arange(n))


class BlurOp(ForwardOp):
    """Circular convolution with a stored kernel.

    The kernel has the same number of axes as the signal and is anchored at
    its center tap, so a symmetric kernel gives a self-adjoint operator.  Its
    taps must be finite, and at least one must be nonzero.
    """

    kind = "blur"
    linear = True

    def __init__(self, input_shape: tuple[int, ...], kernel: np.ndarray):
        # scipy.sparse costs start-up time and memory that only blur tasks need
        import scipy.sparse

        k = np.asarray(kernel, dtype=np.float64)
        if k.size == 0:
            raise SgpsError("kernel is empty")
        if k.ndim != len(input_shape):
            raise SgpsError(
                f"kernel ndim {k.ndim} does not match signal ndim {len(input_shape)}"
            )
        if any(ks > s for ks, s in zip(k.shape, input_shape)):
            raise SgpsError(f"kernel {k.shape} larger than signal {input_shape}")
        if not np.all(np.isfinite(k)):
            raise SgpsError("kernel taps must be finite")
        nonzero = k != 0.0
        if not nonzero.any():
            raise SgpsError("kernel has no nonzero tap")
        super().__init__(input_shape, input_shape)
        self.kernel = k
        # no frequency response exceeds the kernel's absolute sum
        self.lipschitz_bound = float(np.abs(k).sum()) ** 2
        # centered offsets of the nonzero taps, in kernel order: (ndim, 1, taps)
        offsets = (np.argwhere(nonzero) - (np.array(k.shape) - 1) // 2).T[:, None, :]
        n = math.prod(self.input_shape)
        grid = np.indices(self.input_shape).reshape(k.ndim, n, 1)
        data = np.tile(k[nonzero], n)
        indptr = np.arange(0, data.size + 1, offsets.shape[2])
        # output i reads input i - offset (apply) or i + offset (adjoint).
        # Each row keeps its taps in kernel order, unsorted: the product adds
        # data[jj] * x[col[jj]] to 0.0 in storage order, so a row equals the
        # sum of np.roll'ed taps bit for bit
        self._matrices = {}
        for flip, sign in ((False, -1), (True, 1)):
            cols = np.ravel_multi_index(
                tuple(grid + sign * offsets), self.input_shape, mode="wrap"
            )
            self._matrices[flip] = scipy.sparse.csr_array(
                (data, cols.reshape(-1), indptr), shape=(n, n)
            )

    def _convolve(self, xs: np.ndarray, flip: bool) -> np.ndarray:
        return np.ascontiguousarray((self._matrices[flip] @ xs.T).T)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return self._convolve(xs, flip=False)

    def _adjoint_rows(self, ws: np.ndarray) -> np.ndarray:
        return self._convolve(ws, flip=True)


class DownsampleOp(ForwardOp):
    """Block average by an integer factor along every axis of a 1-D or 2-D
    signal."""

    kind = "downsample"
    linear = True

    def __init__(self, input_shape: tuple[int, ...], factor: int):
        if not (isinstance(factor, (int, np.integer)) and factor >= 1):
            raise SgpsError(f"factor must be an integer >= 1, got {factor}")
        f = int(factor)
        if len(input_shape) not in (1, 2):
            raise SgpsError(f"downsampling needs a 1-D or 2-D shape, got {input_shape}")
        if any(s % f != 0 for s in input_shape):
            raise SgpsError(f"shape {input_shape} not divisible by factor {f}")
        super().__init__(input_shape, tuple(s // f for s in input_shape))
        self.factor = f
        self.lipschitz_bound = float(f) ** -len(input_shape)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        f = self.factor
        d = len(self.output_shape)
        # (B, m, f) or (B, h, f, w, f): an axis of f after each signal axis
        blocks = xs.reshape([len(xs)] + [k for s in self.output_shape for k in (s, f)])
        # each block row added left to right, then the row sums in turn.
        # Below factor 8 this is mean's order, so the same bits; from 8 up
        # numpy adds a row pairwise, which groups the terms otherwise.
        # mean starts each sum at +0.0, which changes only a sum of negative
        # zeros, so one +0.0 at the end does the same
        rows = blocks[..., 0] + (blocks[..., 1] if f > 1 else 0.0)
        for j in range(2, f):
            rows += blocks[..., j]
        out = rows
        if d == 2:
            out = rows[:, :, 0] + (rows[:, :, 1] if f > 1 else 0.0)
            for i in range(2, f):
                out += rows[:, :, i]
        out += 0.0
        out /= f ** d
        return out.reshape(len(xs), -1)

    def _adjoint_rows(self, ws: np.ndarray) -> np.ndarray:
        return self._spread(ws / self.factor ** len(self.output_shape))

    def _gradient_rows(self, xs: np.ndarray, y: np.ndarray, sigma_y: float) -> np.ndarray:
        # A^T r / sigma_y^2 with both divisions taken on the small residual,
        # in the order the adjoint and the generic gradient take them
        q = self.apply(xs) - y
        q /= self.factor ** len(self.output_shape)
        q /= sigma_y * sigma_y
        return self._spread(q)

    def _spread(self, ws: np.ndarray) -> np.ndarray:
        """Each value of the (B, n_out) rows repeated over its block."""
        f = self.factor
        if len(self.output_shape) == 1:
            return np.repeat(ws, f, axis=1)
        b = len(ws)
        h, w = self.output_shape
        out = np.empty((b, h, f, w, f))
        out[...] = ws.reshape(b, h, 1, w, 1)
        return out.reshape(b, -1)


class MagnitudeDftOp(ForwardOp):
    """Pointwise magnitude of the DFT on a zero-padded oversampled grid."""

    kind = "magnitude-dft"
    linear = False

    def __init__(self, input_shape: tuple[int, ...], oversample: float = 2.0):
        if not 1.0 <= oversample < math.inf:
            raise SgpsError(f"oversample must be finite and >= 1, got {oversample}")
        padded = tuple(int(round(oversample * s)) for s in input_shape)
        super().__init__(input_shape, padded)
        self.oversample = float(oversample)
        # the unnormalized DFT scales norms by sqrt(prod(padded))
        self.lipschitz_bound = float(np.prod(padded))
        self._axes = tuple(range(1, len(padded) + 1))
        # the input's corner of the padded grid, for every row
        self._corner = (slice(None),) + tuple(slice(0, s) for s in self.input_shape)

    def _transform(self, xs: np.ndarray) -> np.ndarray:
        grids = xs.reshape((len(xs),) + self.input_shape)
        return np.fft.fftn(grids, s=self.output_shape, axes=self._axes)

    def _apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return np.abs(self._transform(xs)).reshape(len(xs), -1)

    def _gradient_rows(self, xs: np.ndarray, y: np.ndarray, sigma_y: float) -> np.ndarray:
        z = self._transform(xs)
        m = np.abs(z)
        r = m - y.reshape(self.output_shape)
        # subgradient convention: zero-magnitude bins contribute nothing
        u = np.where(m > 0, r / np.where(m > 0, m, 1.0), 0.0) * z
        g = np.real(np.fft.fftn(np.conj(u), axes=self._axes))
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
        if not 0 < threshold < math.inf:
            raise SgpsError(f"threshold must be finite and positive, got {threshold}")
        super().__init__(input_shape, input_shape)
        self.threshold = float(threshold)
        self.smooth = bool(smooth)
        # both forms have slope at most 1 / threshold
        self.lipschitz_bound = 1.0 / (self.threshold * self.threshold)

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
    with warnings.catch_warnings():
        # an empty file gives an empty kernel, which BlurOp rejects in one line
        warnings.simplefilter("ignore", UserWarning)
        k = np.loadtxt(path, dtype=np.float64)
    return np.atleast_1d(k)


def gaussian_kernel(size: int, width: float, ndim: int = 1) -> np.ndarray:
    """Normalized truncated Gaussian taps; 2D kernels are outer products."""
    if not (isinstance(size, (int, np.integer)) and size >= 1 and size % 2 == 1):
        raise SgpsError(f"kernel size must be an odd positive integer, got {size}")
    if not width > 0:
        raise SgpsError(f"kernel width must be positive, got {width}")
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-0.5 * (r / width) ** 2)
    taps /= taps.sum()
    if ndim == 1:
        return taps
    if ndim == 2:
        return np.outer(taps, taps)
    raise SgpsError(f"ndim must be 1 or 2, got {ndim}")
