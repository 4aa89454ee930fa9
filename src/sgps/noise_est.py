"""Blind noise-level estimation from the patch covariance spectrum.

The eigenvalues of the patch covariance split into a signal part (top) and a
noise floor (tail).  Scanning from the top, the first tail whose mean and
median agree marks the floor; the mean of that tail estimates the noise
variance.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NonFiniteError, SgpsError, Signal

# relative mean/median tolerance that marks the noise floor (Chen, Zhu & Heng 2015)
REL_TOL = 1e-3


@dataclass(frozen=True)
class PatchConfig:
    patch_size: int = 7
    stride: int = 1

    def __post_init__(self):
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")


def extract_patches(x: Signal, cfg: PatchConfig = PatchConfig()) -> np.ndarray:
    """All patches as rows of an (s, r) matrix.

    2D signals yield p x p windows (r = p^2), 1D signals length-p windows
    (r = p), both swept at the configured stride.  A signal smaller than one
    patch is an error.
    """
    p, stride = cfg.patch_size, cfg.stride
    arr = x.as_nd()
    if any(dim < p for dim in arr.shape):
        raise SgpsError(f"signal shape {x.shape} smaller than patch size {p}")
    if arr.ndim == 1:
        win = np.lib.stride_tricks.sliding_window_view(arr, p)[::stride]
    else:
        win = np.lib.stride_tricks.sliding_window_view(arr, (p, p))[::stride, ::stride]
    patches = win.reshape(-1, p**arr.ndim)
    # reshape copies the overlapping windows unless they already lie flat
    # (1D windows always do), so copy only then
    return patches.copy() if np.may_share_memory(patches, arr) else patches


def tail_eigenvalues(patches: np.ndarray) -> np.ndarray:
    """Eigenvalues of the patch covariance, descending, clamped at zero.

    Centres patches in place, so the caller passes an array it does not
    need again (estimate_sigma passes extract_patches' fresh copy).  Patches
    too large for a finite covariance, or a covariance whose eigenvalues do
    not converge, raise NonFiniteError.
    """
    s = patches.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        patches -= patches.mean(axis=0)
        cov = patches.T @ patches / s
    if not np.all(np.isfinite(cov)):
        raise NonFiniteError("patch covariance is not finite")
    try:
        lam = np.linalg.eigvalsh(cov)[::-1]
    except np.linalg.LinAlgError as e:
        raise NonFiniteError(f"patch covariance: {e}") from e
    return np.maximum(lam, 0.0)


def check_patch_count(shape: tuple[int, ...], cfg: PatchConfig, where: str = "") -> None:
    """Raise ConfigError unless a signal of this shape gives more than
    patch_size^d patches at the configured stride, the count below which
    estimate_sigma's covariance is rank-deficient.  where prefixes the
    message."""
    p, stride = cfg.patch_size, cfg.stride
    need = p ** len(shape)
    count = math.prod(max(0, (d - p) // stride + 1) for d in shape)
    if count <= need:
        raise ConfigError(
            f"{where}shape {tuple(shape)} gives {count} patches of size {p} at stride "
            f"{stride}; the noise estimate needs more than {need}"
        )


def estimate_sigma(x: Signal, cfg: PatchConfig = PatchConfig()) -> float:
    """Estimated noise standard deviation of x.

    Needs at least 2 patches; fewer patches than patch dimensions is allowed
    but warned about, since the covariance is then rank-deficient.  The
    one-entry tail always balances, so the scan ends at the smallest
    eigenvalue at the latest.
    """
    patches = extract_patches(x, cfg)
    s, r = patches.shape
    if s < 2:
        raise SgpsError(f"need at least 2 patches, got {s}")
    if s <= r:
        warnings.warn(
            f"only {s} patches for {r} dimensions; covariance is rank-deficient",
            stacklevel=2,
        )
    lam = tail_eigenvalues(patches)
    for i in range(r - 1):
        tail = lam[i:]
        m = r - i
        mean = float(tail.sum()) / m
        # the tail is sorted, so its median is its middle entry, or the mean
        # of the middle two, exactly as np.median computes it
        mid, odd = divmod(m, 2)
        med = float(tail[mid]) if odd else float((tail[mid - 1] + tail[mid]) / 2.0)
        if mean <= med or abs(mean - med) <= REL_TOL * med:
            return float(np.sqrt(max(mean, 0.0)))
    return float(np.sqrt(lam[-1]))
