"""Langevin guidance toward the measurement around a denoised anchor.

Runs unadjusted Langevin steps on the potential

    ||x - anchor||^2 / (2 sigma_t^2) + ||A(x) - y||^2 / (2 sigma_y^2)

and never touches the denoiser, so its cost is excluded from the function
evaluation budget.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    DivergenceError,
    RngStream,
    SamplerConfig,
    SgpsError,
    Signal,
    all_finite,
)
from .operators import ForwardOp

if TYPE_CHECKING:  # the executor module loads logging, which sgps need not
    from concurrent.futures import Executor

# bytes of the noise buffer: a guide call of B rows of n draws the noise of
# up to NOISE_BYTES // (8 B n) iterations per stream per call
NOISE_BYTES = 1 << 20

# each thread keeps its noise buffer between calls: a buffer made afresh per
# call can go back to the system when freed and be page-faulted in again by
# the next call, at a cost that moves with the machine's memory pressure
_scratch = threading.local()


def _noise_buffer(b: int, chunk: int, n: int) -> np.ndarray:
    """A (b, chunk, n) buffer of unspecified contents; one of at most
    NOISE_BYTES is the calling thread's kept buffer, a larger one is new."""
    size = b * chunk * n
    if 8 * size > NOISE_BYTES:
        return np.empty((b, chunk, n))
    buf = getattr(_scratch, "noise", None)
    if buf is None or buf.size < size:
        buf = _scratch.noise = np.empty(size)
    return buf[:size].reshape(b, chunk, n)


def draw_noise(rngs: Sequence[RngStream], out: np.ndarray) -> np.ndarray:
    """Fill each row block out[b] with the next out[b].size normals of
    rngs[b]; returns out."""
    for r, rows in zip(rngs, out):
        r.normal_into(rows)
    return out


def default_eta(sigma_t: float, cfg: SamplerConfig, op: ForwardOp) -> float:
    """Safe step size 0.5 * min(sigma_t^2, sigma_y^2) / max(1, op.lipschitz_bound)."""
    return 0.5 * min(sigma_t * sigma_t, cfg.sigma_y * cfg.sigma_y) / max(1.0, op.lipschitz_bound)


def langevin_guide(
    x_init: np.ndarray,
    x_anchor: np.ndarray,
    sigma_t: float,
    op: ForwardOp,
    y: Signal,
    cfg: SamplerConfig,
    rngs: Sequence[RngStream],
    *,
    noise: np.ndarray | None = None,
    worker: Executor | None = None,
) -> np.ndarray:
    """Guided rows after cfg.langevin_steps unadjusted Langevin updates.

    x_init and x_anchor are (B, n) arrays of initial points and anchors,
    one chain per row, and rngs holds one stream per row.  The chains
    advance in lockstep, and row b draws its noise from rngs[b] alone, so
    it is the chain that stream would walk by itself.  A divergence is
    reported at the first iteration where any row is not finite.

    noise, when given, is the (B, langevin_steps, n) block that
    draw_noise(rngs, noise) filled; the call scales it in place and draws
    nothing, with the same result as drawing from the streams itself.

    worker, when given and noise is not, is a ladder walk's one-thread
    executor: for each chunk of iterations it draws rows [B // 2, B) of the
    chunk's noise while the calling thread draws rows [0, B // 2), and the
    call waits for both before it updates.  Each stream is drawn by one
    thread in order, so the rows are as with the call's own draws.
    """
    n = math.prod(op.input_shape)
    if x_init.ndim != 2 or x_init.shape[1] != n:
        raise SgpsError(f"init rows {x_init.shape} do not match operator input {op.input_shape}")
    if x_anchor.shape != x_init.shape:
        raise SgpsError(f"init rows {x_init.shape} differ from anchor rows {x_anchor.shape}")
    if len(rngs) != len(x_init):
        raise SgpsError(f"{len(rngs)} streams for {len(x_init)} rows")
    if y.shape != op.output_shape:
        raise SgpsError(
            f"measurement shape {y.shape} does not match operator output {op.output_shape}"
        )
    if sigma_t <= 0:
        raise SgpsError(f"sigma_t must be positive, got {sigma_t}")
    eta = cfg.langevin_eta if cfg.langevin_eta is not None else default_eta(sigma_t, cfg, op)
    if eta <= 0:
        raise SgpsError(f"langevin step size must be positive, got {eta}")

    st2 = sigma_t * sigma_t
    root = math.sqrt(2.0 * eta)
    steps = cfg.langevin_steps
    if noise is None:
        # each row draws the noise of chunk iterations in one call; the
        # stream yields the same normals in the same order as one call per
        # iteration
        chunk = max(1, min(steps, NOISE_BYTES // (8 * len(x_init) * n)))
        noise = _noise_buffer(len(x_init), chunk, n)
        draw = rngs
    else:
        if noise.shape != (len(x_init), steps, n):
            raise SgpsError(f"noise block {noise.shape} is not {(len(x_init), steps, n)}")
        chunk, draw, worker = steps, (), None
    half = len(x_init) // 2
    grad = np.empty(x_init.shape)
    x = x_init.copy()
    # x - eta * grad + root * noise, in place and in the same order; a
    # diverging chain overflows, and the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, chunk):
            todo = min(chunk, steps - start)
            if worker is None:
                draw_noise(draw, noise[:, :todo])
            else:
                rest = worker.submit(draw_noise, draw[half:], noise[half:, :todo])
                try:
                    draw_noise(draw[:half], noise[:half, :todo])
                finally:  # the worker never writes the buffer past this call
                    rest.result()
            noise[:, :todo] *= root
            for i in range(todo):
                np.subtract(x, x_anchor, out=grad)
                grad /= st2
                grad += op.fidelity_gradient(x, y.data, cfg.sigma_y)
                grad *= eta
                x -= grad
                x += noise[:, i]
                if not all_finite(x):
                    raise DivergenceError("langevin", start + i)
    return x
