"""Langevin guidance toward the measurement around a denoised anchor.

Runs unadjusted Langevin steps on the potential

    ||x - anchor||^2 / (2 sigma_t^2) + ||A(x) - y||^2 / (2 sigma_y^2)

and never touches the denoiser, so its cost is excluded from the function
evaluation budget.

The Langevin noise comes from one pipeline, GuideNoise: each row's stream is
drawn in chunks of iterations, in order, and a ladder walk's worker thread
may draw any row's next chunks ahead of the guide while the guide draws
whatever is not drawn yet, with the same bits as a direct call's own draws.
"""
from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence

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

# bytes of the noise buffer: a guide call of B rows of n draws the noise of
# up to NOISE_BYTES // (8 B n) iterations per stream at a time, one chunk
NOISE_BYTES = 1 << 20

# a ladder walk's worker keeps up to one level of guide noise, 8 B
# langevin_steps n bytes, drawn ahead when the level is at most
# PREFETCH_BYTES, so it draws the next level while the walk corrects the
# last; a larger level would cost its size in memory, so the worker keeps two
# chunks ahead of the guide instead
PREFETCH_BYTES = 4 << 20

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


def _second_cpu() -> bool:
    """Whether the process may run on a second CPU; on one CPU a worker
    thread only takes turns with the main thread."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


class GuideNoise(Sequence):
    """The guide streams of B chains, one per row, and the Gaussian noise
    that langevin_guide draws from them for `depth` levels of `steps`
    iterations of n pixels each.

    A level's noise is split into chunks of the iterations whose draws fit
    in NOISE_BYTES, with one draw task per (chunk, row): the task fills the
    row's slice of the chunk with the stream's next normals.  A chunk's
    tasks start only after every row of the chunk before is drawn, so every
    stream is drawn in order, by one thread at a time, and each chunk holds
    the normals that one draw per iteration would give.

    Outside a with block the guide draws every task itself, into its
    thread's kept buffer.  Inside one, on a process that may run on a
    second CPU and for a level above NOISE_BYTES, a worker thread takes
    tasks ahead of the guide into a ring: one level when the level is at
    most PREFETCH_BYTES, so it draws the next level while the walk corrects
    the last, and two chunks otherwise.  It stops at the last draw of the
    last level, at the first failing draw, and when the block exits; the
    guide takes any task of the chunk it needs that is not drawn yet.
    Leaving the block waits for the worker, so no thread writes the ring
    after it.
    """

    def __init__(self, rngs: Sequence[RngStream], steps: int, n: int, depth: int = 1):
        self.rngs = list(rngs)
        self.steps, self.n, self.depth = steps, n, depth
        rows = len(self.rngs)
        self.chunk = max(1, min(steps, NOISE_BYTES // (8 * rows * n)))
        self._per_level = -(-steps // self.chunk)
        self._total = depth * self._per_level
        self._level = 0
        # chunks the guide has used, and whose slots it has given back
        self._used = 0
        # finished[g] is the number of rows of chunk g drawn
        self._finished = [0] * self._total
        # the claims' front: the first chunk with a row no thread has
        # claimed, and its rows [lo, hi) not claimed yet; the guide claims
        # from lo up and the worker from hi down
        self._front, self._lo, self._hi = 0, 0, rows
        self._ring = None
        self._slots = 1
        self._error: BaseException | None = None
        self._closed = False
        self._thread: threading.Thread | None = None
        self._cond = threading.Condition()

    def __len__(self) -> int:
        return len(self.rngs)

    def __getitem__(self, i):
        return self.rngs[i]

    def __enter__(self) -> GuideNoise:
        level = 8 * len(self) * self.steps * self.n
        if level > NOISE_BYTES and _second_cpu():
            if level <= PREFETCH_BYTES:
                self._slots, iters = self._per_level, self.steps
            else:
                self._slots = 2
                iters = 2 * self.chunk
            self._ring = np.empty((len(self), iters, self.n))
            self._thread = threading.Thread(target=self._work, name="sgps-guide-noise")
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()

    def _claim(self, lo: int, hi: int) -> None:
        """Leave rows [lo, hi) of the front chunk unclaimed, and move the
        front past a chunk whose rows are all claimed; under the lock."""
        if lo == hi:
            self._front += 1
            lo, hi = 0, len(self)
        self._lo, self._hi = lo, hi

    def _fill(self, ring: np.ndarray, g: int, b: int) -> None:
        """Run task (g, b), outside the lock: fill row b's slice of chunk
        g's slot with the row's next normals."""
        at = (g % self._slots) * self.chunk
        todo = min(self.chunk, self.steps - (g % self._per_level) * self.chunk)
        self.rngs[b].normal_into(ring[b, at:at + todo])

    def _done(self, g: int, rows: int, error: BaseException | None) -> None:
        """Record that many more rows of chunk g are drawn, or the error
        that stops every thread; under the lock."""
        if error is None:
            self._finished[g] += rows
        elif self._error is None:
            self._error = error
        self._cond.notify()

    def _work(self) -> None:
        cond, ring = self._cond, self._ring
        with cond:
            while True:
                g, lo, hi = self._front, self._lo, self._hi
                if self._closed or self._error is not None or g >= self._total:
                    return
                # wait for the chunk's slot, and for every row's last chunk
                if g >= self._used + self._slots or (g > 0 and self._finished[g - 1] < len(self)):
                    cond.wait()
                    continue
                # half the unclaimed rows: few claims, so few holds of the
                # interpreter lock, and rows left for the guide to take
                start = hi - max(1, (hi - lo) // 2)
                self._claim(lo, start)
                cond.release()
                error = None
                try:
                    for b in range(hi - 1, start - 1, -1):
                        self._fill(ring, g, b)
                except Exception as e:  # recorded; the guide raises it
                    error = e
                finally:
                    cond.acquire()
                self._done(g, hi - start, error)

    def chunks(self, rows: int, steps: int, n: int):
        """Yield (first iteration, (rows, todo, n) noise) for each chunk of
        the next level in order, each with every row drawn; the chunk's
        slot is given back when the next chunk is asked for."""
        if (rows, steps, n) != (len(self), self.steps, self.n):
            raise SgpsError(f"guide noise for {(len(self), self.steps, self.n)} "
                            f"(rows, steps, n), not {(rows, steps, n)}")
        if self._level >= self.depth:
            raise SgpsError(f"guide noise of {self.depth} levels is used up")
        self._level += 1
        ring = self._ring if self._ring is not None else _noise_buffer(rows, self.chunk, n)
        cond = self._cond
        for start in range(0, steps, self.chunk):
            g = self._used
            with cond:
                while self._finished[g] < rows:
                    if self._error is not None:
                        raise self._error
                    if self._front == g:
                        b = self._lo
                        self._claim(b + 1, self._hi)
                        cond.release()
                        error = None
                        try:
                            self._fill(ring, g, b)
                        except BaseException as e:  # raised by the loop's next turn
                            error = e
                        finally:
                            cond.acquire()
                        self._done(g, 1, error)
                    else:  # the rows left are being drawn by the worker
                        cond.wait()
            at = (g % self._slots) * self.chunk
            yield start, ring[:, at:at + min(self.chunk, steps - start)]
            with cond:
                self._used = g + 1
                cond.notify_all()


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
) -> np.ndarray:
    """Guided rows after cfg.langevin_steps unadjusted Langevin updates.

    x_init and x_anchor are (B, n) arrays of initial points and anchors,
    one chain per row, and rngs holds one stream per row.  The chains
    advance in lockstep, and row b draws its noise from rngs[b] alone, so
    it is the chain that stream would walk by itself.  A divergence is
    reported at the first iteration where any row is not finite.

    rngs may be a ladder walk's GuideNoise, whose next level the call then
    takes, with whatever its worker has drawn ahead; the rows are as with
    the call's own draws.
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
    if not isinstance(rngs, GuideNoise):
        rngs = GuideNoise(rngs, steps, n)
    grad = np.empty(x_init.shape)
    x = x_init.copy()
    # x - eta * grad + root * noise, in place and in the same order; a
    # diverging chain overflows, and the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for start, noise in rngs.chunks(len(x), steps, n):
            noise *= root
            for i in range(noise.shape[1]):
                np.subtract(x, x_anchor, out=grad)
                grad /= st2
                grad += op.fidelity_gradient(x, y.data, cfg.sigma_y)
                grad *= eta
                x -= grad
                x += noise[:, i]
                if not all_finite(x):
                    raise DivergenceError("langevin", start + i)
    return x
