"""Langevin guidance toward the measurement around a denoised anchor.

Runs unadjusted Langevin steps on the potential

    ||x - anchor||^2 / (2 sigma_t^2) + ||A(x) - y||^2 / (2 sigma_y^2)

and never touches the denoiser, so its cost is excluded from the function
evaluation budget.

The Langevin noise comes from one pipeline, GuideNoise: each row's stream is
drawn in chunks of iterations, in order, under the stream's own lock and
count of chunks drawn.  A ladder walk's worker thread draws rows ahead of
the guide from the last up, the guide draws from the first up whatever is
not drawn yet, and the bits are those of a direct call's own draws.  A
count is read before the lock is taken too: it only rises, and a guide that
read it only under the lock would wait on a one-row walk for the worker's
fill of a later chunk.
"""
from __future__ import annotations

import math
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

# bytes of a guide call's noise: a call of B rows of n draws the noise of up
# to NOISE_BYTES // (8 B n) iterations per stream at a time, one chunk
NOISE_BYTES = 1 << 20

# a ladder walk's worker keeps up to one level of guide noise, 8 B
# langevin_steps n bytes, drawn ahead when the level is at most
# PREFETCH_BYTES, so it draws the next level while the walk corrects the
# last; a larger level would cost its size in memory, so the worker keeps two
# chunks ahead of the guide instead
PREFETCH_BYTES = 4 << 20


class GuideNoise(Sequence):
    """The guide streams of B chains, one per row, and the Gaussian noise
    that langevin_guide draws from them for `depth` levels of `steps`
    iterations of n pixels each.

    A level's noise is split into chunks of the iterations whose draws fit
    in NOISE_BYTES.  Each stream has one lock and one count of its chunks
    drawn, and _draw(ring, b, g) draws chunk g of stream b under the
    stream's lock unless the count shows it drawn.  Every thread asks for a
    stream's chunks in order, so each stream is drawn in order, by one
    thread at a time, and each chunk holds the normals that one draw per
    iteration would give.

    The guide draws each row of the chunk it needs, first to last.  Outside
    a with block it draws them all, into a ring of one chunk made on first
    use.  Inside one, for a level above NOISE_BYTES, a worker thread draws
    each chunk's rows last to first, ahead of the guide, into a ring: one
    level when the level is at most PREFETCH_BYTES, so it draws the next
    level while the walk corrects the last, and two chunks otherwise.  A
    level within NOISE_BYTES makes no worker, on any number of CPUs: its
    draws are too short to pay for the hand-overs between the threads.  The
    worker stops at the last draw of the last level, at the first failing
    draw, whose error every later _draw raises, and when the block exits;
    leaving the block waits for the one draw in progress, so no thread
    writes the ring after it.
    """

    def __init__(self, rngs: Sequence[RngStream], steps: int, n: int, depth: int = 1):
        self.rngs = list(rngs)
        if not self.rngs:
            raise SgpsError("guide noise needs at least one stream")
        self.steps, self.n, self.depth = steps, n, depth
        rows = len(self.rngs)
        self.chunk = max(1, min(steps, NOISE_BYTES // (8 * rows * n)))
        self._per_level = -(-steps // self.chunk)
        self._total = depth * self._per_level
        self._level = 0
        # chunks the guide has used, and whose slots it has given back
        self._used = 0
        # drawn[b] is the number of chunks drawn from stream b; it only rises
        self._drawn = [0] * rows
        self._locks = [threading.Lock() for _ in range(rows)]
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
        if level > NOISE_BYTES:
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
            self._cond.notify()
        if self._thread is not None:
            self._thread.join()

    def _draw(self, ring: np.ndarray, b: int, g: int) -> None:
        """Fill row b's slice of chunk g's slot with the stream's next
        normals, unless chunk g of stream b is drawn; raise the error of
        any failed draw."""
        # a count only rises, so one that shows the chunk drawn needs no
        # lock, and the guide does not wait for a draw of a later chunk
        if self._drawn[b] > g:
            return
        with self._locks[b]:
            if self._error is not None:
                raise self._error
            if self._drawn[b] > g:
                return
            at = (g % self._slots) * self.chunk
            todo = min(self.chunk, self.steps - (g % self._per_level) * self.chunk)
            try:
                self.rngs[b].normal_into(ring[b, at:at + todo])
            except BaseException as e:
                self._error = e
                raise
            self._drawn[b] = g + 1

    def _work(self) -> None:
        cond, ring = self._cond, self._ring
        try:
            for g in range(self._total):
                with cond:  # wait for the chunk's slot
                    while g >= self._used + self._slots and not self._closed:
                        cond.wait()
                for b in reversed(range(len(self))):
                    if self._closed:
                        return
                    self._draw(ring, b, g)
        except BaseException:  # kept by _draw; the guide raises it
            return

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
        if self._ring is None:
            self._ring = np.empty((rows, self.chunk, n))
        ring = self._ring
        for start in range(0, steps, self.chunk):
            g = self._used
            for b in range(rows):
                self._draw(ring, b, g)
            at = (g % self._slots) * self.chunk
            yield start, ring[:, at:at + min(self.chunk, steps - start)]
            with self._cond:
                self._used = g + 1
                self._cond.notify()


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
