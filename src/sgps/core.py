"""Shared value types: signals, seeded RNG streams, sampler config, run reports.

Everything here is an immutable value after construction.  The only mutable
object in the package is RngStream, which owns a generator state and is meant
to be held by exactly one consumer at a time.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np


class SgpsError(Exception):
    """Base class for structured errors raised by this package."""


class ShapeMismatchError(SgpsError):
    """Two signals that must share a shape do not."""


class DivergenceError(SgpsError):
    """An iterate became non-finite.  Carries where it happened."""

    def __init__(self, stage: str, step_index: int, message: str = ""):
        self.stage = stage
        self.step_index = step_index
        text = f"divergence in stage '{stage}' at step {step_index}"
        if message:
            text += f": {message}"
        super().__init__(text)


class NonFiniteError(SgpsError):
    """A Signal was built from NaN or infinite entries."""


class ConfigError(SgpsError):
    """Invalid experiment or sampler configuration."""


class RoundoffWarning(UserWarning):
    """A finite-difference probe produced no representable change."""


# float64 end to end; bitwise reproducibility depends on a fixed dtype
_DTYPE = np.float64


@dataclass(frozen=True)
class Signal:
    """A flat vector of samples plus a 1D or 2D shape.

    data is stored as a read-only float64 array in row-major order.  All
    entries must be finite; constructing a Signal with NaN or inf raises.
    """

    data: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        # flat float64 arrays and int tuples skip the conversions
        arr = self.data
        if type(arr) is not np.ndarray or arr.dtype != _DTYPE or arr.ndim != 1:
            arr = np.ascontiguousarray(arr, dtype=_DTYPE).reshape(-1)
        shape = self.shape
        if type(shape) is not tuple or not all(type(s) is int for s in shape):
            shape = tuple(int(s) for s in shape)
        if len(shape) not in (1, 2):
            raise ShapeMismatchError(f"shape must be 1D or 2D, got {shape}")
        if min(shape) < 1:
            raise ShapeMismatchError(f"shape entries must be positive, got {shape}")
        if arr.size != math.prod(shape):
            raise ShapeMismatchError(
                f"data length {arr.size} does not match shape {shape}"
            )
        if not all_finite(arr):
            raise NonFiniteError("signal entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "shape", shape)

    @property
    def n(self) -> int:
        return self.data.size

    def as_nd(self) -> np.ndarray:
        """Read-only view shaped like .shape."""
        return self.data.reshape(self.shape)

    def with_data(self, arr: np.ndarray) -> "Signal":
        """New Signal with the same shape and fresh data."""
        return Signal(arr, self.shape)


def all_finite(arr: np.ndarray) -> bool:
    """True when every entry of a float64 array is finite.

    A NaN or inf entry makes the sum of squares non-finite, so a finite sum
    settles it at the cost of one dot product.  Only entries beyond about
    1e154 overflow the sum, silently, and need the elementwise check.
    """
    flat = arr.reshape(-1)
    with np.errstate(over="ignore"):
        ss = flat.dot(flat)
    return math.isfinite(ss) or bool(np.isfinite(flat).all())


def _splitmix64(z: int) -> int:
    # standard splitmix64 finalizer; used to derive child stream ids
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


# seeds are the 64-bit unsigned integers, 0 to MAX_SEED
MAX_SEED = 2**64 - 1


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the counter-based Philox generator seeded through a
    SeedSequence, so equal keys give bitwise-equal draw sequences and
    distinct stream ids give statistically independent streams.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not (0 <= seed <= MAX_SEED):
            raise SgpsError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not (0 <= stream_id < 2**64):
            raise SgpsError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        self.gen = np.random.Generator(np.random.Philox(ss))

    def normal(self, n: int) -> np.ndarray:
        """n i.i.d. standard normal draws."""
        if n < 1:
            raise SgpsError(f"draw count must be >= 1, got {n}")
        return self.gen.standard_normal(int(n), dtype=_DTYPE)

    def normal_into(self, out: np.ndarray) -> None:
        """Fill the contiguous float64 array out with the draws that
        normal(out.size) would return."""
        self.gen.standard_normal(out=out)

    def standard_normal(self, shape) -> np.ndarray:
        return self.gen.standard_normal(shape, dtype=_DTYPE)

    def substream(self, k: int) -> "RngStream":
        """Independent child stream; deterministic in (seed, stream_id, k)."""
        child = _splitmix64(self.stream_id ^ _splitmix64((int(k) + 1) & 0xFFFFFFFFFFFFFFFF))
        return RngStream(self.seed, child)

    def clone(self) -> "RngStream":
        """Fresh stream with the same key, rewound to the start."""
        return RngStream(self.seed, self.stream_id)


# floor and warp of the noise ladder (Karras et al. 2022)
T_MIN = 0.02
RHO = 7.0
# the ladder is built as an array of steps levels; a bound keeps that finite
MAX_STEPS = 10**6


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the sampling loop.  Defaults follow the reference recipe.

    t_max is the top of the noise ladder (sigma at the first step), which
    runs down to T_MIN; steps is the number of ladder levels.  sure_repeats
    is the number of risk corrections per level, 0 for none.  langevin_eta
    None selects the safe step 0.5 * min(sigma_t^2, sigma_y^2) /
    max(1, op.lipschitz_bound) at each level.
    """

    steps: int
    t_max: float
    sigma_y: float
    alpha: float = 0.5
    langevin_steps: int = 100
    langevin_eta: float | None = None
    sure_repeats: int = 1
    mc_probes: int = 1
    ode_substeps: int = 1
    sigma_hat_scale: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"steps must be in [2, {MAX_STEPS}], got {self.steps}")
        if not self.t_max > T_MIN:
            raise ConfigError(f"t_max must be above {T_MIN}, got {self.t_max}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.sigma_y <= 0:
            raise ConfigError(f"sigma_y must be positive, got {self.sigma_y}")
        if self.langevin_steps < 1:
            raise ConfigError("langevin_steps must be >= 1")
        if self.langevin_eta is not None and self.langevin_eta <= 0:
            raise ConfigError("langevin_eta must be positive when given")
        if self.sure_repeats < 0:
            raise ConfigError("sure_repeats must be >= 0")
        if self.mc_probes < 1:
            raise ConfigError("mc_probes must be >= 1")
        if self.ode_substeps < 1:
            raise ConfigError("ode_substeps must be >= 1")
        if self.sigma_hat_scale <= 0:
            raise ConfigError("sigma_hat_scale must be positive")

    def replace(self, **kwargs) -> "SamplerConfig":
        return dataclasses.replace(self, **kwargs)


# per-step CSV schema, pinned; order matters for downstream tooling
STEP_CSV_COLUMNS = (
    "step",
    "sigma_t",
    "sigma_hat_raw",
    "sigma_hat_used",
    "sure_value",
    "psnr_x0t",
    "psnr_x0ty",
    "psnr_star",
    "nfe_step",
)


def format_float(v: float) -> str:
    """Shortest round-trip decimal form; stable across runs."""
    return format(float(v), ".17g")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The text of every artifact table: the header line, then one line per
    row, each ending in a newline.  A str cell is written as given, an int
    in digits and any other number by format_float."""
    lines = [header, *([v if isinstance(v, str) else str(v) if isinstance(v, int)
                        else format_float(v) for v in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


@dataclass(frozen=True)
class StepRecord:
    """Per-step trace entry.  sigma_hat_star and skipped are diagnostics
    carried in memory but not part of the pinned CSV schema."""

    step: int
    sigma_t: float
    sigma_hat_raw: float
    sigma_hat_used: float
    sure_value: float
    psnr_x0t: float
    psnr_x0ty: float
    psnr_star: float
    nfe_step: int
    sigma_hat_star: float = math.nan
    skipped: bool = False


@dataclass(frozen=True)
class RunReport:
    """Full trace of one sampling run."""

    steps: tuple[StepRecord, ...]
    psnr_final: float
    mse_final: float
    total_nfe: int

    def step_csv(self) -> str:
        return csv_text(STEP_CSV_COLUMNS,
                        ([getattr(rec, name) for name in STEP_CSV_COLUMNS] for rec in self.steps))


def mse(a: Signal, b: Signal) -> float:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    d = a.data - b.data
    return float(np.dot(d, d) / d.size)


def psnr(a: Signal, b: Signal) -> float:
    """Peak signal-to-noise ratio in dB for signals in [0, 1]; +inf when
    the signals are equal."""
    m = mse(a, b)
    if m == 0.0:
        return math.inf
    return float(10.0 * math.log10(1.0 / m))
