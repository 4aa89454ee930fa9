"""Shared value types: signals, seeded RNG streams, sampler config, run reports.

Everything here is an immutable value after construction.  The only mutable
object in the package is RngStream, which owns a generator state and is meant
to be held by exactly one consumer at a time.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

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
        data = np.array(arr, dtype=_DTYPE)
        if data.ndim != 1:
            data = data.reshape(-1)
        if data.size != self.data.size:
            raise ShapeMismatchError(
                f"data length {data.size} does not match shape {self.shape}"
            )
        return Signal._adopt(data, self.shape)

    @classmethod
    def _adopt(cls, arr: np.ndarray, shape: tuple[int, ...]) -> "Signal":
        """Signal that takes over arr, a flat float64 array of shape's size
        that the caller has just computed and keeps no reference to.

        The shape must be one that a Signal or an operator already holds,
        so only the entries are checked, and arr is frozen instead of
        copied.  The package's inner loops build their Signals this way.
        """
        if not all_finite(arr):
            raise NonFiniteError("signal entries must be finite")
        arr.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "data", arr)
        object.__setattr__(out, "shape", shape)
        return out


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


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the counter-based Philox generator seeded through a
    SeedSequence, so equal keys give bitwise-equal draw sequences and
    distinct stream ids give statistically independent streams.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not (0 <= seed < 2**64):
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


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the sampling loop.  Defaults follow the reference recipe.

    t_max is the top of the noise ladder (sigma at the first step); steps is
    the number of ladder levels.  langevin_eta None selects the safe step
    0.5 * min(sigma_t^2, sigma_y^2) / lipschitz_scale at each level.
    """

    steps: int
    t_max: float
    sigma_y: float
    alpha: float = 0.5
    epsilon_divisor: float = 1000.0
    langevin_steps: int = 100
    langevin_eta: float | None = None
    lipschitz_scale: float = 1.0
    rho: float = 7.0
    t_min: float = 0.02
    sure_enabled: bool = True
    sure_repeats: int = 1
    mc_probes: int = 1
    ode_substeps: int = 1
    sigma_floor: float = 1e-3
    sigma_hat_scale: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if not (0 < self.t_min < self.t_max):
            raise ConfigError(
                f"need 0 < t_min < t_max, got t_min={self.t_min} t_max={self.t_max}"
            )
        if self.rho <= 0:
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.sigma_y <= 0:
            raise ConfigError(f"sigma_y must be positive, got {self.sigma_y}")
        if self.epsilon_divisor <= 0:
            raise ConfigError("epsilon_divisor must be positive")
        if self.langevin_steps < 1:
            raise ConfigError("langevin_steps must be >= 1")
        if self.langevin_eta is not None and self.langevin_eta <= 0:
            raise ConfigError("langevin_eta must be positive when given")
        if self.lipschitz_scale <= 0:
            raise ConfigError("lipschitz_scale must be positive")
        if self.sure_repeats < 1:
            raise ConfigError("sure_repeats must be >= 1")
        if self.mc_probes < 1:
            raise ConfigError("mc_probes must be >= 1")
        if self.ode_substeps < 1:
            raise ConfigError("ode_substeps must be >= 1")
        if self.sigma_floor <= 0:
            raise ConfigError("sigma_floor must be positive")
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

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.step),
                format_float(self.sigma_t),
                format_float(self.sigma_hat_raw),
                format_float(self.sigma_hat_used),
                format_float(self.sure_value),
                format_float(self.psnr_x0t),
                format_float(self.psnr_x0ty),
                format_float(self.psnr_star),
                str(self.nfe_step),
            ]
        )


@dataclass(frozen=True)
class RunReport:
    """Full trace of one sampling run.

    wall_time is informational only and deliberately excluded from CSV
    serialization so that identical (seed, config) runs serialize
    identically byte for byte.
    """

    steps: tuple[StepRecord, ...]
    psnr_final: float
    mse_final: float
    total_nfe: int
    wall_time: float = 0.0

    def step_csv(self) -> str:
        lines = [",".join(STEP_CSV_COLUMNS)]
        lines.extend(rec.csv_row() for rec in self.steps)
        return "\n".join(lines) + "\n"

    def summary_fields(self) -> dict[str, str]:
        return {
            "psnr_final": format_float(self.psnr_final),
            "mse_final": format_float(self.mse_final),
            "total_nfe": str(self.total_nfe),
        }


def mse(a: Signal, b: Signal) -> float:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    d = a.data - b.data
    return float(np.dot(d, d) / d.size)


def psnr(a: Signal, b: Signal, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the signals are equal."""
    if peak <= 0:
        raise SgpsError(f"peak must be positive, got {peak}")
    m = mse(a, b)
    if m == 0.0:
        return math.inf
    return float(10.0 * math.log10(peak * peak / m))
