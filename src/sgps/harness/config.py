"""Experiment configuration: a flat key-value text format with sections.

Sections: [experiment], [prior], [operator], [sampler], [patch], and an
optional [sweep] of axis lists.  Every value is a plain scalar or a
whitespace-separated list, so files stay readable and diffable.
"""
from __future__ import annotations

import configparser
import dataclasses
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..analysis import smooth_field
from ..core import MAX_SEED, ConfigError, RngStream, SamplerConfig, Signal
from ..noise_est import PatchConfig
from ..operators import (
    BlurOp,
    DownsampleOp,
    ForwardOp,
    MagnitudeDftOp,
    MaskOp,
    RangeClipOp,
    gaussian_kernel,
    identity_op,
    load_kernel,
)
from ..prior import Denoiser, GmmDenoiser, GmmPrior, PerturbedDenoiser
from .pgm import read_pgm

# reserved stream ids; worker streams start above these
STREAM_TRUTH = 1
STREAM_MEASUREMENT = 2
STREAM_MASK = 3
STREAM_RUN_BASE = 16
# each sweep point owns this many run stream ids, one per repeat
MAX_REPEATS = 65536


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    repeats: int
    output_dir: str
    measurement_sigma: float
    # the truth read from [experiment] image, or None to draw it from the prior
    image: Signal | None
    prior: GmmPrior
    denoiser: Denoiser
    op: ForwardOp
    sampler: SamplerConfig
    patch: PatchConfig
    # (overrides, sampler config) per sweep point, built and checked at
    # parse; the overrides' keys are the sweep's axes
    sweep_points: tuple
    config_hash: str


class _Section:
    """Typed accessors with section/key names in every error message; the
    keys asked for are recorded, so a key that nothing read can be rejected."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.present = parser.has_section(name)
        self._p = parser
        self._read: set[str] = set()

    def get(self, key: str, default=None):
        self._read.add(key)
        if not self.present or not self._p.has_option(self.name, key):
            return default
        return self._p.get(self.name, key).strip()

    def _convert(self, key: str, conv, label: str, default=None):
        raw = self.get(key)
        if raw is None or raw == "":
            return default
        return self.parse(key, raw, conv, label)

    def parse(self, key: str, raw: str, conv, label: str):
        """conv(raw), or a ConfigError naming this section, the key and raw."""
        try:
            return conv(raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"[{self.name}] {key}: expected {label}, got {raw!r}") from e

    def get_float(self, key: str, default=None):
        return self._convert(key, *_REAL, default)

    def get_int(self, key: str, default=None):
        return self._convert(key, *_INTEGER, default)

    def get_seed(self, key: str, default: int) -> int:
        seed = self.get_int(key, default)
        if not 0 <= seed <= MAX_SEED:
            raise ConfigError(f"[{self.name}] {key}: must be in [0, {MAX_SEED}], got {seed}")
        return seed

    def get_bool(self, key: str, default=None):
        return self._convert(key, _parse_bool, "a boolean", default)

    def get_floats(self, key: str, default=None):
        return self._convert(
            key, lambda s: [_finite(v) for v in s.split()], "a list of finite reals", default
        )

    def keys(self):
        return list(self._p[self.name].keys()) if self.present else []

    def reject_unread(self) -> None:
        for key in self.keys():
            if key not in self._read:
                raise ConfigError(f"[{self.name}] {key}: unknown, or unused with these settings")


def _finite(s: str) -> float:
    if not math.isfinite(v := float(s)):
        raise ValueError(s)
    return v


# (conversion, label) of a config value: the label is what an error says
# was expected
_REAL = (_finite, "a finite real number")
_INTEGER = (int, "an integer")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(s)


def _parse_shape(raw: str) -> tuple[int, ...]:
    parts = [int(v) for v in raw.split()]
    if len(parts) not in (1, 2) or any(p < 1 for p in parts):
        raise ValueError(raw)
    return tuple(parts)


def _build_prior(sec: _Section, seed: int) -> tuple[GmmPrior, Denoiser]:
    if not sec.present:
        raise ConfigError("missing [prior] section")
    shape_raw = sec.get("shape")
    if shape_raw is None:
        raise ConfigError("[prior] shape: required")
    try:
        shape = _parse_shape(shape_raw)
    except ValueError:
        raise ConfigError(f"[prior] shape: expected 1 or 2 positive integers, got {shape_raw!r}")
    n = int(np.prod(shape))
    s2 = sec.get_float("s2", 1.0)
    weights = sec.get_floats("weights", [1.0])
    k = len(weights)
    mean_kind = sec.get("mean_kind", "zero")
    if mean_kind == "zero":
        means = np.zeros((k, n))
    elif mean_kind == "smooth":
        amp = sec.get_float("mean_amplitude", 0.5)
        mean_seed = sec.get_seed("mean_seed", seed)
        rng = RngStream(mean_seed, 0)
        means = np.stack([smooth_field(rng.substream(j), shape, amp).data for j in range(k)])
    elif mean_kind == "inline":
        raw = sec.get("means")
        if raw is None:
            raise ConfigError("[prior] means: required for mean_kind=inline")
        groups = [g.strip() for g in raw.split("|")]
        try:
            means = np.array([[float(v) for v in g.split()] for g in groups])
        except ValueError:
            raise ConfigError(f"[prior] means: malformed list {raw!r}")
        if means.shape != (k, n):
            raise ConfigError(
                f"[prior] means: got {means.shape}, expected ({k}, {n})"
            )
    else:
        raise ConfigError(f"[prior] mean_kind: unknown kind {mean_kind!r}")
    amp = sec.get_float("perturb_amplitude", 0.0)
    # read only when used, so a stray perturb_frequency is an unread key
    freq = sec.get_float("perturb_frequency", 1.0) if amp != 0.0 else None
    try:
        prior = GmmPrior(np.asarray(weights), means, s2, shape)
        den: Denoiser = GmmDenoiser(prior)
        if amp != 0.0:
            den = PerturbedDenoiser(den, amp, freq)
    except MemoryError:
        raise
    except Exception as e:
        raise ConfigError(f"[prior]: {e}") from e
    return prior, den


def _build_operator(sec: _Section, shape: tuple[int, ...], seed: int) -> ForwardOp:
    if not sec.present:
        raise ConfigError("missing [operator] section")
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("[operator] kind: required")
    try:
        if kind == "identity":
            return identity_op(shape)
        if kind == "mask":
            raw = sec.get("keep")
            n = int(np.prod(shape))
            if raw is not None:
                keep = np.array([int(v) for v in raw.split()])
            else:
                frac = sec.get_float("keep_fraction", 0.5)
                if not (0 < frac <= 1):
                    raise ConfigError(f"[operator] keep_fraction: must be in (0, 1], got {frac}")
                count = max(1, int(round(frac * n)))
                rng = RngStream(seed, STREAM_MASK)
                keep = np.sort(rng.gen.choice(n, size=count, replace=False))
            return MaskOp(shape, keep)
        if kind == "blur":
            kfile = sec.get("kernel_file")
            if kfile is not None:
                kernel = load_kernel(kfile)
            else:
                size = sec.get_int("kernel_size", 5)
                width = sec.get_float("kernel_width", 1.0)
                kernel = gaussian_kernel(size, width, ndim=len(shape))
            return BlurOp(shape, kernel)
        if kind == "downsample":
            return DownsampleOp(shape, sec.get_int("factor", 2))
        if kind == "magnitude-dft":
            return MagnitudeDftOp(shape, sec.get_float("oversample", 2.0))
        if kind == "range-clip":
            return RangeClipOp(
                shape,
                sec.get_float("threshold", 0.8),
                smooth=sec.get_bool("smooth", False),
            )
    except (ConfigError, MemoryError):
        raise
    except Exception as e:
        raise ConfigError(f"[operator] kind={kind}: {e}") from e
    raise ConfigError(f"[operator] kind: unknown kind {kind!r}")


# every [sampler] and [sweep] value is read by its SamplerConfig field's entry
_SAMPLER_READERS = {
    f.name: _INTEGER if f.type == "int" else _REAL for f in dataclasses.fields(SamplerConfig)
}


def _sampler_fields(sec: _Section, measurement_sigma: float) -> dict:
    """The [sampler] settings as SamplerConfig keyword arguments; t_max is
    left out when unset, for _sampler_config to fill in."""
    if not sec.present:
        raise ConfigError("missing [sampler] section")
    fields = {"sigma_y": measurement_sigma}
    for name in sec.keys():
        if name not in _SAMPLER_READERS:
            raise ConfigError(f"[sampler] {name}: not a sampler field")
        value = sec._convert(name, *_SAMPLER_READERS[name])
        if value is not None:
            fields[name] = value
    if "steps" not in fields:
        raise ConfigError("[sampler] steps: required")
    return fields


def _sampler_config(fields: dict) -> SamplerConfig:
    """The config for these settings; t_max defaults to float(steps)."""
    return SamplerConfig(**{"t_max": float(fields["steps"]), **fields})


def _build_patch(sec: _Section) -> PatchConfig:
    size, stride = sec.get_int("patch_size", 7), sec.get_int("stride", 1)
    try:
        return PatchConfig(patch_size=size, stride=stride)
    except ConfigError as e:
        raise ConfigError(f"[patch]: {e}") from e


def _build_sweep(sec: _Section, base: dict) -> tuple:
    """The points of the cartesian sweep over the [sampler] settings base,
    axes in name order with the last varying fastest; each point is
    (overrides, sampler config).  The point count is checked against
    max_points before any point is built, and every point's config is
    validated here.  With no axes there is one point, with no overrides."""
    axes: dict = {}
    for key in sec.keys():
        if key == "max_points":
            continue
        if key not in _SAMPLER_READERS:
            raise ConfigError(f"[sweep] {key}: not a sampler field")
        values = [sec.parse(key, tok, *_SAMPLER_READERS[key]) for tok in sec.get(key).split()]
        if not values:
            raise ConfigError(f"[sweep] {key}: empty axis")
        axes[key] = values
    cap = sec.get_int("max_points", 64)
    if cap < 1:
        raise ConfigError(f"[sweep] max_points: must be >= 1, got {cap}")
    count = math.prod(len(v) for v in axes.values())
    if count > cap:
        raise ConfigError(f"[sweep]: {count} points, above the cap of {cap}")
    names = sorted(axes)
    points = []
    for combo in itertools.product(*(axes[k] for k in names)):
        overrides = dict(zip(names, combo))
        try:
            points.append((overrides, _sampler_config({**base, **overrides})))
        except ConfigError as e:
            where = " ".join(f"{k}={v}" for k, v in overrides.items())
            raise ConfigError(f"[sweep] {where}: {e}") from e
    return tuple(points)


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from e

    exp = _Section(parser, "experiment")
    prior_sec = _Section(parser, "prior")
    op_sec = _Section(parser, "operator")
    patch_sec = _Section(parser, "patch")
    seed = exp.get_seed("seed", 0)
    prior, den = _build_prior(prior_sec, seed)
    op = _build_operator(op_sec, prior.shape, seed)
    measurement_sigma = exp.get_float("measurement_sigma", 0.05)
    if not measurement_sigma > 0:
        raise ConfigError(f"[experiment] measurement_sigma: must be positive, "
                          f"got {measurement_sigma}")
    image = exp.get("image")
    # read here, so an unreadable image fails before the output directory is made
    if image is not None:
        try:
            image = read_pgm(image)
        except ConfigError as e:
            raise ConfigError(f"[experiment] image: {e}") from e
        if image.shape != prior.shape:
            raise ConfigError(f"[experiment] image: shape {image.shape} does not match "
                              f"prior shape {prior.shape}")
    sampler_fields = _sampler_fields(_Section(parser, "sampler"), measurement_sigma)
    try:
        sampler = _sampler_config(sampler_fields)
    except ConfigError as e:
        raise ConfigError(f"[sampler]: {e}") from e
    patch = _build_patch(patch_sec)
    sweep_points = _build_sweep(_Section(parser, "sweep"), sampler_fields)
    repeats = exp.get_int("repeats", 1)
    if not 1 <= repeats <= MAX_REPEATS:
        raise ConfigError(f"[experiment] repeats: must be in [1, {MAX_REPEATS}], got {repeats}")
    cfg = ExperimentConfig(
        name=exp.get("name", "experiment"),
        seed=seed,
        repeats=repeats,
        output_dir=exp.get("output_dir", "out"),
        measurement_sigma=measurement_sigma,
        image=image,
        prior=prior,
        denoiser=den,
        op=op,
        sampler=sampler,
        patch=patch,
        sweep_points=sweep_points,
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:8],
    )
    for sec in (exp, prior_sec, op_sec, patch_sec):
        sec.reject_unread()
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return parse_config_text(text)


def make_task(cfg: ExperimentConfig) -> tuple[Signal, Signal]:
    """Ground truth and measurement for the experiment.

    The truth is the configured image, or else a draw from the prior; the
    measurement adds Gaussian noise at measurement_sigma in operator range.
    """
    x0 = cfg.image if cfg.image is not None else cfg.prior.draw(RngStream(cfg.seed, STREAM_TRUTH))
    clean = cfg.op.apply(x0)
    noise = RngStream(cfg.seed, STREAM_MEASUREMENT).normal(clean.n)
    y = clean.with_data(clean.data + cfg.measurement_sigma * noise)
    return x0, y


def run_stream(cfg: ExperimentConfig, point: int, repeat: int) -> RngStream:
    """Worker stream for a (sweep point, repeat) pair."""
    return RngStream(cfg.seed, STREAM_RUN_BASE + point * MAX_REPEATS + repeat)
