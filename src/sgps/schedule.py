"""Polynomially warped noise ladder for the sampling loop."""
from __future__ import annotations

import numpy as np

from .core import ConfigError


def build_schedule(steps: int, t_min: float, t_max: float, rho: float) -> np.ndarray:
    """Ladder sigma_i = (t_max^(1/rho) + i/(steps-1) * (t_min^(1/rho) - t_max^(1/rho)))^rho,
    as a read-only array of strictly decreasing levels.

    steps must be >= 2 and 0 < t_min < t_max; rho > 0.  Index 0 lands on
    t_max and index steps-1 on t_min; the terminal level after the last
    entry is implicitly zero.  rho > 1 concentrates levels near t_min so
    consecutive gaps shrink as sigma decreases.
    """
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if not (0 < t_min < t_max):
        raise ConfigError(f"need 0 < t_min < t_max, got t_min={t_min} t_max={t_max}")
    if rho <= 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    inv = 1.0 / float(rho)
    ramp = np.linspace(0.0, 1.0, int(steps), dtype=np.float64)
    sigmas = (t_max**inv + ramp * (t_min**inv - t_max**inv)) ** float(rho)
    sigmas.flags.writeable = False
    return sigmas
