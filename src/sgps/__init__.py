"""Posterior sampling for inverse problems with an unbiased-risk correction.

The sampling loop alternates denoising, Langevin guidance toward the
measurement, blind residual-noise estimation, and a risk-gradient update,
all built on analytic mixture priors so every statistical claim is testable
against closed forms.
"""
from .core import (
    ConfigError,
    DivergenceError,
    NonFiniteError,
    RngStream,
    RoundoffWarning,
    RunReport,
    SamplerConfig,
    SgpsError,
    ShapeMismatchError,
    Signal,
    StepRecord,
    mse,
    psnr,
)
from .guidance import default_eta, langevin_guide
from .noise_est import PatchConfig, estimate_sigma, extract_patches
from .operators import (
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
from .prior import (
    CountingDenoiser,
    Denoiser,
    GmmDenoiser,
    GmmPrior,
    PerturbedDenoiser,
)
from .sampler import InfluxTrace, denoise_step, noise_influx_trace, sgps_run
from .schedule import build_schedule
from .sure import SureEvaluation, probe_epsilon, sure_gradient, sure_update, sure_value

__version__ = "0.1.0"
