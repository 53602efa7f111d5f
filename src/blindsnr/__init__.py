"""Blind noise/SNR estimation and nonparametric soft-threshold denoising.

Median-based blind estimators for noise power, signal power, SNR, and
denoiser MSE of sparse complex signals in Gaussian noise, an adaptive
SURE-minimizing soft-threshold denoiser, a two-component EM baseline,
exact distributional certificates, and a synthetic multi-antenna channel
experiment harness.
"""

from .core import (
    LOG2,
    BcgParams,
    ComplexVector,
    OpCounter,
    RngStream,
    abs_squared,
    add,
    sample_bcg,
    sample_noise,
)
from .selection import MedianResult, kth_smallest, sample_median
from .estimators import (
    GenieReport,
    MseEstimate,
    NoisePowerEstimate,
    SignalPowerEstimate,
    SnrEstimate,
    estimate_mse,
    estimate_noise_power,
    estimate_signal_power,
    estimate_snr,
    genie_estimates,
)
from .sure import (
    DenoiserFunction,
    EstimateReport,
    ThresholdSearchResult,
    blind_report,
    denoise_blind,
    search_threshold,
    soft_threshold,
    sure_of_threshold,
)
from .em import EmResult, MixtureParams, em_default_init, em_fit, em_step
from .theory import (
    ACTIVITY_RATE_LIMIT,
    BoundCheck,
    BoundViolationError,
    exact_power_median,
    power_cdf,
    theorem1_bounds,
    verify_sandwich,
)
from .channel import (
    VARIANTS,
    ChannelConfig,
    beamspace,
    ber_by_points,
    ber_by_variant,
    gen_los_channel,
    inverse_beamspace,
    mse_by_points,
    mse_by_variant,
)

__version__ = "0.1.0"
