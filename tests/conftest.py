"""Shared helpers for the test suite."""

import numpy as np

from blindsnr import (
    BcgParams,
    DenoiserFunction,
    MseEstimate,
    RngStream,
    SnrEstimate,
    abs_squared,
    add,
    denoise_blind,
    estimate_mse,
    estimate_signal_power,
    estimate_snr,
    sample_bcg,
    sample_noise,
    soft_threshold,
)


def bcg_params(dim, p, snr, n0=1.0):
    """Model parameters from (p, SNR, N0); per-entry active power follows."""
    return BcgParams(dim=dim, activity_rate=p, active_power=snr * n0 / p,
                     noise_power=n0)


def draw_observation(params, seed, trial):
    """One (signal, noise, observation) triple from a per-trial stream."""
    st = RngStream(seed, trial)
    s = sample_bcg(params, st)
    n = sample_noise(params.noise_power, params.dim, st)
    return s, n, add(s, n)


def empirical_cdf_at(samples, z):
    return float(np.mean(np.asarray(samples) <= z))


def reference_blind(y):
    """The blind pipeline composed from the per-vector estimators, as
    ``blind_report`` once was: (noise, signal, snr, mse, search, denoised)."""
    denoised, search, noise = denoise_blind(y)
    signal = estimate_signal_power(y, noise.value)
    if noise.value > 0.0:
        snr = estimate_snr(y, noise.value)
        mse = estimate_mse(y, DenoiserFunction.soft(search.tau_star), noise.value)
    else:
        snr = SnrEstimate(value=0.0, raw=0.0)
        mse = MseEstimate(value=0.0, raw_sure=0.0, divergence_sum=0.0)
    return noise, signal, snr, mse, search, denoised


def reference_genie(s, n, y, tau):
    """Genie (es_bar, n0_bar, snr_bar, e0_bar) of the soft threshold at tau,
    summed one vector at a time."""
    d = y.dim
    es_bar = float(abs_squared(s).sum()) / d
    n0_bar = float(abs_squared(n).sum()) / d
    err = soft_threshold(y, tau).values - s.values
    e0_bar = float((err.real * err.real + err.imag * err.imag).sum()) / d
    return es_bar, n0_bar, es_bar / n0_bar, e0_bar
