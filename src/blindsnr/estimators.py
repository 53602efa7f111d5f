"""Blind estimators for noise power, signal power, SNR, and denoiser MSE.

All four estimators see only the noisy observation vector. The noise
power estimate divides the sample median of the squared magnitudes by
log 2 (the median of an exponential with unit mean); signal power and SNR
follow from the sample receive power with the noise estimate subtracted
and are clipped at zero; the MSE estimator is an unbiased risk estimate
for an entrywise weakly differentiable denoiser, again clipped at zero.

Genie-aided reference estimators (separate access to the clean signal and
the noise realization) are included for Monte-Carlo comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import INFINITE_POWER, INFINITE_RISK, INFINITE_SNR, LOG2, ComplexVector, abs_squared
from .selection import median_from_sorted

if TYPE_CHECKING:  # only used in signatures; the object is duck-typed here
    from .sure import DenoiserFunction


@dataclass(frozen=True)
class NoisePowerEstimate:
    """Blind noise power: sample median of |y|^2 divided by log 2."""
    value: float
    median_z: float


@dataclass(frozen=True)
class SignalPowerEstimate:
    """Blind signal power; ``raw`` is the pre-clip value ||y||^2/D - n0_hat."""
    value: float
    raw: float


@dataclass(frozen=True)
class SnrEstimate:
    """Blind SNR; ``raw`` is the pre-clip value ||y||^2/(D n0_hat) - 1."""
    value: float
    raw: float


@dataclass(frozen=True)
class MseEstimate:
    """Blind denoiser MSE via the unbiased risk estimate, clipped at zero."""
    value: float
    raw_sure: float
    divergence_sum: float


@dataclass(frozen=True)
class GenieReport:
    """Sample quantities computed with separate access to signal and noise."""
    es_bar: float
    n0_bar: float
    snr_bar: float
    e0_bar: float


def estimate_noise_power(y: ComplexVector) -> NoisePowerEstimate:
    """Estimate the average noise power from the noisy observation alone.

    Robust to a sparse set of strong entries: the median of |y|^2 tracks
    the noise-only exponential bulk, whose median is N0 log 2.

    One sort of |y|^2 and :func:`~blindsnr.selection.median_from_sorted`, as
    in :func:`~blindsnr.sure.blind_report`, give the median bit for bit as
    :func:`~blindsnr.selection.sample_median`'s counted quickselect does.
    """
    med = float(median_from_sorted(np.sort(abs_squared(y))))
    return NoisePowerEstimate(value=med / LOG2, median_z=med)


def _mean_power(values: np.ndarray) -> float:
    """Mean of |values|^2; ValueError when their sum overflows."""
    with np.errstate(over="ignore"):
        total = float(abs_squared(values).sum())
    if not total < math.inf:
        raise ValueError(INFINITE_POWER)
    return total / values.size


def estimate_signal_power(y: ComplexVector, n0_hat: float) -> SignalPowerEstimate:
    """Sample receive power minus the noise power estimate, clipped at zero."""
    if not 0.0 <= n0_hat < math.inf:
        raise ValueError("n0_hat must be non-negative and finite")
    raw = _mean_power(y.values) - n0_hat
    return SignalPowerEstimate(value=max(raw, 0.0), raw=raw)


def estimate_snr(y: ComplexVector, n0_hat: float) -> SnrEstimate:
    """Blind SNR estimate, clipped at zero.

    A zero noise estimate only arises from degenerate (mostly zero)
    inputs, which indicate an upstream problem, so it is rejected rather
    than mapped to infinity.
    """
    if not 0.0 < n0_hat < math.inf:
        raise ValueError("n0_hat must be strictly positive and finite")
    raw = _mean_power(y.values) / n0_hat - 1.0
    if raw == math.inf:
        raise ValueError(INFINITE_SNR)
    return SnrEstimate(value=max(raw, 0.0), raw=raw)


def estimate_mse(y: ComplexVector, f: "DenoiserFunction", n0_hat: float) -> MseEstimate:
    """Unbiased risk estimate of the entrywise denoiser's MSE, clipped at zero.

    raw = ||f(y) - y||^2 / D - n0_hat + (n0_hat / D) * sum_d div_d, where
    div_d is the entrywise divergence dRe f/dRe y + dIm f/dIm y evaluated
    at y_d. A divergence that is undefined (NaN) at any sample point is an
    error; entries are never silently skipped. A raw estimate that is not
    finite raises ValueError(INFINITE_RISK).
    """
    if not 0.0 <= n0_hat < math.inf:
        raise ValueError("n0_hat must be non-negative and finite")
    d = y.dim
    _mean_power(y.values)  # an input whose |y|^2 overflows raises, whatever f is
    resid_power = _mean_power(f.evaluate(y).values - y.values)
    div = np.asarray(f.divergence(y), dtype=np.float64)
    if div.shape != (d,):
        raise ValueError("divergence evaluator returned wrong shape")
    if np.isnan(div).any():
        raise ValueError("divergence undefined at a sample point")
    div_sum = float(div.sum())
    raw = resid_power - n0_hat + n0_hat * div_sum / d
    if not math.isfinite(raw):
        raise ValueError(INFINITE_RISK)
    return MseEstimate(value=max(raw, 0.0), raw_sure=raw, divergence_sum=div_sum)


def genie_estimates(s: ComplexVector, n: ComplexVector, y: ComplexVector,
                    f: "DenoiserFunction") -> GenieReport:
    """Reference sample quantities with separate access to s and n.

    es_bar = ||s||^2/D, n0_bar = ||n||^2/D, snr_bar = es_bar/n0_bar and
    e0_bar = ||f(y) - s||^2/D for the supplied denoiser.
    """
    if not (s.dim == n.dim == y.dim):
        raise ValueError("dimension mismatch between s, n, y")
    es_bar, n0_bar, snr_bar, e0_bar = genie_rows(
        s.values, n.values, f.evaluate(y).values)
    return GenieReport(es_bar=float(es_bar), n0_bar=float(n0_bar),
                       snr_bar=float(snr_bar), e0_bar=float(e0_bar))


def genie_rows(s, n, fy):
    """Genie sample quantities along the last axis of complex arrays.

    ``s``, ``n`` and the denoised observation ``fy`` are (D,) or (R, D).
    Returns (es_bar, n0_bar, snr_bar, e0_bar), each one per row; see
    :func:`genie_estimates`.
    """
    d = s.shape[-1]
    # inf / inf is NaN: the finiteness check below rejects both
    with np.errstate(over="ignore", invalid="ignore"):
        es_bar = abs_squared(s).sum(axis=-1) / d
        n0_bar = abs_squared(n).sum(axis=-1) / d
        if (n0_bar <= 0.0).any():
            raise ValueError("genie SNR undefined for an all-zero noise realization")
        e0_bar = abs_squared(fy - s).sum(axis=-1) / d
        snr_bar = es_bar / n0_bar
    if not (np.isfinite(es_bar) & np.isfinite(n0_bar) & np.isfinite(e0_bar)).all():
        raise ValueError(INFINITE_POWER)
    if not snr_bar.max() < math.inf:
        raise ValueError(INFINITE_SNR)
    return es_bar, n0_bar, snr_bar, e0_bar
