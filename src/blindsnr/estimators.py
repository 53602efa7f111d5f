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

from .core import LOG2, ComplexVector, OpCounter, abs_squared
from .selection import median_from_sorted, sample_median

if TYPE_CHECKING:  # only used in signatures; the object is duck-typed here
    from .sure import DenoiserFunction
    from .core import RngStream


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


def estimate_noise_power(y: ComplexVector, method: str = "quickselect",
                         rng: "RngStream | None" = None,
                         counter: OpCounter | None = None) -> NoisePowerEstimate:
    """Estimate the average noise power from the noisy observation alone.

    Robust to a sparse set of strong entries: the median of |y|^2 tracks
    the noise-only exponential bulk, whose median is N0 log 2.

    Standalone calls default to quickselect (expected linear time);
    pipelines that already sort |y|^2 should use
    :func:`noise_power_from_sorted` on the sorted array instead.
    """
    z = abs_squared(y)
    if counter is not None:
        counter.reset()
        counter.real_mults += 2 * y.dim
        counter.real_adds += y.dim
    med = sample_median(z, method=method, rng=rng)
    if counter is not None:
        counter.comparisons += med.ops.comparisons
        counter.real_adds += med.ops.real_adds
        counter.real_mults += med.ops.real_mults
        counter.divisions += 1
    return NoisePowerEstimate(value=med.value / LOG2, median_z=med.value)


def noise_power_from_sorted(z_sorted: np.ndarray) -> NoisePowerEstimate:
    """Noise power estimate reusing an already-sorted |y|^2 array."""
    med = median_from_sorted(z_sorted)
    return NoisePowerEstimate(value=med / LOG2, median_z=med)


def estimate_signal_power(y: ComplexVector, n0_hat: float) -> SignalPowerEstimate:
    """Sample receive power minus the noise power estimate, clipped at zero."""
    if not 0.0 <= n0_hat < math.inf:
        raise ValueError("n0_hat must be non-negative and finite")
    raw = float(abs_squared(y).sum()) / y.dim - n0_hat
    return SignalPowerEstimate(value=max(raw, 0.0), raw=raw)


def estimate_snr(y: ComplexVector, n0_hat: float) -> SnrEstimate:
    """Blind SNR estimate, clipped at zero.

    A zero noise estimate only arises from degenerate (mostly zero)
    inputs, which indicate an upstream problem, so it is rejected rather
    than mapped to infinity.
    """
    if not 0.0 < n0_hat < math.inf:
        raise ValueError("n0_hat must be strictly positive and finite")
    ey = float(abs_squared(y).sum()) / y.dim
    raw = ey / n0_hat - 1.0
    return SnrEstimate(value=max(raw, 0.0), raw=raw)


def estimate_mse(y: ComplexVector, f: "DenoiserFunction", n0_hat: float) -> MseEstimate:
    """Unbiased risk estimate of the entrywise denoiser's MSE, clipped at zero.

    raw = ||f(y) - y||^2 / D - n0_hat + (n0_hat / D) * sum_d div_d, where
    div_d is the entrywise divergence dRe f/dRe y + dIm f/dIm y evaluated
    at y_d. A divergence that is undefined (NaN) at any sample point is an
    error; entries are never silently skipped.
    """
    if not 0.0 <= n0_hat < math.inf:
        raise ValueError("n0_hat must be non-negative and finite")
    d = y.dim
    fy = f.evaluate(y)
    resid = fy.values - y.values
    resid_power = float((resid.real * resid.real + resid.imag * resid.imag).sum()) / d
    div = np.asarray(f.divergence(y), dtype=np.float64)
    if div.shape != (d,):
        raise ValueError("divergence evaluator returned wrong shape")
    if np.isnan(div).any():
        raise ValueError("divergence undefined at a sample point")
    div_sum = float(div.sum())
    raw = resid_power - n0_hat + n0_hat * div_sum / d
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
    es_bar = abs_squared(s).sum(axis=-1) / d
    n0_bar = abs_squared(n).sum(axis=-1) / d
    if (n0_bar <= 0.0).any():
        raise ValueError("genie SNR undefined for an all-zero noise realization")
    e0_bar = abs_squared(fy - s).sum(axis=-1) / d
    return es_bar, n0_bar, es_bar / n0_bar, e0_bar
