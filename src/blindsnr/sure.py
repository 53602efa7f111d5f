"""Complex soft-thresholding, its risk estimate, and the adaptive threshold search.

The soft threshold shrinks each entry's magnitude by tau (zeroing entries
below tau) while preserving phase. For Gaussian noise of known power, the
unbiased risk estimate of the resulting MSE is

    SURE(tau) = (1/D) sum_d min(|y_d|^2, tau^2) - n0
                + (n0/D) sum_{|y_d| > tau} (2 - tau/|y_d|).

Entries with |y_d| exactly equal to tau count as below threshold
(divergence 0); this matches max(|y_d| - tau, 0) = 0 and makes the
minimum of SURE attained. Note SURE drops by exactly n0/D as tau crosses
each magnitude from below (the divergence term of the crossing entry
falls from 1 to 0), so the minimizer typically sits exactly on a sorted
magnitude; the search below therefore evaluates every inter-order-
statistic stationary point clamped to its interval, plus tau = 0 and the
zero-map candidate, all in closed form after one sort: O(D log D) total.

The fully blind variant reuses the same sorted array to form the
median-based noise estimate, so a single sort serves both jobs.

The kernels work along the last axis, on one vector or on an (R, D)
block of rows with one noise power or threshold per row:
:func:`search_rows`, :func:`soft_threshold_rows`,
:func:`denoise_blind_rows` and :func:`blind_rows`, the whole blind
pipeline (noise, signal power, SNR and risk estimate from one |y|^2 and
one sort). The per-vector functions are one-row calls into the same
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import LOG2, ComplexVector, abs_squared
from .estimators import (
    MseEstimate,
    NoisePowerEstimate,
    SignalPowerEstimate,
    SnrEstimate,
)
from .selection import median_from_sorted


@dataclass(frozen=True)
class ThresholdSearchResult:
    """Outcome of the adaptive threshold search.

    ``sure_at_tau`` is minimal over every candidate examined;
    ``candidates_evaluated`` counts them. ``tau_star`` lies in
    [0, max |y_d|]; the zero-map case is reported as tau_star = max |y_d|
    (any larger threshold acts identically).
    """

    tau_star: float
    sure_at_tau: float
    n0_used: float
    candidates_evaluated: int


def _magnitudes(values: np.ndarray) -> np.ndarray:
    # sqrt(re^2 + im^2) everywhere, so threshold comparisons are bit-identical
    # across the evaluate / risk / search paths.
    return np.sqrt(abs_squared(values))


def _check_tau(tau) -> None:
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be non-negative and finite")


def _check_n0(n0) -> None:
    if not 0.0 < n0 < math.inf:
        raise ValueError("n0 must be positive and finite")


def _above(r: np.ndarray, tau):
    """The entries with r > tau, and tau / r on them, for tau a scalar or a
    column that broadcasts against r."""
    keep = r > tau
    if isinstance(tau, np.ndarray):
        tau = np.broadcast_to(tau, r.shape)[keep]
    return keep, tau / r[keep]


def _shrink(values: np.ndarray, r: np.ndarray, tau) -> np.ndarray:
    """(y/|y|) max(|y| - tau, 0) along the last axis, given r = |y| and tau
    as a scalar or an (R, 1) column."""
    keep, ratio = _above(r, tau)
    scale = np.zeros_like(r)
    scale[keep] = 1.0 - ratio
    return values * scale


def soft_threshold_rows(values, tau) -> np.ndarray:
    """Soft threshold of each row of a complex array; ``tau`` is one
    non-negative finite threshold, or one per row."""
    values = np.asarray(values, dtype=np.complex128)
    tau = np.asarray(tau, dtype=np.float64)
    if not ((tau >= 0.0) & (tau < math.inf)).all():
        raise ValueError("tau must be non-negative and finite")
    return _shrink(values, _magnitudes(values), tau[..., None])


def soft_threshold(y: ComplexVector, tau: float) -> ComplexVector:
    """Entrywise (y_d/|y_d|) * max(|y_d| - tau, 0), with 0 mapped to 0."""
    _check_tau(tau)
    out = _shrink(y.values, _magnitudes(y.values), tau)
    return ComplexVector(out.real, out.imag)


class DenoiserFunction:
    """Entrywise denoising map bundled with its divergence evaluator.

    Supported kinds: ``identity``, ``zero``, and ``soft_threshold`` with a
    fixed non-negative tau. The divergence is the entrywise
    dRe f/dRe y + dIm f/dIm y required by the risk estimate; for the soft
    threshold it is 0 below (or at) the threshold and 2 - tau/|y_d| above.
    """

    KINDS = ("identity", "zero", "soft_threshold")

    __slots__ = ("kind", "tau")

    def __init__(self, kind: str, tau: float | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown denoiser kind {kind!r}")
        if kind == "soft_threshold":
            if tau is None or not 0.0 <= tau < math.inf:
                raise ValueError("soft_threshold requires a finite tau >= 0")
            tau = float(tau)
        elif tau is not None:
            raise ValueError(f"{kind} takes no tau parameter")
        self.kind = kind
        self.tau = tau

    @classmethod
    def identity(cls) -> "DenoiserFunction":
        return cls("identity")

    @classmethod
    def zero(cls) -> "DenoiserFunction":
        return cls("zero")

    @classmethod
    def soft(cls, tau: float) -> "DenoiserFunction":
        return cls("soft_threshold", tau)

    def evaluate(self, y: ComplexVector) -> ComplexVector:
        if self.kind == "identity":
            return y
        if self.kind == "zero":
            return ComplexVector(np.zeros(y.dim), np.zeros(y.dim))
        return soft_threshold(y, self.tau)

    def divergence(self, y: ComplexVector) -> np.ndarray:
        if self.kind == "identity":
            return np.full(y.dim, 2.0)
        if self.kind == "zero":
            return np.zeros(y.dim)
        r = _magnitudes(y.values)
        above = r > self.tau
        div = np.zeros(y.dim)
        div[above] = 2.0 - self.tau / r[above]
        return div

    def __repr__(self) -> str:
        if self.kind == "soft_threshold":
            return f"DenoiserFunction(soft_threshold, tau={self.tau})"
        return f"DenoiserFunction({self.kind})"


def sure_of_threshold(y: ComplexVector, tau: float, n0: float) -> float:
    """Risk estimate of the soft threshold at tau, in closed form.

    Agrees with :func:`blindsnr.estimators.estimate_mse` applied to the
    corresponding soft-threshold denoiser up to rounding.
    """
    _check_tau(tau)
    _check_n0(n0)
    z = abs_squared(y)
    r = np.sqrt(z)
    d = y.dim
    # classify in magnitude space (r > tau), exactly as the threshold and
    # the search do, so a tau sitting on a magnitude is "below" everywhere
    above = r > tau
    term1 = float(np.minimum(z, tau * tau).sum()) / d
    div = float((2.0 - tau / r[above]).sum())
    return term1 - n0 + n0 * div / d


def _search_sorted(rs: np.ndarray, n0):
    """SURE minimum over tau >= 0 for ascending magnitudes along the last axis.

    ``rs`` is (D,) or (R, D), ``n0`` a scalar or an (R, 1) column. Returns
    (tau_star, sure_at_tau), each a scalar or one per row.
    """
    d = rs.shape[-1]
    lead = rs.shape[:-1]
    edge = np.zeros(lead + (1,))
    prefix_z = np.concatenate((edge, np.cumsum(rs * rs, axis=-1)), axis=-1)
    recip = np.zeros_like(rs)
    nz = rs > 0
    recip[nz] = 1.0 / rs[nz]
    suffix_recip = np.concatenate(
        (np.cumsum(recip[..., ::-1], axis=-1)[..., ::-1], edge), axis=-1)

    # For tau in [rs[k-1], rs[k]) exactly k entries sit below threshold;
    # the above-set has c = d - k entries and the smooth piece is minimized
    # at tau = n0 * S / (2 c) with S the reciprocal sum over the above-set.
    c = np.arange(d, 0, -1, dtype=np.float64)
    tau_raw = n0 * suffix_recip[..., :d] / (2.0 * c)
    lower = np.concatenate((edge, rs[..., :-1]), axis=-1)
    stationary = np.clip(tau_raw, lower, rs)
    taus = np.concatenate((edge, stationary, rs[..., -1:]), axis=-1)

    # exact SURE at each candidate: entries <= tau are below threshold
    if rs.ndim == 1:
        j = np.searchsorted(rs, taus, side="right")
        at = j
    else:
        j = np.empty(taus.shape, dtype=np.intp)
        for row in range(len(rs)):
            j[row] = np.searchsorted(rs[row], taus[row], side="right")
        at = (np.arange(len(rs))[:, None], j)
    above = (d - j).astype(np.float64)
    sures = (prefix_z[at] + above * taus * taus) / d - n0 \
        + (n0 / d) * (2.0 * above - taus * suffix_recip[at])

    best = np.lexsort((taus, sures), axis=-1)[..., 0]  # ties: smaller tau wins
    pick = best if rs.ndim == 1 else (at[0][:, 0], best)
    return taus[pick], sures[pick]


def search_rows(values, n0):
    """Threshold search on each row of a complex (R, D) array.

    ``n0`` is one positive finite noise power, or one per row. Returns
    (tau_star, sure_at_tau), one per row; see :func:`search_threshold`.
    """
    values = np.asarray(values, dtype=np.complex128)
    n0 = np.asarray(n0, dtype=np.float64)
    if not ((n0 > 0.0) & (n0 < math.inf)).all():
        raise ValueError("n0 must be positive and finite")
    return _search_sorted(np.sort(_magnitudes(values), axis=-1), n0[..., None])


def search_threshold(y: ComplexVector, n0: float) -> ThresholdSearchResult:
    """Minimize the soft-threshold risk estimate over tau >= 0.

    Sorts the magnitudes once and evaluates, in closed form, the clamped
    stationary point of every inter-order-statistic interval plus tau = 0
    and the zero-map candidate; total cost O(D log D).
    """
    _check_n0(n0)
    tau, sure = _search_sorted(np.sort(_magnitudes(y.values)), n0)
    return ThresholdSearchResult(tau_star=float(tau), sure_at_tau=float(sure),
                                 n0_used=float(n0), candidates_evaluated=y.dim + 2)


def _sort_search(values: np.ndarray):
    """|y|^2, one sort of it, the median noise estimate and the threshold
    search at that estimate, along the last axis.

    Returns (z, median_z, n0, tau, sure), the last four scalars for one
    vector and one per row otherwise. A zero noise estimate searches
    harmlessly (tau = 0); callers mask those rows.
    """
    z = abs_squared(values)
    zs = np.sort(z, axis=-1)
    median_z = median_from_sorted(zs)
    n0 = median_z / LOG2
    tau, sure = _search_sorted(np.sqrt(zs), n0 if values.ndim == 1 else n0[:, None])
    return z, median_z, n0, tau, sure


def denoise_blind_rows(values):
    """Blind soft-threshold denoising of each row of a complex (R, D) array.

    Returns (denoised rows, noise estimate per row); see
    :func:`denoise_blind`. Rows whose noise estimate is zero come back
    unchanged.
    """
    values = np.asarray(values, dtype=np.complex128)
    z, _, n0, tau, _ = _sort_search(values)
    denoised = _shrink(values, np.sqrt(z), tau[:, None])
    return np.where(n0[:, None] > 0.0, denoised, values), n0


def denoise_blind(y: ComplexVector):
    """Soft-threshold denoising with both parameters learned from y alone.

    A single sort of |y|^2 yields the median-based noise power estimate
    and (after a square root) the sorted magnitudes for the threshold
    search. Returns (denoised vector, search result, noise estimate),
    mutually consistent; they are those of :func:`blind_report`.

    A zero noise estimate (at least half the entries exactly zero) carries
    no usable noise information, so the input is returned unchanged with
    tau = 0.
    """
    rep = blind_report(y)
    return rep.denoised, rep.search, rep.noise


class BlindRows(NamedTuple):
    """The blind pipeline's outputs, one per row (scalars for one vector).

    ``shrunk`` is the soft threshold of the input at ``tau``. Where the
    noise estimate ``n0`` is zero, ``tau``, ``sure``, ``snr``, ``mse`` and
    ``divergence_sum`` are 0; ``signal``, ``snr`` and ``mse`` are the
    pre-clip values.
    """

    z: np.ndarray
    median_z: np.ndarray
    n0: np.ndarray
    tau: np.ndarray
    sure: np.ndarray
    shrunk: np.ndarray
    signal: np.ndarray
    snr: np.ndarray
    mse: np.ndarray
    divergence_sum: np.ndarray


def _pick(cond, a, b):
    """np.where for one scalar condition."""
    return a if cond else b


def blind_rows(values) -> BlindRows:
    """The blind pipeline on each row of a complex (R, D) array, or on one
    (D,) vector.

    One |y|^2 and one sort serve the median noise estimate, the threshold
    search and the soft threshold, and the signal power, SNR and risk
    estimate are sums over that same |y|^2 and the shrunk rows. Each value
    is bit for bit what :func:`blind_report` gives for that row alone.
    """
    values = np.asarray(values, dtype=np.complex128)
    d = values.shape[-1]
    z, median_z, n0, tau, sure = _sort_search(values)
    # a zero noise estimate (at least half the entries zero) gets no
    # threshold, SNR or risk; one vector masks in scalar arithmetic
    pos = n0 > 0.0
    where = np.where if values.ndim > 1 else _pick
    tau = where(pos, tau, 0.0)
    r = np.sqrt(z)
    keep, ratio = _above(r, tau if values.ndim == 1 else tau[:, None])
    scale = np.zeros_like(r)
    scale[keep] = 1.0 - ratio
    shrunk = values * scale
    # the soft threshold's divergence: 2 - tau/|y_d| above tau, 0 below
    div = np.zeros_like(r)
    div[keep] = 2.0 - ratio
    div_sum = div.sum(axis=-1)
    ey = z.sum(axis=-1) / d
    resid = abs_squared(shrunk - values).sum(axis=-1) / d
    safe = where(pos, n0, 1.0)
    return BlindRows(
        z=z, median_z=median_z, n0=n0, tau=tau, sure=where(pos, sure, 0.0),
        shrunk=shrunk, signal=ey - n0, snr=where(pos, ey / safe - 1.0, 0.0),
        mse=where(pos, resid - n0 + n0 * div_sum / d, 0.0),
        divergence_sum=where(pos, div_sum, 0.0))


@dataclass(frozen=True)
class EstimateReport:
    """The four blind estimates for one observation, plus the denoiser state."""

    noise: NoisePowerEstimate
    signal: SignalPowerEstimate
    snr: SnrEstimate
    mse: MseEstimate
    search: ThresholdSearchResult
    denoised: ComplexVector


def blind_report(y: ComplexVector) -> EstimateReport:
    """Run the full blind pipeline on one observation (single sort).

    The MSE estimate uses the adaptively selected threshold; the SNR and
    signal power chain on the clipped noise estimate. A one-row call into
    :func:`blind_rows`.
    """
    b = blind_rows(y.values)
    n0 = b.n0
    noise = NoisePowerEstimate(value=n0, median_z=b.median_z)
    signal, snr, mse = float(b.signal), float(b.snr), float(b.mse)
    if n0 > 0.0:
        search = ThresholdSearchResult(tau_star=float(b.tau), sure_at_tau=float(b.sure),
                                       n0_used=n0, candidates_evaluated=y.dim + 2)
        denoised = ComplexVector(b.shrunk.real, b.shrunk.imag)
    else:
        search = ThresholdSearchResult(tau_star=0.0, sure_at_tau=0.0,
                                       n0_used=0.0, candidates_evaluated=0)
        denoised = y
    return EstimateReport(
        noise=noise, signal=SignalPowerEstimate(value=max(signal, 0.0), raw=signal),
        snr=SnrEstimate(value=max(snr, 0.0), raw=snr),
        mse=MseEstimate(value=max(mse, 0.0), raw_sure=mse,
                        divergence_sum=float(b.divergence_sum)),
        search=search, denoised=denoised)
