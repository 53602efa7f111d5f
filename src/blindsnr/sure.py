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
zero-map candidate, all in closed form. The sort is O(D log D); the
search after it is O(D). Prefix sums of |y_d|^2 and suffix sums of
1/|y_d| give the risk at a candidate from its rank, the count of
magnitudes <= tau, and the ranks are closed-form too: the candidate of
the interval [rs[k-1], rs[k]] has the k magnitudes before rs[k] below
it, and rs[k] when it reaches it. Only a row with two equal magnitudes
finds its ranks by binary search instead.
These candidates ascend along each row, so the first minimum of the risk
(``argmin``) is also the smallest tau among tied minima; no second sort
is needed to pick it.

The fully blind variant reuses the same sorted array to form the
median-based noise estimate, so a single sort serves both jobs.

The kernels work on an (R, D) block of rows, with one noise power or
threshold for all rows or one per row, and reject any other shape:
:func:`search_rows`, :func:`soft_threshold_rows` and :func:`blind_rows`,
the whole blind pipeline (noise, signal power, SNR and risk estimate
from one |y|^2 and one sort). The per-vector functions are one-row calls
into the same kernels. Every function here raises ValueError when |y|^2
of an input entry overflows; those that sum |y|^2 over a row (the
search, the risk estimate, the blind pipeline) also when that sum does
or when the median of |y|^2 overflows, and the blind pipeline when its
SNR quotient does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import INFINITE_POWER, INFINITE_SNR, LOG2, ComplexVector, abs_squared
from .estimators import (
    MseEstimate,
    NoisePowerEstimate,
    SignalPowerEstimate,
    SnrEstimate,
    estimate_mse,
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
    r = np.sqrt(abs_squared(values))
    if np.isinf(r).any():
        raise ValueError(INFINITE_POWER)
    return r


def _rows(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2:
        raise ValueError(f"expected an (R, D) array of rows, got shape {values.shape}")
    return values


def _per_row(param, rows: int, name: str) -> np.ndarray:
    """``param`` as a float64 scalar or (R,) array; ValueError for any other shape."""
    param = np.asarray(param, dtype=np.float64)
    if param.shape not in ((), (rows,)):
        raise ValueError(f"{name} must be a scalar or one per row, shape ({rows},); "
                         f"got shape {param.shape}")
    return param


def _shrink(values: np.ndarray, r: np.ndarray, tau):
    """(y/|y|) max(|y| - tau, 0) entrywise, given r = |y| and a tau that
    broadcasts against it (an (R, 1) column for rows). Also returns the
    entries kept (r > tau) and tau / r on them, 0 elsewhere."""
    keep = r > tau
    # kept entries have r > tau >= 0; the rest divide by 1, and multiplying
    # by keep zeroes them
    ratio = tau / np.where(keep, r, 1.0)
    ratio *= keep
    scale = 1.0 - ratio
    scale *= keep
    return values * scale, keep, ratio


def _divergence(keep: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """The soft threshold's divergence from :func:`_shrink`'s ``keep`` and
    ``ratio``: 2 - tau/|y_d| above tau, 0 below."""
    div = 2.0 - ratio
    div *= keep
    return div


def soft_threshold_rows(values, tau) -> np.ndarray:
    """Soft threshold of each row of a complex (R, D) array; ``tau`` is one
    non-negative finite threshold, or one per row."""
    values = _rows(values)
    tau = _per_row(tau, values.shape[0], "tau")
    if not ((tau >= 0.0) & (tau < math.inf)).all():
        raise ValueError("tau must be non-negative and finite")
    return _shrink(values, _magnitudes(values), tau[..., None])[0]


def soft_threshold(y: ComplexVector, tau: float) -> ComplexVector:
    """Entrywise (y_d/|y_d|) * max(|y_d| - tau, 0), with 0 mapped to 0."""
    out = soft_threshold_rows(y.values[None], tau)[0]
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
        _, keep, ratio = _shrink(y.values, _magnitudes(y.values), self.tau)
        return _divergence(keep, ratio)

    def __repr__(self) -> str:
        if self.kind == "soft_threshold":
            return f"DenoiserFunction(soft_threshold, tau={self.tau})"
        return f"DenoiserFunction({self.kind})"


def sure_of_threshold(y: ComplexVector, tau: float, n0: float) -> float:
    """Risk estimate of the soft threshold at tau for a positive n0: the
    ``raw_sure`` of :func:`blindsnr.estimators.estimate_mse` for that
    denoiser, which raises its ValueErrors."""
    if not 0.0 < n0 < math.inf:
        raise ValueError("n0 must be positive and finite")
    return estimate_mse(y, DenoiserFunction.soft(tau), n0).raw_sure


def _ranks(rs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The count of entries <= tau in each row of ascending magnitudes
    ``rs``, (R, D), at each of the row's D + 2 candidates ``taus``: 0, then
    candidate k + 1 in [rs[k-1], rs[k]] for k < D, then rs[-1].

    With no two equal magnitudes in a row the count is closed-form:
    tau = 0 has at most the one zero rs[0] below it, candidate k + 1 has
    the k entries before rs[k] below it, and rs[k] too when it reaches it,
    and rs[-1] has all D. Rows with equal neighbours search for it.
    """
    d = rs.shape[1]
    j = np.empty(taus.shape, dtype=np.intp)
    j[:, 0] = rs[:, 0] <= 0.0
    np.greater_equal(taus[:, 1:-1], rs, out=j[:, 1:-1])
    j[:, 1:-1] += np.arange(d)
    j[:, -1] = d
    tied = rs[:, 1:] == rs[:, :-1]
    if tied.any():
        for row in np.flatnonzero(tied.any(axis=1)):
            j[row] = rs[row].searchsorted(taus[row], side="right")
    return j


def _search_sorted(rs: np.ndarray, n0):
    """SURE minimum over tau >= 0 for each row of ascending magnitudes.

    ``rs`` is (R, D) and ``n0`` a scalar or an (R, 1) column. Returns
    (tau_star, sure_at_tau), one per row; ValueError when a row's sum of
    squared magnitudes overflows.

    Each row's D + 2 candidates ascend: 0, the stationary point of each
    interval [rs[k-1], rs[k]] clamped into it, then rs[-1]. So the first
    minimum ``argmin`` finds is the smallest tau among tied risks.
    """
    rows, d = rs.shape
    # sums[0, :, k]: rs^2 summed over the k smallest; sums[1, :, k]: 1/rs
    # summed over all but the k smallest
    sums = np.zeros((2, rows, d + 1))
    prefix_z, suffix_recip = sums[0], sums[1]
    taus = np.zeros((rows, d + 2))
    taus[:, -1] = rs[:, -1]
    stationary = taus[:, 1:-1]
    # n0 * S and the risk terms may overflow to inf: the clamp maps an
    # infinite stationary point to rs[k] as it would the exact value, and
    # argmin passes over an infinite risk. A zero magnitude, which only the
    # prefix of a row holds, has an infinite reciprocal: its interval
    # [0, 0] clamps the stationary point to 0, and every candidate's rank
    # counts it, so no risk reads a suffix sum that holds it.
    with np.errstate(over="ignore", divide="ignore"):
        np.multiply(rs, rs, out=prefix_z[:, 1:])
        np.add.accumulate(prefix_z[:, 1:], axis=1, out=prefix_z[:, 1:])
        if not prefix_z[:, -1].max() < math.inf:
            raise ValueError(INFINITE_POWER)
        np.divide(1.0, rs, out=suffix_recip[:, :d])
        reverse = suffix_recip[:, d - 1::-1]
        np.add.accumulate(reverse, axis=1, out=reverse)
        # For tau in [rs[k-1], rs[k]) exactly k entries sit below threshold;
        # the above-set has c = d - k entries and the smooth piece is
        # minimized at tau = n0 * S / (2 c) with S the reciprocal sum over
        # the above-set.
        np.multiply(n0, suffix_recip[:, :d], out=stationary)
        stationary /= np.arange(2 * d, 0, -2.0)
        # the clamp to [rs[k-1], rs[k]]; tau_raw >= 0 already at k = 0
        np.maximum(stationary[:, 1:], rs[:, :-1], out=stationary[:, 1:])
        np.minimum(stationary, rs, out=stationary)

        # exact SURE at each candidate, in place, from its rank j: with
        # above = d - j and P, S the sums at j,
        # (P + above tau^2) / d - n0 + (n0 / d) (2 above - tau S)
        j = _ranks(rs, taus)
        above = np.subtract(d, j, dtype=np.float64)
        j += np.arange(0, rows * (d + 1), d + 1)[:, None]  # flat index into (R, d + 1)
        prefix, suffix = sums.reshape(2, -1).take(j, axis=1)
        sures = np.multiply(above, taus)
        sures *= taus
        sures += prefix
        sures /= d
        sures -= n0
        above *= 2.0
        suffix *= taus
        above -= suffix
        above *= n0 / d
        sures += above

    best = sures.argmin(axis=1)  # the first minimum: ties go to the smaller tau
    best += np.arange(0, rows * (d + 2), d + 2)
    return taus.take(best), sures.take(best)


def search_rows(values, n0):
    """Threshold search on each row of a complex (R, D) array.

    ``n0`` is one positive finite noise power, or one per row. Returns
    (tau_star, sure_at_tau), one per row; see :func:`search_threshold`.
    """
    values = _rows(values)
    n0 = _per_row(n0, values.shape[0], "n0")
    if not ((n0 > 0.0) & (n0 < math.inf)).all():
        raise ValueError("n0 must be positive and finite")
    # not _magnitudes: the search checks each row's sum of |y|^2 itself
    rs = np.sort(np.sqrt(abs_squared(values)), axis=1)
    return _search_sorted(rs, float(n0) if n0.ndim == 0 else n0[:, None])


def search_threshold(y: ComplexVector, n0: float) -> ThresholdSearchResult:
    """Minimize the soft-threshold risk estimate over tau >= 0.

    Sorts the magnitudes once, O(D log D), then evaluates in O(D), in
    closed form, the clamped stationary point of every inter-order-statistic
    interval plus tau = 0 and the zero-map candidate. A one-row call into
    :func:`search_rows`.
    """
    (tau,), (sure,) = search_rows(y.values[None], n0)
    return ThresholdSearchResult(tau_star=float(tau), sure_at_tau=float(sure),
                                 n0_used=float(n0), candidates_evaluated=y.dim + 2)


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
    """The blind pipeline's outputs, one per row.

    ``shrunk`` is the soft threshold of the input at ``tau``. Where the
    noise estimate ``n0`` is zero, ``tau``, ``sure``, ``snr``, ``mse`` and
    ``divergence_sum`` are 0; ``signal``, ``snr`` and ``mse`` are the
    pre-clip values. ``sorted_r`` holds each row's magnitudes sqrt(z) in
    ascending order, for further threshold searches on the same rows.
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
    sorted_r: np.ndarray


def blind_rows(values) -> BlindRows:
    """The blind pipeline on each row of a complex (R, D) array.

    One |y|^2 and one sort serve the median noise estimate, the threshold
    search and the soft threshold, and the signal power, SNR and risk
    estimate are sums over that same |y|^2 and the shrunk rows. Each value
    is bit for bit what :func:`blind_report` gives for that row alone.
    """
    values = _rows(values)
    d = values.shape[1]
    z = abs_squared(values)
    zs = np.sort(z, axis=1)
    median_z = median_from_sorted(zs)
    n0 = median_z / LOG2
    sorted_r = np.sqrt(zs, out=zs)
    # a zero noise estimate (at least half the entries zero) gets no
    # threshold, SNR or risk; with none, nothing is masked. Its row is
    # searched at n0 = 1, so that no 0 * inf is formed, and masked after.
    pos = n0 > 0.0
    masked = not pos.all()
    n0_or_1 = np.where(pos, n0, 1.0) if masked else n0
    tau, sure = _search_sorted(sorted_r, n0_or_1[:, None])
    if masked:
        tau = np.where(pos, tau, 0.0)
    shrunk, keep, ratio = _shrink(values, np.sqrt(z), tau[:, None])
    div_sum = _divergence(keep, ratio).sum(axis=1)
    ey = z.sum(axis=1) / d
    resid = abs_squared(shrunk - values).sum(axis=1) / d
    with np.errstate(over="ignore"):
        snr = ey / n0_or_1 - 1.0
    if not snr.max() < math.inf:
        raise ValueError(INFINITE_SNR)
    mse = resid - n0 + n0 * div_sum / d
    if masked:
        sure, snr, mse, div_sum = (np.where(pos, a, 0.0) for a in (sure, snr, mse, div_sum))
    return BlindRows(
        z=z, median_z=median_z, n0=n0, tau=tau, sure=sure, shrunk=shrunk,
        signal=ey - n0, snr=snr, mse=mse, divergence_sum=div_sum, sorted_r=sorted_r)


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
    b = blind_rows(y.values[None])
    median_z, n0, tau, sure, signal, snr, mse, div_sum = (
        a.item() for a in b[1:5] + b[6:10])
    noise = NoisePowerEstimate(value=n0, median_z=median_z)
    if n0 > 0.0:
        search = ThresholdSearchResult(tau_star=tau, sure_at_tau=sure,
                                       n0_used=n0, candidates_evaluated=y.dim + 2)
        denoised = ComplexVector._wrap(b.shrunk[0])
    else:
        search = ThresholdSearchResult(tau_star=0.0, sure_at_tau=0.0,
                                       n0_used=0.0, candidates_evaluated=0)
        denoised = y
    return EstimateReport(
        noise=noise, signal=SignalPowerEstimate(value=max(signal, 0.0), raw=signal),
        snr=SnrEstimate(value=max(snr, 0.0), raw=snr),
        mse=MseEstimate(value=max(mse, 0.0), raw_sure=mse, divergence_sum=div_sum),
        search=search, denoised=denoised)
