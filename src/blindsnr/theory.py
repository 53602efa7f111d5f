"""Exact distributional quantities for the sparse-plus-noise power model.

The squared magnitude of one noisy Bernoulli complex Gaussian entry is a
two-component exponential mixture; its CDF is

    F(z) = (1 - p)(1 - exp(-z / N0)) + p (1 - exp(-z / (N0 + Eh))).

This module evaluates that CDF as the unit-noise model's CDF at z / N0,
with active power 1 + Eh / N0, finds its exact median by bisection, and
forms the two-sided certificate that brackets the true noise power
around (median / log 2):

    median / min(log((2-2p)/(1-2p)), log(2) (1+SNR))
        <= N0 <= (median / log 2) ((1-p) + p^2 / (p + SNR)),

valid whenever the activity rate satisfies
p <= (1/2 - e^-2)/(1 - e^-2) ~= 0.4217. The first upper bound on the
median additionally requires p < 1/2 and is excluded from the min
otherwise.

The median scales with N0: it is N0 times the median of the same model
with unit noise power and active power Eh / N0, so it keeps its relative
precision at any N0. A median or bound outside the float range raises
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LOG2, BcgParams

# Largest activity rate for which the two-sided certificate is valid.
ACTIVITY_RATE_LIMIT = (0.5 - math.exp(-2.0)) / (1.0 - math.exp(-2.0))

_BISECTION_TOL = 1e-12

# Largest certificate violation, relative to N0, that rounding explains.
SANDWICH_TOL = 1e-10


class BoundViolationError(RuntimeError):
    """The certificate failed to bracket the true noise power (a code bug)."""


@dataclass(frozen=True)
class BoundCheck:
    """Exact power median with its noise-power certificate for one model."""

    params: BcgParams
    median_exact: float
    lower_bound_n0: float
    upper_bound_n0: float
    condition_p_ok: bool
    lemma2_ub: float  # NaN when p >= 1/2 (bound undefined)
    lemma3_ub: float
    lemma4_lb: float
    violation: float  # how far N0 lies outside [lower, upper], over N0


def _cdf(z, p, slow):
    """CDF of the unit-noise model, whose active entries have power ``slow``."""
    return (1.0 - p) * (1.0 - np.exp(-z)) + p * (1.0 - np.exp(-z / slow))


def power_cdf(z, params: BcgParams):
    """CDF of one noisy sparse-model entry's power: the unit-noise CDF at
    z / N0, and 0 for z < 0 (-inf included). ValueError for a NaN z."""
    z = np.asarray(z, dtype=np.float64)
    if np.isnan(z).any():
        raise ValueError("z contains NaN")
    n0 = params.noise_power
    # z / n0 may overflow; exp(-inf) = 0 is then the exact value
    with np.errstate(over="ignore"):
        out = _cdf(np.maximum(z, 0.0) / n0, params.activity_rate,
                   1.0 + params.active_power / n0)
    return out if out.ndim else float(out)


def exact_power_median(params: BcgParams) -> float:
    """Unique root of F(m) = 1/2: N0 times the root for the same model with
    unit noise power and active power Eh / N0, which is found by bisection
    to 1e-12 absolute, or to adjacent floats where one ulp of it exceeds
    that. ValueError if the median leaves the float range.

    The unit model's CDF is strictly increasing, F(0) = 0, and its median
    never exceeds the slow component's median (1 + Eh / N0) log 2, so the
    bracket [0, (1 + Eh / N0) log 2 + 1] always contains the root.
    """
    p = params.activity_rate
    slow = 1.0 + params.active_power / params.noise_power
    lo = 0.0
    hi = slow * LOG2 + 1.0
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: 1e-12 is below one ulp here
            break
        if _cdf(mid, p, slow) < 0.5:
            lo = mid
        else:
            hi = mid
    median = params.noise_power * (0.5 * (lo + hi))
    if not median < math.inf:
        raise ValueError(f"the power median of {params} overflows")
    return median


def _lemma2(p: float) -> float:
    """Lemma 2's median bound over N0, log((2-2p)/(1-2p)); inf, as
    undefined, for p >= 1/2."""
    return math.log((2.0 - 2.0 * p) / (1.0 - 2.0 * p)) if p < 0.5 else math.inf


def n0_bounds_from_median(median: float, p: float, snr: float):
    """Noise-power bracket implied by a (sample or exact) power median."""
    denom = min(_lemma2(p), LOG2 * (1.0 + snr))  # an undefined lemma 2 drops out
    lower = median / denom
    upper = (median / LOG2) * ((1.0 - p) + p * p / (p + snr))
    return lower, upper


def theorem1_bounds(params: BcgParams) -> BoundCheck:
    """Exact power median plus the noise-power certificate for one model.

    ValueError if the median or a bound leaves the float range; lemma2_ub
    is NaN, as undefined, for p >= 1/2.
    """
    p = params.activity_rate
    snr = params.snr
    n0 = params.noise_power
    median = exact_power_median(params)
    lower, upper = n0_bounds_from_median(median, p, snr)
    lemma2_ub = n0 * _lemma2(p) if p < 0.5 else math.nan
    lemma3_ub = LOG2 * (n0 + params.signal_power)
    lemma4_lb = LOG2 * n0 / ((1.0 - p) + p * p / (p + snr))
    # lemma2_ub is NaN, not a failure, for p >= 1/2
    if not all(map(math.isfinite, (lower, upper, lemma3_ub, lemma4_lb))) \
            or lemma2_ub == math.inf:
        raise ValueError(f"a noise-power bound of {params} overflows")
    return BoundCheck(params=params, median_exact=median,
                      lower_bound_n0=lower, upper_bound_n0=upper,
                      condition_p_ok=p <= ACTIVITY_RATE_LIMIT,
                      lemma2_ub=lemma2_ub, lemma3_ub=lemma3_ub,
                      lemma4_lb=lemma4_lb,
                      violation=max(lower - n0, n0 - upper, 0.0) / n0)


@dataclass(frozen=True)
class SandwichReport:
    checks: tuple
    max_violation: float


def verify_sandwich(grid, tol: float = SANDWICH_TOL) -> SandwichReport:
    """Check lower <= N0 <= upper at every grid point using the exact median.

    Every supplied model must satisfy the activity-rate condition; a
    violation beyond ``tol`` times N0 signals an implementation bug and
    raises :class:`BoundViolationError`. ``max_violation`` is the largest
    :attr:`BoundCheck.violation`.
    """
    checks = []
    worst = 0.0
    for params in grid:
        chk = theorem1_bounds(params)
        if not chk.condition_p_ok:
            raise ValueError(
                f"activity rate {params.activity_rate} exceeds the "
                f"certificate's validity limit {ACTIVITY_RATE_LIMIT:.4f}")
        worst = max(worst, chk.violation)
        checks.append(chk)
    if worst > tol:
        raise BoundViolationError(
            f"noise-power certificate violated by {worst:.3e} (tol {tol:.1e})")
    return SandwichReport(checks=tuple(checks), max_violation=worst)
