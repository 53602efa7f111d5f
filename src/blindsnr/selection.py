"""Order-statistic selection: randomized quickselect and the sample median.

The sample median of a length-D vector is the average of the order
statistics at positions floor((D+1)/2) and ceil((D+1)/2) (1-based), which
reduces to the middle element for odd D. It can be computed either by a
full sort (worst-case D log D) or by randomized quickselect in expected
linear time; both paths return the exact same floating-point value.

Quickselect here finds one rank and the value just above it, so one call
gives both central order statistics. It partitions with vectorized
three-way splits and counts 2 comparisons per element per partition pass
(the ``< pivot`` and ``> pivot`` sweeps), plus those of a final minimum,
so the comparison tally in the returned :class:`~blindsnr.core.OpCounter`
reflects the work actually performed. The full-sort path delegates to
numpy's sort, whose internal comparisons are not observable; its counter
reports zero comparisons.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import INFINITE_MEDIAN, INFINITE_POWER, OpCounter, RngStream

MEDIAN_METHODS = ("quickselect", "full_sort")

# Fixed fallback key so selection stays deterministic when no stream is given.
_DEFAULT_PIVOT_SEED = 0x5E1EC7

_HALF_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class MedianResult:
    value: float
    method: str
    ops: OpCounter


def _select(a: np.ndarray, k: int, gen: np.random.Generator,
            counter: OpCounter) -> tuple:
    """The k-th smallest value of ``a`` (1-based) and the next one up (inf
    if none) by randomized quickselect, in expected linear work. ``upper``,
    the last pivot the loop went left of, is the least value known to lie
    above the part still searched."""
    upper = math.inf
    while a.size > 1:
        pivot = float(a[int(gen.integers(0, a.size))])
        lt, gt = a < pivot, a > pivot
        counter.comparisons += 2 * a.size
        nl = int(np.count_nonzero(lt))
        top = a.size - int(np.count_nonzero(gt))  # rank of the last pivot copy
        if k <= nl:
            a, upper = a[lt], pivot
        elif k < top:
            return pivot, pivot
        elif k > top:
            a, k = a[gt], k - top
        else:
            above = a[gt]
            if above.size:
                counter.comparisons += above.size - 1
                upper = float(above.min())
            return pivot, upper
    return float(a[0]), upper


def _validated(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("input must be a one-dimensional array")
    if x.size == 0:
        raise ValueError("cannot select from an empty array")
    if not np.isfinite(x).all():
        raise ValueError("input contains NaN or infinite entries")
    return x


def kth_smallest(x, k: int, rng: RngStream | None = None,
                 counter: OpCounter | None = None) -> float:
    """The k-th smallest element (1-based) via randomized quickselect.

    The input is not modified: each pass selects into a new array.
    """
    x = _validated(x)
    if not 1 <= k <= x.size or k != int(k):
        raise ValueError(f"k={k} is not an integer in [1, {x.size}]")
    rng = RngStream(_DEFAULT_PIVOT_SEED) if rng is None else rng
    counter = OpCounter() if counter is None else counter
    counter.reset()
    return _select(x, int(k), rng.gen, counter)[0]


def sample_median(x, method: str = "quickselect", rng: RngStream | None = None,
                  counter: OpCounter | None = None) -> MedianResult:
    """Sample median: mean of the two central order statistics.

    For odd D both central positions coincide, so the result is the middle
    order statistic exactly; for even D it is the average of the D/2-th and
    (D/2+1)-th smallest values, which one quickselect call returns. Both
    methods average through :func:`median_from_sorted`, so NaN or infinite
    entries, and a central sum past the float range, raise ValueError
    (INFINITE_MEDIAN for the sum).

    Args:
        x: one-dimensional real array, length >= 1.
        method: "quickselect" (expected linear) or "full_sort".
        rng: pivot stream for quickselect; a fixed default keeps the
            call deterministic when omitted.
        counter: optional operation counter; reset at entry.
    """
    x = _validated(x)
    if method not in MEDIAN_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {MEDIAN_METHODS}")
    counter = OpCounter() if counter is None else counter
    counter.reset()
    d = x.size
    if method == "full_sort":
        central = np.sort(x)
    else:
        rng = RngStream(_DEFAULT_PIVOT_SEED) if rng is None else rng
        low, high = _select(x, (d + 1) // 2, rng.gen, counter)
        central = np.array([low, high] if d % 2 == 0 else [low])
        counter.real_adds += 1
        counter.real_mults += 1
    return MedianResult(value=float(median_from_sorted(central, INFINITE_MEDIAN)),
                        method=method, ops=counter.snapshot())


def median_from_sorted(sorted_x: np.ndarray, overflow: str = INFINITE_POWER) -> np.ndarray:
    """Sample median of each row of an array sorted ascending along its last
    axis (no re-sort): one median per row. NaN or -inf entries, which
    sort to the ends of a row, are rejected as in :func:`sample_median`;
    +inf entries, and a median whose two central values sum past the float
    range, raise ValueError(overflow), by default INFINITE_POWER: a median
    of |y|^2 is at most half the float maximum, so the noise estimate
    median / log 2 is finite."""
    d = sorted_x.shape[-1]
    if d == 0:
        raise ValueError("cannot take the median of an empty array")
    first, last = sorted_x[..., 0], sorted_x[..., -1]
    low, high = sorted_x[..., (d - 1) // 2], sorted_x[..., d // 2]
    # within half the float range the central sum cannot overflow; NaN
    # fails both comparisons
    if (first >= -_HALF_MAX).all() and last.max() <= _HALF_MAX:
        return 0.5 * (low + high)
    if not (np.isfinite(first).all() and np.isfinite(last).all()):
        if np.isnan(last).any() or np.isneginf(first).any():
            raise ValueError("input contains NaN or infinite entries")
        raise ValueError(overflow)
    with np.errstate(over="ignore"):
        median = 0.5 * (low + high)
    if not np.isfinite(median).all():
        raise ValueError(overflow)
    return median
