"""Order-statistic selection: randomized quickselect and the sample median.

The sample median of a length-D vector is the average of the order
statistics at positions floor((D+1)/2) and ceil((D+1)/2) (1-based), which
reduces to the middle element for odd D. It can be computed either by a
full sort (worst-case D log D) or by randomized quickselect in expected
linear time; both paths return the exact same floating-point value.

Quickselect here partitions with vectorized three-way splits and counts
2 comparisons per element per partition pass (the ``< pivot`` and
``> pivot`` sweeps), so the comparison tally in the returned
:class:`~blindsnr.core.OpCounter` reflects the work actually performed.
The full-sort path delegates to numpy's sort, whose internal comparisons
are not observable; its counter reports zero comparisons.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import INFINITE_POWER, OpCounter, RngStream

MEDIAN_METHODS = ("quickselect", "full_sort")

# Fixed fallback key so selection stays deterministic when no stream is given.
_DEFAULT_PIVOT_SEED = 0x5E1EC7

_HALF_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class MedianResult:
    value: float
    method: str
    ops: OpCounter


def _select_ranks(arr: np.ndarray, ranks, gen: np.random.Generator,
                  counter: OpCounter) -> dict:
    """Return {rank: value} for the given 1-based ranks of ``arr``.

    ``arr`` is consumed as scratch (callers pass a private copy). Uses
    random pivots; expected work is linear in len(arr) per rank group.
    """
    out = {}
    # Each work item: (subarray, [(local_rank, requested_rank), ...])
    stack = [(arr, [(r, r) for r in ranks])]
    while stack:
        a, targets = stack.pop()
        while targets:
            n = a.size
            if n == 1:
                for _, req in targets:
                    out[req] = float(a[0])
                break
            pivot = float(a[int(gen.integers(0, n))])
            lt = a < pivot
            gt = a > pivot
            counter.comparisons += 2 * n
            nl = int(np.count_nonzero(lt))
            ne = n - nl - int(np.count_nonzero(gt))
            left, right = [], []
            for loc, req in targets:
                if loc <= nl:
                    left.append((loc, req))
                elif loc <= nl + ne:
                    out[req] = pivot
                else:
                    right.append((loc - nl - ne, req))
            if left and right:
                stack.append((a[gt], right))
                a, targets = a[lt], left
            elif left:
                a, targets = a[lt], left
            elif right:
                a, targets = a[gt], right
            else:
                break
    return out


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

    The input is not modified; selection runs on a private copy.
    """
    x = _validated(x)
    if not 1 <= k <= x.size:
        raise ValueError(f"k={k} out of range for length {x.size}")
    if rng is None:
        rng = RngStream(_DEFAULT_PIVOT_SEED)
    if counter is None:
        counter = OpCounter()
    else:
        counter.reset()
    return _select_ranks(x.copy(), [int(k)], rng.gen, counter)[int(k)]


def sample_median(x, method: str = "quickselect", rng: RngStream | None = None,
                  counter: OpCounter | None = None) -> MedianResult:
    """Sample median: mean of the two central order statistics.

    For odd D both central positions coincide, so the result is the middle
    order statistic exactly; for even D it is the average of the D/2-th and
    (D/2+1)-th smallest values. NaN or infinite entries are rejected.

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
    if counter is None:
        counter = OpCounter()
    else:
        counter.reset()
    d = x.size
    lo = (d + 1) // 2
    hi = d // 2 + 1
    if method == "full_sort":
        s = np.sort(x)
        value = 0.5 * (float(s[lo - 1]) + float(s[hi - 1]))
    else:
        if rng is None:
            rng = RngStream(_DEFAULT_PIVOT_SEED)
        picked = _select_ranks(x.copy(), sorted({lo, hi}), rng.gen, counter)
        value = 0.5 * (picked[lo] + picked[hi])
        counter.real_adds += 1
        counter.real_mults += 1
    return MedianResult(value=value, method=method, ops=counter.snapshot())


def median_from_sorted(sorted_x: np.ndarray) -> np.ndarray:
    """Sample median of each row of an array sorted ascending along its last
    axis (no re-sort): one median per row. NaN or -inf entries, which
    sort to the ends of a row, are rejected as in :func:`sample_median`;
    +inf entries (an overflowed |y|^2), and a median whose two central
    values sum past the float range, raise ValueError(INFINITE_POWER). So
    a median is at most half the float maximum, and the noise estimate
    median / log 2 is finite."""
    d = sorted_x.shape[-1]
    if d == 0:
        raise ValueError("cannot take the median of an empty array")
    lo = (d + 1) // 2
    hi = d // 2 + 1
    low, high = sorted_x[..., lo - 1], sorted_x[..., hi - 1]
    # below half the float range the central sum cannot overflow
    finite_first = np.isfinite(sorted_x[..., 0]).all()
    if finite_first and sorted_x[..., -1].max() <= _HALF_MAX:
        return 0.5 * (low + high)
    if not (finite_first and np.isfinite(sorted_x[..., -1]).all()):
        if np.isnan(sorted_x[..., -1]).any() or np.isneginf(sorted_x[..., 0]).any():
            raise ValueError("input contains NaN or infinite entries")
        raise ValueError(INFINITE_POWER)
    with np.errstate(over="ignore"):
        median = 0.5 * (low + high)
    if not median.max() < math.inf:
        raise ValueError(INFINITE_POWER)
    return median
