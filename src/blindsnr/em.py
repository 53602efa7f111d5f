"""Two-component exponential-power EM baseline.

The squared magnitude of a zero-mean circularly-symmetric complex
Gaussian entry is exponential, so fitting |y|^2 with a two-component
exponential mixture recovers the mixture weights and the two per-entry
power levels of a sparse-plus-noise observation. The small variance is
the EM noise-power estimate; the weighted excess of the large one gives
an SNR estimate.

The recipe is fixed: at most 30 iterations, stopping early when the L1
change of (weight, var_small, var_large) drops below 0.1 % of the
previous parameter norm. Initialization is median-seeded (deterministic
and cheap). A component whose responsibility mass vanishes is frozen at
its current variance with weight 0 or 1 and the fit is marked converged.

``op_estimate`` counts the real operations the update formulas perform
(including the per-iteration log-likelihood evaluation and the 3D
squared-magnitude formation done upstream of the fit) in closed form, for
comparison against per-iteration cost floors of iterative baselines:
4D before the loop, 18D+2 per E-step with its sums, 18 per full M-step
with its stopping test, one per ordering swap, and 3 or 1 for the final
update of a large- or small-component collapse.

The fit runs on rows: :func:`em_fit_rows` fits every row of an (R, D)
array at once. Only the D-long E-step is batched (the exponentials, the
responsibilities and the three row sums), over the rows still iterating;
the scalar M-step, the collapse rules, the stopping test and the cap
apply per row in Python floats, so each row's fit is the one
:func:`em_fit` gives for that row alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LOG2
from .selection import median_from_sorted

MAX_ITERATIONS = 30
REL_TOL = 1e-3

_COLLAPSE_MASS = 1e-9
_FLOOR_SCALE = 1e-12


@dataclass(frozen=True)
class MixtureParams:
    """Weights and per-entry powers of the two-component exponential mixture.

    ``var_small <= var_large`` is maintained by swapping after each
    update; ``weight_active`` is the weight of the large component.
    """

    weight_active: float
    var_small: float
    var_large: float

    def __post_init__(self):
        if not 0.0 <= self.weight_active <= 1.0:
            raise ValueError("weight_active must lie in [0, 1]")
        if not 0.0 < self.var_small < math.inf:
            raise ValueError("var_small must be positive and finite")
        if not 0.0 < self.var_large < math.inf:
            raise ValueError("var_large must be positive and finite")
        if self.var_small > self.var_large:
            raise ValueError("var_small must not exceed var_large")


@dataclass(frozen=True)
class EmResult:
    params: MixtureParams
    iterations: int
    converged: bool
    n0_em: float
    snr_em: float
    op_estimate: int
    loglik_trace: tuple


def paper_op_floor(dim: int, iterations: int) -> int:
    """Commonly quoted per-iteration cost floor N(16D+12)+3D for this EM."""
    return iterations * (16 * dim + 12) + 3 * dim


def _validated_powers(z, ndim: int = 1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != ndim or z.size < 1:
        shape = "one-dimensional" if ndim == 1 else "(rows, samples)"
        raise ValueError(f"z must be a non-empty {shape} array")
    if not np.isfinite(z).all():
        raise ValueError("z entries must be finite")
    if (z < 0).any():
        raise ValueError("z entries must be non-negative")
    return z


def _e_step(z, p, inv1, inv2):
    """Per-row sum of gamma, sum of gamma * z and log-likelihood, as lists.

    ``z`` is (R, D); ``p`` and the inverse variances ``inv1``, ``inv2``
    are (R, 1). gamma is the posterior of the large component, with a
    joint-underflow guard.
    """
    # a variance floored at 5e-324 has an infinite inverse, so zero samples
    # give 0 * inf and the densities overflow; ``ok`` maps those samples
    with np.errstate(invalid="ignore", over="ignore"):
        g1 = inv1 * np.exp(-(z * inv1))
        g2 = inv2 * np.exp(-(z * inv2))
        w2 = p * g2
        w1 = (1.0 - p) * g1
        den = w1 + w2
    ok = den > 0
    # if both densities underflow the sample is extreme for either model;
    # hand it to the heavy component
    gamma = np.where(ok, w2 / np.where(ok, den, 1.0), 1.0)
    loglik = np.log(np.where(ok, den, 5e-324)).sum(axis=-1)
    return (gamma.sum(axis=-1).tolist(), (gamma * z).sum(axis=-1).tolist(),
            loglik.tolist())


def _m_step(d, p, s1, s2, sum_z, floor, sg, sgz):
    """Returns (p', s1', s2', collapsed, swapped) from the E-step sums."""
    if sg < _COLLAPSE_MASS:
        # large component starved: freeze its variance (kept at or above
        # the updated small one), drop its weight
        s1_new = max((sum_z - sgz) / (d - sg), floor)
        return 0.0, s1_new, max(s2, s1_new), True, False
    if d - sg < _COLLAPSE_MASS:
        # small component starved: freeze its variance, give it weight 0
        s2_new = max(sgz / sg, floor, s1)
        return 1.0, s1, s2_new, True, False
    p_new = sg / d
    s2_new = max(sgz / sg, floor)
    s1_new = max((sum_z - sgz) / (d - sg), floor)
    if s1_new > s2_new:
        return 1.0 - p_new, s2_new, s1_new, False, True
    return p_new, s1_new, s2_new, False, False


def _floor(mean_z: float) -> float:
    return max(_FLOOR_SCALE * mean_z, 5e-324)


def em_step(z, params: MixtureParams) -> MixtureParams:
    """One E+M update (with ordering swap and variance floors)."""
    z = _validated_powers(z)
    p, s1, s2 = params.weight_active, params.var_small, params.var_large
    sum_z = float(z.sum())
    (sg,), (sgz,), _ = _e_step(z[None], np.array([[p]]), np.array([[1.0 / s1]]),
                               np.array([[1.0 / s2]]))
    p, s1, s2, *_ = _m_step(z.size, p, s1, s2, sum_z, _floor(sum_z / z.size),
                            sg, sgz)
    return MixtureParams(weight_active=p, var_small=s1, var_large=s2)


def em_fit_rows(z, init, snr_from_total_power: bool = False) -> list:
    """Fit the two-component exponential mixture to each row of z.

    Args:
        z: (R, D) non-negative |y|^2 samples, one observation per row.
        init: (R, 3) starting (weight_active, var_small, var_large) per
            row, each a valid :class:`MixtureParams` (see
            :func:`em_init_rows`).
        snr_from_total_power: as in :func:`em_fit`.

    Returns one :class:`EmResult` per row, in row order.
    """
    z = _validated_powers(z, ndim=2)
    init = np.asarray(init, dtype=np.float64)
    if init.shape != (z.shape[0], 3):
        raise ValueError("init must hold one (weight, var_small, var_large) per row")
    w, v1, v2 = init.T
    if not ((0.0 <= w) & (w <= 1.0) & (0.0 < v1) & (v1 <= v2) & (v2 < math.inf)).all():
        raise ValueError("each init row must be valid MixtureParams")
    rows, d = z.shape
    sum_z = z.sum(axis=-1).tolist()
    floors = [_floor(total / d) for total in sum_z]
    p, s1, s2 = w.tolist(), v1.tolist(), v2.tolist()
    trace = [[] for _ in range(rows)]
    iterations = [0] * rows
    converged = [False] * rows
    swaps = [0] * rows
    collapse_ops = [0] * rows

    # the E-step inputs of the rows still iterating, as (active, 1) columns;
    # the inverses are taken in Python floats, as the M-step values are
    active = list(range(rows))
    z_active = z
    p_col = init[:, :1].copy()
    inv1_col = np.array([[1.0 / v] for v in s1])
    inv2_col = np.array([[1.0 / v] for v in s2])
    for it in range(1, MAX_ITERATIONS + 1):
        sg, sgz, loglik = _e_step(z_active, p_col, inv1_col, inv2_col)
        still = []
        for k, i in enumerate(active):
            p_new, s1_new, s2_new, collapsed, swapped = _m_step(
                d, p[i], s1[i], s2[i], sum_z[i], floors[i], sg[k], sgz[k])
            trace[i].append(loglik[k])
            iterations[i] = it
            if collapsed:
                p[i], s1[i], s2[i] = p_new, s1_new, s2_new
                converged[i] = True
                collapse_ops[i] = 3 if p_new == 0.0 else 1
                continue
            swaps[i] += swapped
            delta = abs(p_new - p[i]) + abs(s1_new - s1[i]) + abs(s2_new - s2[i])
            base = p[i] + s1[i] + s2[i]
            p[i], s1[i], s2[i] = p_new, s1_new, s2_new
            if delta / base < REL_TOL:
                converged[i] = True
                continue
            p_col[k, 0] = p_new
            inv1_col[k, 0] = 1.0 / s1_new
            inv2_col[k, 0] = 1.0 / s2_new
            still.append(k)
        if len(still) < len(active):
            if not still:
                break
            z_active, p_col = z_active[still], p_col[still]
            inv1_col, inv2_col = inv1_col[still], inv2_col[still]
            active = [active[k] for k in still]

    results = []
    for i in range(rows):
        it = iterations[i]
        full_updates = it - (collapse_ops[i] > 0)
        op_estimate = (4 * d + it * (18 * d + 2) + 18 * full_updates
                       + swaps[i] + collapse_ops[i])
        if snr_from_total_power:
            snr_raw = (sum_z[i] / d - s1[i]) / s1[i]
        else:
            snr_raw = p[i] * (s2[i] - s1[i]) / s1[i]
        params = MixtureParams(weight_active=p[i], var_small=s1[i], var_large=s2[i])
        results.append(EmResult(params=params, iterations=it, converged=converged[i],
                                n0_em=s1[i], snr_em=max(snr_raw, 0.0),
                                op_estimate=op_estimate,
                                loglik_trace=tuple(trace[i])))
    return results


def em_fit(z, init: MixtureParams, snr_from_total_power: bool = False) -> EmResult:
    """Fit the two-component exponential mixture to squared magnitudes.

    Args:
        z: non-negative |y|^2 samples.
        init: starting parameters (see :func:`em_default_init`).
        snr_from_total_power: report SNR as (mean(z) - var_small)/var_small
            instead of the default weight * (var_large - var_small)/var_small.
    """
    z = _validated_powers(z)
    start = [[init.weight_active, init.var_small, init.var_large]]
    return em_fit_rows(z[None], start, snr_from_total_power)[0]


def em_init_rows(z) -> np.ndarray:
    """Median-seeded starting point of each row of z, as an (R, 3) array.

    Columns are (weight_active, var_small, var_large); see
    :func:`em_default_init`.
    """
    z = _validated_powers(z, ndim=2)
    if z.shape[-1] < 2:
        raise ValueError("need at least two samples to initialize")
    mean = z.mean(axis=-1)
    s1 = median_from_sorted(np.sort(z, axis=-1)) / LOG2
    # degenerate all-zero bulk
    s1 = np.where(s1 <= 0.0, np.maximum(mean, 5e-324), s1)
    s2 = np.maximum(2.0 * mean, 2.0 * s1)
    return np.stack((np.full(z.shape[0], 0.5), s1, np.maximum(s2, s1)), axis=-1)


def em_default_init(z) -> MixtureParams:
    """Median-seeded starting point: deterministic and cheap.

    var_small starts at the median-based noise estimate computed from the
    same samples; var_large at twice the larger of the sample mean and
    that seed; the weight at 1/2.
    """
    z = _validated_powers(z)
    p, s1, s2 = em_init_rows(z[None])[0].tolist()
    return MixtureParams(weight_active=p, var_small=s1, var_large=s2)


def mixture_loglik(z, params: MixtureParams) -> float:
    """Log-likelihood of squared magnitudes under the mixture (diagnostic)."""
    z = _validated_powers(z)
    p, s1, s2 = params.weight_active, params.var_small, params.var_large
    den = (1.0 - p) / s1 * np.exp(-z / s1) + p / s2 * np.exp(-z / s2)
    return float(np.log(np.maximum(den, 5e-324)).sum())
