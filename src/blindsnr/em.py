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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LOG2
from .selection import sample_median

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
        if not self.var_small > 0.0:
            raise ValueError("var_small must be positive")
        if not self.var_large > 0.0:
            raise ValueError("var_large must be positive")
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


def _validated_powers(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("z must be a non-empty one-dimensional array")
    if not np.isfinite(z).all():
        raise ValueError("z entries must be finite")
    if (z < 0).any():
        raise ValueError("z entries must be non-negative")
    return z


def _responsibilities(z, p, s1, s2):
    """E-step posterior of the large component, with a joint-underflow guard."""
    inv1 = 1.0 / s1
    inv2 = 1.0 / s2
    g1 = inv1 * np.exp(-(z * inv1))
    g2 = inv2 * np.exp(-(z * inv2))
    w2 = p * g2
    w1 = (1.0 - p) * g1
    den = w1 + w2
    ok = den > 0
    # if both densities underflow the sample is extreme for either model;
    # hand it to the heavy component
    gamma = np.where(ok, w2 / np.where(ok, den, 1.0), 1.0)
    loglik = float(np.log(np.where(ok, den, 5e-324)).sum())
    return gamma, loglik


def em_step(z, params: MixtureParams) -> MixtureParams:
    """One E+M update (with ordering swap and variance floors)."""
    z = _validated_powers(z)
    floor = max(_FLOOR_SCALE * float(z.mean()), 5e-324)
    p, s1, s2, *_ = _em_update(z, params.weight_active, params.var_small,
                               params.var_large, float(z.sum()), floor)
    return MixtureParams(weight_active=p, var_small=s1, var_large=s2)


def _em_update(z, p, s1, s2, sum_z, floor):
    """Returns (p', s1', s2', loglik, collapsed, swapped)."""
    d = z.size
    gamma, loglik = _responsibilities(z, p, s1, s2)
    sg = float(gamma.sum())
    sgz = float((gamma * z).sum())
    if sg < _COLLAPSE_MASS:
        # large component starved: freeze its variance (kept at or above
        # the updated small one), drop its weight
        s1_new = max((sum_z - sgz) / (d - sg), floor)
        return 0.0, s1_new, max(s2, s1_new), loglik, True, False
    if d - sg < _COLLAPSE_MASS:
        # small component starved: freeze its variance, give it weight 0
        s2_new = max(sgz / sg, floor, s1)
        return 1.0, s1, s2_new, loglik, True, False
    p_new = sg / d
    s2_new = max(sgz / sg, floor)
    s1_new = max((sum_z - sgz) / (d - sg), floor)
    if s1_new > s2_new:
        return 1.0 - p_new, s2_new, s1_new, loglik, False, True
    return p_new, s1_new, s2_new, loglik, False, False


def em_fit(z, init: MixtureParams, snr_from_total_power: bool = False) -> EmResult:
    """Fit the two-component exponential mixture to squared magnitudes.

    Args:
        z: non-negative |y|^2 samples.
        init: starting parameters (see :func:`em_default_init`).
        snr_from_total_power: report SNR as (mean(z) - var_small)/var_small
            instead of the default weight * (var_large - var_small)/var_small.
    """
    z = _validated_powers(z)
    d = z.size
    sum_z = float(z.sum())
    mean_z = sum_z / d
    floor = max(_FLOOR_SCALE * mean_z, 5e-324)

    p, s1, s2 = init.weight_active, init.var_small, init.var_large
    trace = []
    converged = False
    iterations = 0
    swaps = 0
    collapse_ops = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        p_new, s1_new, s2_new, loglik, collapsed, swapped = _em_update(
            z, p, s1, s2, sum_z, floor)
        trace.append(loglik)
        if collapsed:
            p, s1, s2 = p_new, s1_new, s2_new
            converged = True
            collapse_ops = 3 if p == 0.0 else 1
            break
        swaps += swapped
        delta = abs(p_new - p) + abs(s1_new - s1) + abs(s2_new - s2)
        base = p + s1 + s2
        p, s1, s2 = p_new, s1_new, s2_new
        if delta / base < REL_TOL:
            converged = True
            break
    full_updates = iterations - (collapse_ops > 0)
    op_estimate = (4 * d + iterations * (18 * d + 2) + 18 * full_updates
                   + swaps + collapse_ops)

    params = MixtureParams(weight_active=p, var_small=s1, var_large=s2)
    if snr_from_total_power:
        snr_raw = (mean_z - s1) / s1
    else:
        snr_raw = p * (s2 - s1) / s1
    return EmResult(params=params, iterations=iterations, converged=converged,
                    n0_em=s1, snr_em=max(snr_raw, 0.0),
                    op_estimate=op_estimate, loglik_trace=tuple(trace))


def em_default_init(z) -> MixtureParams:
    """Median-seeded starting point: deterministic and cheap.

    var_small starts at the median-based noise estimate computed from the
    same samples; var_large at twice the larger of the sample mean and
    that seed; the weight at 1/2.
    """
    z = _validated_powers(z)
    if z.size < 2:
        raise ValueError("need at least two samples to initialize")
    med = sample_median(z, method="full_sort").value
    s1 = med / LOG2
    if s1 <= 0.0:
        s1 = max(float(z.mean()), 5e-324)  # degenerate all-zero bulk
    s2 = max(2.0 * float(z.mean()), 2.0 * s1)
    return MixtureParams(weight_active=0.5, var_small=s1, var_large=max(s2, s1))


def mixture_loglik(z, params: MixtureParams) -> float:
    """Log-likelihood of squared magnitudes under the mixture (diagnostic)."""
    z = _validated_powers(z)
    p, s1, s2 = params.weight_active, params.var_small, params.var_large
    den = (1.0 - p) / s1 * np.exp(-z / s1) + p / s2 * np.exp(-z / s2)
    return float(np.log(np.maximum(den, 5e-324)).sum())
