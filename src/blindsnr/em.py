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
(including the per-iteration log-likelihood evaluation, whether or not a
trace is asked for, and the 3D squared-magnitude formation done upstream
of the fit) in closed form, for comparison against per-iteration cost
floors of iterative baselines:
4D before the loop, 18D+2 per E-step with its sums, 18 per full M-step
with its stopping test, one per ordering swap, and 3 or 1 for the final
update of a large- or small-component collapse.

The fit runs on rows: :func:`em_fit_rows` fits every row of an (R, D)
array at once, and :func:`em_fit` and :func:`em_step` (one iteration)
are one-row calls into the same kernel. Each iteration's E-step is one
pass over a (2, rows, D) array holding both components' weighted
densities, for the rows still iterating; it yields each row's
responsibility sums with one reduction. The M-step, the collapse rules,
the stopping test and the cap then apply per row in Python floats, so
each row's fit is the one a per-vector loop gives, bit for bit. The
log-likelihood is evaluated only when a trace is asked for
(``EmResult.loglik_trace``); the kernel returns its fits as arrays, one
entry per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import INFINITE_POWER, LOG2
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


def _weights_and_inverses(p: list, s1: list, s2: list) -> np.ndarray:
    """The E-step's per-row inputs [1 - p, p, 1/s1, 1/s2] as a (4, R)
    array; numpy's subtract and divide give the Python float results."""
    block = np.array((p, p, s1, s2))
    np.subtract(1.0, block[0], out=block[0])
    np.divide(1.0, block[2:], out=block[2:])
    return block


class EmRows(NamedTuple):
    """The fits of an (R, D) block, one entry per row.

    ``loglik_trace`` holds each row's per-iteration log-likelihoods as a
    tuple when a trace was asked for, and is None otherwise.
    """

    weight: np.ndarray
    var_small: np.ndarray
    var_large: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    op_estimate: np.ndarray
    loglik_trace: list | None


def em_step(z, params: MixtureParams) -> MixtureParams:
    """One E+M update (with ordering swap and variance floors)."""
    z = _validated_powers(z)
    start = np.array([[params.weight_active, params.var_small, params.var_large]])
    fit = _fit_rows(z[None], start, max_iterations=1)
    return MixtureParams(weight_active=fit.weight.item(), var_small=fit.var_small.item(),
                         var_large=fit.var_large.item())


def em_fit_rows(z, init) -> list:
    """Fit the two-component exponential mixture to each row of z.

    Args:
        z: (R, D) non-negative |y|^2 samples, one observation per row.
        init: (R, 3) starting (weight_active, var_small, var_large) per
            row, each a valid :class:`MixtureParams` (see
            :func:`em_init_rows`).

    Returns one :class:`EmResult` per row, in row order.
    """
    z = _validated_powers(z, ndim=2)
    init = np.asarray(init, dtype=np.float64)
    if init.shape != (z.shape[0], 3):
        raise ValueError("init must hold one (weight, var_small, var_large) per row")
    w, v1, v2 = init.T
    if not ((0.0 <= w) & (w <= 1.0) & (0.0 < v1) & (v1 <= v2) & (v2 < math.inf)).all():
        raise ValueError("each init row must be valid MixtureParams")
    fit = _fit_rows(z, init, trace=True)
    return [EmResult(params=MixtureParams(weight_active=p, var_small=s1, var_large=s2),
                     iterations=it, converged=done, n0_em=s1,
                     snr_em=max(p * (s2 - s1) / s1, 0.0), op_estimate=ops,
                     loglik_trace=trace)
            for p, s1, s2, it, done, ops, trace in zip(
                fit.weight.tolist(), fit.var_small.tolist(), fit.var_large.tolist(),
                fit.iterations.tolist(), fit.converged.tolist(),
                fit.op_estimate.tolist(), fit.loglik_trace)]


def _fit_rows(z: np.ndarray, init: np.ndarray, trace: bool = False,
              max_iterations: int = MAX_ITERATIONS) -> EmRows:
    """:func:`em_fit_rows` on rows already known valid: finite non-negative
    (R, D) powers and an (R, 3) float init of valid parameters. The
    log-likelihood is evaluated only when ``trace`` is set."""
    rows, d = z.shape
    sum_z = z.sum(axis=-1).tolist()
    floors = [max(_FLOOR_SCALE * (total / d), 5e-324) for total in sum_z]
    p, s1, s2 = init.T.tolist()
    traces = [[] for _ in range(rows)] if trace else None
    iterations = [0] * rows
    converged = [False] * rows
    swaps = [0] * rows
    collapse_ops = [0] * rows

    # the rows still iterating, their |y|^2 and their E-step inputs
    active = list(range(rows))
    z_active = z
    # a variance floored at 5e-324 has an infinite inverse, so zero samples
    # give 0 * inf and the densities overflow; the density test maps those
    with np.errstate(invalid="ignore", over="ignore"):
        block = _weights_and_inverses(p, s1, s2)
        for it in range(1, max_iterations + 1):
            # both components' weighted densities w * inv * exp(-z * inv) at
            # once, as a (2, active, D) array
            inv = block[2:, :, None]
            dens = z_active * -inv
            np.exp(dens, out=dens)
            dens *= inv
            dens *= block[:2, :, None]
            den = dens[0] + dens[1]
            # gamma, the posterior of the large component, goes into dens[0]
            if den.min() > 0.0:
                np.divide(dens[1], den, out=dens[0])
            else:
                # if both densities underflow (or are NaN) the sample is
                # extreme for either model; hand it to the heavy component
                ok = den > 0.0
                den = np.where(ok, den, 5e-324)
                dens[0] = np.where(ok, dens[1] / den, 1.0)
            if traces is not None:
                loglik = np.log(den).sum(axis=-1).tolist()
            np.multiply(dens[0], z_active, out=dens[1])
            sg, sgz = dens.sum(axis=-1).tolist()

            # the M-step of each row, in Python floats
            still = []
            for k, i in enumerate(active):
                if traces is not None:
                    traces[i].append(loglik[k])
                iterations[i] = it
                g, gz = sg[k], sgz[k]
                if g < _COLLAPSE_MASS:
                    # large component starved: freeze its variance (kept at or
                    # above the updated small one), drop its weight
                    s1_new = max((sum_z[i] - gz) / (d - g), floors[i])
                    p[i], s1[i], s2[i] = 0.0, s1_new, max(s2[i], s1_new)
                    converged[i] = True
                    collapse_ops[i] = 3
                    continue
                if d - g < _COLLAPSE_MASS:
                    # small component starved: freeze its variance, give it
                    # weight 0
                    p[i], s2[i] = 1.0, max(gz / g, floors[i], s1[i])
                    converged[i] = True
                    collapse_ops[i] = 1
                    continue
                p_new = g / d
                s2_new = max(gz / g, floors[i])
                s1_new = max((sum_z[i] - gz) / (d - g), floors[i])
                if s1_new > s2_new:
                    p_new, s1_new, s2_new = 1.0 - p_new, s2_new, s1_new
                    swaps[i] += 1
                delta = abs(p_new - p[i]) + abs(s1_new - s1[i]) + abs(s2_new - s2[i])
                base = p[i] + s1[i] + s2[i]
                p[i], s1[i], s2[i] = p_new, s1_new, s2_new
                if delta / base < REL_TOL:
                    converged[i] = True
                    continue
                still.append(k)
            if not still:
                break
            if len(still) < len(active):
                z_active = z_active[still]
                active = [active[k] for k in still]
            block = _weights_and_inverses([p[i] for i in active], [s1[i] for i in active],
                                          [s2[i] for i in active])

    its = np.array(iterations)
    collapse = np.array(collapse_ops)
    op_estimate = (4 * d + its * (18 * d + 2) + 18 * (its - (collapse > 0))
                   + np.array(swaps) + collapse)
    return EmRows(weight=np.array(p), var_small=np.array(s1), var_large=np.array(s2),
                  iterations=its, converged=np.array(converged), op_estimate=op_estimate,
                  loglik_trace=None if traces is None else [tuple(t) for t in traces])


def em_fit(z, init: MixtureParams) -> EmResult:
    """Fit the two-component exponential mixture to squared magnitudes.

    Args:
        z: non-negative |y|^2 samples.
        init: starting parameters (see :func:`em_default_init`).

    The SNR estimate is weight * (var_large - var_small) / var_small.
    """
    z = _validated_powers(z)
    start = [[init.weight_active, init.var_small, init.var_large]]
    return em_fit_rows(z[None], start)[0]


def em_init_rows(z) -> np.ndarray:
    """Median-seeded starting point of each row of z, as an (R, 3) array.

    Columns are (weight_active, var_small, var_large); see
    :func:`em_default_init`.
    """
    z = _validated_powers(z, ndim=2)
    if z.shape[-1] < 2:
        raise ValueError("need at least two samples to initialize")
    return _init_rows(z, median_from_sorted(np.sort(z, axis=-1)) / LOG2)


def _init_rows(z: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """:func:`em_init_rows` given each row's median seed median(z) / log 2,
    the blind noise estimate of the same row (``blind_rows(y).n0``).
    ValueError when a row's mean |y|^2 or its starting var_large overflows."""
    with np.errstate(over="ignore"):
        mean = z.mean(axis=-1)
        # degenerate all-zero bulk
        s1 = np.where(seed <= 0.0, np.maximum(mean, 5e-324), seed)
        s2 = np.maximum(2.0 * mean, 2.0 * s1)
    if not s2.max() < math.inf:
        raise ValueError(INFINITE_POWER)
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
