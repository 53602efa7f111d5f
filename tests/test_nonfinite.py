"""Non-finite parameters, and inputs whose |y|^2 overflows, raise ValueError
instead of leaving the library as NaN or inf."""

import re

import numpy as np
import pytest

from blindsnr import (
    ComplexVector,
    DenoiserFunction,
    MixtureParams,
    abs_squared,
    blind_report,
    denoise_blind,
    estimate_mse,
    estimate_noise_power,
    estimate_signal_power,
    estimate_snr,
    genie_estimates,
    search_threshold,
    soft_threshold,
    sure_of_threshold,
)
from blindsnr.core import INFINITE_POWER, INFINITE_RISK
from blindsnr.em import em_fit_rows, em_init_rows
from blindsnr.selection import median_from_sorted
from blindsnr.sure import blind_rows, search_rows, soft_threshold_rows

Y = ComplexVector(np.array([0.5, -1.0, 2.0, 0.0]), np.array([1.0, 0.25, -3.0, 0.0]))
ROWS = np.stack((Y.values, 2.0 * Y.values))
NAN, INF = float("nan"), float("inf")

CALLS = {
    "search_threshold": lambda bad: search_threshold(Y, bad),
    "search_rows": lambda bad: search_rows(ROWS, [1.0, bad]),
    "soft_threshold": lambda bad: soft_threshold(Y, bad),
    "soft_threshold_rows": lambda bad: soft_threshold_rows(ROWS, [bad, 1.0]),
    "sure_of_threshold.tau": lambda bad: sure_of_threshold(Y, bad, 1.0),
    "sure_of_threshold.n0": lambda bad: sure_of_threshold(Y, 1.0, bad),
    "DenoiserFunction.soft": lambda bad: DenoiserFunction.soft(bad),
    "estimate_signal_power": lambda bad: estimate_signal_power(Y, bad),
    "estimate_snr": lambda bad: estimate_snr(Y, bad),
    "estimate_mse": lambda bad: estimate_mse(Y, DenoiserFunction.soft(1.0), bad),
    "MixtureParams.var_small": lambda bad: MixtureParams(0.5, bad, 2.0),
    "MixtureParams.var_large": lambda bad: MixtureParams(0.5, 1.0, bad),
    "MixtureParams.weight_active": lambda bad: MixtureParams(bad, 1.0, 2.0),
    "em_fit_rows.init": lambda bad: em_fit_rows(np.ones((2, 4)), [[0.5, 1.0, 2.0],
                                                                  [0.5, 1.0, bad]]),
}


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_finite_parameter_raises(name, bad):
    with pytest.raises(ValueError):
        CALLS[name](bad)



# |y_d|^2 overflows at every entry; and a vector whose |y_d|^2 are finite
# but sum to inf. The latter's median |y_d|^2 is 0.5 * (1 + 1e308), since a
# median near the float maximum raises on its own (HUGE_MEDIAN below).
HUGE = ComplexVector(np.full(8, 1e200), np.zeros(8))
HUGE_SUM = ComplexVector(np.repeat([1.0, 1e154], 4), np.zeros(8))
UNIT = ComplexVector(np.ones(8), np.zeros(8))

# calls that sum |y|^2, so either vector overflows them
POWER_CALLS = {
    "search_threshold": lambda y: search_threshold(y, 1.0),
    "search_rows": lambda y: search_rows(y.values[None], 1.0),
    "sure_of_threshold": lambda y: sure_of_threshold(y, 1.0, 1.0),
    "blind_report": blind_report,
    "blind_rows": lambda y: blind_rows(y.values[None]),
    "denoise_blind": denoise_blind,
    "estimate_signal_power": lambda y: estimate_signal_power(y, 1.0),
    "estimate_snr": lambda y: estimate_snr(y, 1.0),
    "estimate_mse.identity": lambda y: estimate_mse(y, DenoiserFunction.identity(), 1.0),
    "estimate_mse.zero": lambda y: estimate_mse(y, DenoiserFunction.zero(), 1.0),
    "genie_estimates": lambda y: genie_estimates(y, UNIT, y, DenoiserFunction.identity()),
    # signal and noise power both overflow, so their quotient is inf / inf
    "genie_estimates.noise": lambda y: genie_estimates(y, y, y, DenoiserFunction.identity()),
}
# calls that use each |y_d|^2 alone
ENTRY_CALLS = {
    "estimate_noise_power": estimate_noise_power,
    "soft_threshold": lambda y: soft_threshold(y, 1.0),
    "soft_threshold_rows": lambda y: soft_threshold_rows(y.values[None], 1.0),
    "DenoiserFunction.evaluate": lambda y: DenoiserFunction.soft(1.0).evaluate(y),
    "DenoiserFunction.divergence": lambda y: DenoiserFunction.soft(1.0).divergence(y),
    "estimate_mse.soft": lambda y: estimate_mse(y, DenoiserFunction.soft(1.0), 1.0),
}


# the suite turns RuntimeWarnings into errors, so these also show that
# numpy's overflow warning does not escape before the ValueError
@pytest.mark.parametrize("y", [HUGE, HUGE_SUM], ids=["entry", "sum"])
@pytest.mark.parametrize("name", sorted(POWER_CALLS))
def test_overflowing_power_raises(name, y):
    with pytest.raises(ValueError, match=re.escape(INFINITE_POWER)):
        POWER_CALLS[name](y)


@pytest.mark.parametrize("name", sorted(ENTRY_CALLS))
def test_overflowing_entry_raises(name):
    with pytest.raises(ValueError, match=re.escape(INFINITE_POWER)):
        ENTRY_CALLS[name](HUGE)


def test_nan_row_keeps_the_non_finite_text():
    # a NaN |y_d|^2 is bad input, not an overflow
    rows = np.stack((Y.values, np.where(np.arange(4) == 1, NAN, Y.values)))
    with pytest.raises(ValueError, match="input contains NaN or infinite entries"):
        blind_rows(rows)


# finite |y|^2 whose median overflows: 0.5 * (1e308 + 1e308)
HUGE_MEDIAN = ComplexVector(np.full(8, 1e154), np.zeros(8))
MEDIAN_CALLS = {
    "median_from_sorted": lambda y: median_from_sorted(np.sort(abs_squared(y))),
    "estimate_noise_power": estimate_noise_power,
    "blind_report": blind_report,
    "blind_rows": lambda y: blind_rows(y.values[None]),
    "em_init_rows": lambda y: em_init_rows(abs_squared(y)[None]),
}


@pytest.mark.parametrize("name", sorted(MEDIAN_CALLS))
def test_overflowing_median_raises(name):
    with pytest.raises(ValueError, match=re.escape(INFINITE_POWER)):
        MEDIAN_CALLS[name](HUGE_MEDIAN)


# finite powers whose SNR quotient overflows: the receive power 1e20 over a
# noise estimate of 1e-300, and (blind) 3e10 / 8 over the median 1e-320 / log 2
TINY_NOISE = ComplexVector(np.concatenate([np.full(5, 1e-160), np.full(3, 1e5)]),
                           np.zeros(8))
SNR_CALLS = {
    "estimate_snr": lambda: estimate_snr(ComplexVector(np.full(8, 1e10), np.zeros(8)),
                                         1e-300),
    "blind_report": lambda: blind_report(TINY_NOISE),
    "blind_rows": lambda: blind_rows(np.stack((Y.values[:4].repeat(2), TINY_NOISE.values))),
    "genie_estimates": lambda: genie_estimates(
        ComplexVector(np.full(8, 1e5), np.zeros(8)),
        ComplexVector(np.full(8, 1e-160), np.zeros(8)), UNIT, DenoiserFunction.identity()),
}


@pytest.mark.parametrize("name", sorted(SNR_CALLS))
def test_overflowing_snr_raises(name):
    with pytest.raises(ValueError, match="SNR estimate is infinite"):
        SNR_CALLS[name]()


# finite inputs whose risk estimate overflows: n0 times the divergence sum
NORMAL_64 = ComplexVector(np.random.default_rng(0).standard_normal(64), np.zeros(64))
RISK_CALLS = {
    "sure_of_threshold": lambda: sure_of_threshold(NORMAL_64, 0.0, 1e308),
    "estimate_mse": lambda: estimate_mse(NORMAL_64, DenoiserFunction.identity(), 1e308),
}


@pytest.mark.parametrize("name", sorted(RISK_CALLS))
def test_overflowing_risk_raises(name):
    with pytest.raises(ValueError, match=re.escape(INFINITE_RISK)):
        RISK_CALLS[name]()


# |y|^2 sums to just below the float maximum, so candidate risks such as
# 3 tau^2 overflow; and a noise power whose risk terms 2 n0 overflow. The
# search passes over the infinite risks without numpy's warning.
NEAR_MAX = ComplexVector(np.sqrt([1.05e308, 7.3e307, 6.9e305]), np.zeros(3))


def test_overflowing_candidate_risk_is_skipped():
    rep = blind_report(NEAR_MAX)
    assert (rep.search.tau_star, rep.search.sure_at_tau) == \
        (1.0246950765959599e+154, -4.575340465156101e+307)
    found = search_threshold(NEAR_MAX, rep.noise.value)
    assert (found.tau_star, found.sure_at_tau) == (rep.search.tau_star, rep.search.sure_at_tau)
    found = search_threshold(UNIT, 1.7e308)  # the zero map: 1 - n0
    assert (found.tau_star, found.sure_at_tau) == (1.0, -1.7e308)
