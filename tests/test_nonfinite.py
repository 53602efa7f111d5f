"""Non-finite parameters raise ValueError instead of leaving the library as NaN or inf."""

import numpy as np
import pytest

from blindsnr import (
    ComplexVector,
    DenoiserFunction,
    MixtureParams,
    estimate_mse,
    estimate_signal_power,
    estimate_snr,
    search_threshold,
    soft_threshold,
    sure_of_threshold,
)
from blindsnr.em import em_fit_rows
from blindsnr.sure import search_rows, soft_threshold_rows

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

