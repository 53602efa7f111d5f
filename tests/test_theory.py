"""Exact power median, the noise-power certificate, and its edge behavior."""

import csv
import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsnr import (
    ACTIVITY_RATE_LIMIT,
    LOG2,
    BcgParams,
    BoundViolationError,
    exact_power_median,
    power_cdf,
    theorem1_bounds,
    verify_sandwich,
)
from blindsnr import cli, theory
from blindsnr.cli import main as cli_main

from conftest import bcg_params


class TestExactPowerMedian:
    def test_sparse_limit_is_noise_median(self):
        params = bcg_params(64, 1e-12, 1e-12)  # Eh = snr*n0/p = 1
        assert abs(exact_power_median(params) - LOG2) <= 1e-9

    def test_fully_active_is_slow_component_median(self):
        params = bcg_params(64, 1.0, 10.0)  # Eh = 10, N0 = 1
        assert abs(exact_power_median(params) - 11.0 * LOG2) <= 1e-9

    def test_root_solves_cdf_half(self):
        params = bcg_params(64, 0.1, 1.0)
        m = exact_power_median(params)
        assert abs(power_cdf(m, params) - 0.5) <= 1e-12

    def test_reference_value(self):
        # root of 0.9(1 - e^-m) + 0.1(1 - e^-m/11) = 1/2, cross-checked
        # against an independent solver during development
        params = bcg_params(64, 0.1, 1.0)
        assert exact_power_median(params) == pytest.approx(0.7936771669, abs=1e-9)

    def test_large_median_terminates(self, tmp_path):
        # one ulp of a median above about 4.5e3 exceeds the 1e-12 stop, so
        # the bisection ends on adjacent floats; all active: (N0 + Eh) ln 2
        params = BcgParams(dim=64, activity_rate=1.0, active_power=1e10,
                           noise_power=1e10)
        assert exact_power_median(params) == pytest.approx(2e10 * LOG2, rel=1e-12)
        assert cli_main(["bounds", "--n0", "1e5", "--snr-db", "0", "--trials", "2",
                         "--out", str(tmp_path / "b.csv")]) == 0

    def test_matches_empirical_median_of_ten_million_samples(self):
        params = bcg_params(64, 0.1, 1.0)
        rng = np.random.default_rng(85)
        active = rng.random(10**7) < 0.1
        z = np.where(active, rng.exponential(11.0, 10**7), rng.exponential(1.0, 10**7))
        m = exact_power_median(params)
        assert abs(np.median(z) - m) / m <= 0.005

    def test_lemma_style_convergence_at_one_million(self):
        params = bcg_params(64, 0.1, 1.0)
        rng = np.random.default_rng(86)
        active = rng.random(10**6) < 0.1
        z = np.where(active, rng.exponential(11.0, 10**6), rng.exponential(1.0, 10**6))
        m = exact_power_median(params)
        assert abs(np.median(z) - m) / m <= 0.005


class TestNoisePowerScaling:
    FIELDS = ("median_exact", "lower_bound_n0", "upper_bound_n0",
              "lemma2_ub", "lemma3_ub", "lemma4_lb")

    @pytest.mark.parametrize("n0", [1e-300, 1e-20, 1e-6, 1e10, 1e300])
    def test_median_and_bounds_scale_with_n0(self, n0):
        # the median keeps its relative precision far from N0 = 1, so the
        # certificate of a scaled model is the scaled certificate
        unit = theorem1_bounds(bcg_params(64, 0.1, 1.0))
        chk = theorem1_bounds(bcg_params(64, 0.1, 1.0, n0))
        for field in self.FIELDS:
            assert getattr(chk, field) == pytest.approx(n0 * getattr(unit, field),
                                                        rel=1e-15, abs=0.0), field

    def test_cdf_near_the_float_maximum(self):
        # N0 + Eh overflows here; the unit-noise model at z / N0 does not
        params = BcgParams(64, 0.01, 1e308, 1e308)
        closed = 0.99 * (1.0 - math.exp(-1.0)) + 0.01 * (1.0 - math.exp(-0.5))
        assert abs(power_cdf(1e308, params) - closed) <= 1e-12

    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    def test_cdf_of_negative_zero_nan_and_infinite_z(self, array):
        # a power is never negative: F is 0 below 0, 1 at +inf, and NaN is an error
        params = BcgParams(64, 0.1, 10.0, 1.0)

        def cdf(z):
            out = power_cdf(np.array([z]) if array else z, params)
            assert isinstance(out, np.ndarray) == array
            return out[0] if array else out

        for z in (-1.0, -1e-300, -sys.float_info.max, -math.inf, -0.0, 0.0):
            assert cdf(z) == 0.0
        assert cdf(math.inf) == 1.0
        with pytest.raises(ValueError, match="NaN"):
            cdf(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            power_cdf([0.5, math.nan, -1.0], params)

    def test_cdf_keeps_its_bits_at_nonnegative_z(self):
        params = BcgParams(64, 0.1, 10.0, 2.0)
        z = np.array([0.0, 5e-324, 1e-9, 0.3, 1.0, 7.5, 40.0, 1e300, math.inf])
        unit = (1.0 - 0.1) * (1.0 - np.exp(-z / 2.0)) \
            + 0.1 * (1.0 - np.exp(-(z / 2.0) / (1.0 + 10.0 / 2.0)))
        assert power_cdf(z, params).tolist() == unit.tolist()

    def test_cli_bounds_bracket_a_tiny_n0(self, tmp_path):
        out = tmp_path / "b.csv"
        assert cli_main(["bounds", "--n0", "1e-20", "--p", "0.1", "--snr-db", "0",
                         "--trials", "3", "--summary", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = {r["quantity"]: r for r in csv.DictReader(fh)}
        assert float(rows["lower_bound_n0"]["mean"]) <= 1e-20 \
            <= float(rows["upper_bound_n0"]["mean"])
        assert json.loads(rows["median_exact"]["extra"])["violation"] is False


# the normal floats and every positive finite float
NORMAL = st.floats(sys.float_info.min, sys.float_info.max)
POSITIVE = st.floats(0.0, sys.float_info.max, exclude_min=True)


class TestFiniteOrValueError:
    @settings(max_examples=300, deadline=None, database=None)
    @given(n0=NORMAL, eh=POSITIVE, p=st.floats(0.0, 1.0, exclude_min=True))
    def test_model_and_certificate(self, n0, eh, p):
        """A model is rejected, or its CDF, median and bounds are finite and
        the certificate brackets N0 where it applies. Subnormal N0 is left
        out: N0 times the unit model's median loses precision there."""
        try:
            params = BcgParams(dim=64, activity_rate=p, active_power=eh, noise_power=n0)
            chk = theorem1_bounds(params)
        except ValueError:
            return
        assert math.isfinite(params.snr)
        assert np.isfinite(power_cdf([0.0, chk.median_exact, sys.float_info.max],
                                     params)).all()
        assert math.isfinite(exact_power_median(params))
        bounds = (chk.median_exact, chk.lower_bound_n0, chk.upper_bound_n0,
                  chk.lemma3_ub, chk.lemma4_lb)
        assert all(map(math.isfinite, bounds))
        assert math.isfinite(chk.lemma2_ub) or (p >= 0.5 and math.isnan(chk.lemma2_ub))
        if chk.condition_p_ok:
            assert chk.lower_bound_n0 <= n0 * (1.0 + 1e-10)
            assert chk.upper_bound_n0 >= n0 * (1.0 - 1e-10)


class TestTheoremBounds:
    def test_activity_rate_limit_value(self):
        assert ACTIVITY_RATE_LIMIT == pytest.approx(0.4217, abs=5e-4)

    def test_condition_flag_flips_at_limit(self):
        below = theorem1_bounds(bcg_params(64, ACTIVITY_RATE_LIMIT - 1e-6, 1.0))
        above = theorem1_bounds(bcg_params(64, ACTIVITY_RATE_LIMIT + 1e-6, 1.0))
        assert below.condition_p_ok and not above.condition_p_ok

    def test_bounds_collapse_for_sparse_signals(self):
        chk = theorem1_bounds(bcg_params(64, 1e-12, 1.0))
        assert chk.upper_bound_n0 - chk.lower_bound_n0 <= 1e-9
        assert chk.lower_bound_n0 == pytest.approx(chk.median_exact / LOG2, rel=1e-9)

    def test_bounds_collapse_at_vanishing_snr(self):
        chk = theorem1_bounds(bcg_params(64, 0.1, 1e-9))
        assert chk.upper_bound_n0 - chk.lower_bound_n0 <= 1e-8
        assert chk.lower_bound_n0 == pytest.approx(chk.median_exact / LOG2, rel=1e-8)

    def test_lemma2_undefined_above_half(self):
        chk = theorem1_bounds(bcg_params(64, 0.6, 1.0))
        assert math.isnan(chk.lemma2_ub)
        assert not chk.condition_p_ok
        # the remaining upper bound still applies
        assert chk.median_exact <= chk.lemma3_ub

    def test_median_bound_ordering(self):
        for p in (0.01, 0.1, 0.3, 0.42):
            for snr in (0.01, 1.0, 100.0):
                chk = theorem1_bounds(bcg_params(64, p, snr))
                assert chk.lemma4_lb <= chk.median_exact + 1e-12
                assert chk.median_exact <= chk.lemma3_ub + 1e-12
                if p < 0.5:
                    assert chk.median_exact <= chk.lemma2_ub + 1e-12

    def test_pessimism_chain(self):
        # the certificate's upper end never exceeds median/log2, the
        # plain blind estimate
        for p in (0.01, 0.1, 0.4):
            for snr in (0.01, 1.0, 100.0):
                chk = theorem1_bounds(bcg_params(64, p, snr))
                assert chk.upper_bound_n0 <= chk.median_exact / LOG2 + 1e-12


class TestVerifySandwich:
    def test_reference_grid_has_no_violations(self):
        grid = [bcg_params(64, p, snr)
                for p in (0.01, 0.05, 0.1, 0.2, 0.4)
                for snr in (0.01, 0.1, 1.0, 10.0, 100.0)]
        report = verify_sandwich(grid)
        assert report.max_violation <= 1e-10
        assert len(report.checks) == 25

    def test_single_point(self):
        report = verify_sandwich([bcg_params(64, 0.1, 1.0)])
        chk = report.checks[0]
        assert chk.lower_bound_n0 <= 1.0 <= chk.upper_bound_n0

    def test_near_limit_point(self):
        report = verify_sandwich([bcg_params(64, 0.42, 100.0)])
        assert report.max_violation <= 1e-10

    def test_rejects_grid_point_beyond_limit(self):
        with pytest.raises(ValueError):
            verify_sandwich([bcg_params(64, 0.45, 1.0)])

    def test_violation_error_type_exists(self):
        assert issubclass(BoundViolationError, RuntimeError)

    def test_a_bracket_that_misses_n0_raises(self, monkeypatch):
        monkeypatch.setattr(theory, "theorem1_bounds", _missing_n0)
        with pytest.raises(BoundViolationError):
            verify_sandwich([bcg_params(64, 0.1, 1.0)])

    def test_cli_flags_a_bracket_that_misses_n0(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "theorem1_bounds", _missing_n0)
        out = tmp_path / "b.csv"
        assert cli_main(["bounds", "--p", "0.1", "--snr-db", "0", "--trials", "2",
                         "--summary", "--out", str(out)]) == 3
        with open(out) as fh:
            extras = {r["extra"] for r in csv.DictReader(fh)}
        assert extras == {'{"condition_p_ok":true,"violation":true}'}


def _missing_n0(params):
    """The certificate with its bracket moved to [2 N0, 3 N0]."""
    n0 = params.noise_power
    return dataclasses.replace(theorem1_bounds(params), lower_bound_n0=2.0 * n0,
                               upper_bound_n0=3.0 * n0, violation=1.0)
