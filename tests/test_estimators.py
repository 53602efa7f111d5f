"""The four blind estimators and the genie references."""

import math

import numpy as np
import pytest

from blindsnr import (
    LOG2,
    ComplexVector,
    DenoiserFunction,
    RngStream,
    abs_squared,
    estimate_mse,
    estimate_noise_power,
    estimate_signal_power,
    estimate_snr,
    genie_estimates,
    sample_noise,
    soft_threshold,
)
from blindsnr.estimators import genie_rows
from blindsnr.selection import median_from_sorted
from blindsnr.theory import exact_power_median, n0_bounds_from_median

from conftest import bcg_params, draw_observation, reference_genie


class TestNoisePower:
    def test_pure_noise_exactness(self):
        y = sample_noise(1.0, 10**6, RngStream(21))
        est = estimate_noise_power(y)
        assert abs(est.value - 1.0) <= 0.01

    def test_constant_power_is_exact(self):
        # every |y_d|^2 = log 2 makes the estimate exactly 1 (float sqrt
        # does not round-trip, so the power array is built directly)
        median_z = median_from_sorted(np.full((1, 4), LOG2))
        assert median_z.tolist() == [LOG2]
        assert (median_z / LOG2).tolist() == [1.0]
        # and through a complex vector it is exact to the last ulp
        r = math.sqrt(LOG2)
        y = ComplexVector([r, r, r, r], [0.0] * 4)
        via_vector = estimate_noise_power(y)
        assert via_vector.value == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_power_rejected(self):
        # |y|^2 of a finite entry above about 1.3e154 is inf
        y = ComplexVector([1.0, 1e200, 1.0], [0.0] * 3)
        with pytest.raises(ValueError, match="infinite"):
            estimate_noise_power(y)

    def test_overflowing_power_rejected_by_signal_and_snr(self):
        # a finite D = 8 vector whose |y|^2 sums to inf
        y = ComplexVector([1e200] * 8, [0.0] * 8)
        with pytest.raises(ValueError, match="infinite"):
            estimate_signal_power(y, 1.0)
        with pytest.raises(ValueError, match="infinite"):
            estimate_snr(y, 1.0)

    def test_sample_median_certificate_brackets_true_n0(self):
        # Plugging the sample median into the two-sided certificate must
        # bracket the true noise power; the estimate itself sits at or
        # above the upper end (it is pessimistic by construction).
        params = bcg_params(10**6, 0.1, 1.0)  # p=0.1, Eh=10, N0=1
        _, _, y = draw_observation(params, seed=23, trial=0)
        est = estimate_noise_power(y)
        lower, upper = n0_bounds_from_median(est.median_z, 0.1, 1.0)
        assert lower <= 1.0 <= upper
        assert est.value >= upper  # median/log2 dominates the upper bound
        # and the sample median agrees with the exact one at this size
        assert abs(est.median_z - exact_power_median(params)) <= 0.005


class TestSignalPower:
    def test_arithmetic(self):
        y = ComplexVector([math.sqrt(3.0)] * 4, [0.0] * 4)  # ||y||^2/D = 3
        est = estimate_signal_power(y, 1.0)
        assert est.value == pytest.approx(2.0)

    def test_clipping_branch(self):
        y = ComplexVector([math.sqrt(0.5)] * 4, [0.0] * 4)
        est = estimate_signal_power(y, 1.0)
        assert est.value == 0.0
        assert est.raw == pytest.approx(-0.5)

    def test_pure_noise_estimate_small(self):
        y = sample_noise(1.0, 10**6, RngStream(24))
        n0_hat = estimate_noise_power(y).value
        assert estimate_signal_power(y, n0_hat).value <= 0.02

    def test_rejects_negative_n0(self):
        y = ComplexVector([1.0], [0.0])
        with pytest.raises(ValueError):
            estimate_signal_power(y, -0.1)


class TestSnr:
    def test_trivial_values(self):
        y2 = ComplexVector([math.sqrt(2.0)] * 8, [0.0] * 8)
        assert estimate_snr(y2, 1.0).value == pytest.approx(1.0)
        y1 = ComplexVector([1.0] * 8, [0.0] * 8)
        assert estimate_snr(y1, 1.0).value == 0.0

    def test_zero_noise_rejected(self):
        y = ComplexVector([1.0], [0.0])
        with pytest.raises(ValueError):
            estimate_snr(y, 0.0)

    def test_underestimates_at_moderate_snr(self):
        # p=0.1, true SNR=1, D=64: the noise overestimate drags the mean
        # SNR estimate below the truth.
        params = bcg_params(64, 0.1, 1.0)
        vals = []
        for t in range(3000):
            _, _, y = draw_observation(params, seed=26, trial=t)
            n0_hat = estimate_noise_power(y).value
            vals.append(estimate_snr(y, n0_hat).value)
        assert np.mean(vals) < 1.0

    def test_absolute_bias_vanishes_at_low_snr(self):
        # the pre-clip estimate becomes exact as SNR -> 0: absolute bias
        # shrinks monotonically across SNR = 1, 0.1, 0.01 at D=4096
        biases = []
        for i, snr in enumerate((1.0, 0.1, 0.01)):
            params = bcg_params(4096, 0.1, snr)
            raws = []
            for t in range(300):
                _, _, y = draw_observation(params, seed=28 + i, trial=t)
                n0_hat = estimate_noise_power(y).value
                raws.append(estimate_snr(y, n0_hat).raw)
            biases.append(abs(np.mean(raws) - snr))
        assert biases[0] > biases[1] > biases[2]

    def test_consistency_with_signal_power(self):
        # raw SNR equals raw signal power / n0 up to a few ulps
        params = bcg_params(256, 0.2, 2.0)
        for t in range(50):
            _, _, y = draw_observation(params, seed=30, trial=t)
            n0_hat = estimate_noise_power(y).value
            raw_snr = estimate_snr(y, n0_hat).raw
            raw_es = estimate_signal_power(y, n0_hat).raw
            scale = max(1.0, abs(raw_snr))
            assert abs(raw_snr - raw_es / n0_hat) <= 8 * np.spacing(scale)

    def test_clipped_values_never_negative(self):
        params = bcg_params(32, 0.5, 0.05)
        for t in range(200):
            _, _, y = draw_observation(params, seed=32, trial=t)
            assert estimate_signal_power(y, 5.0).value >= 0.0
            assert estimate_snr(y, 5.0).value >= 0.0


class TestMse:
    def test_identity_recovers_noise_power(self):
        _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=33, trial=0)
        est = estimate_mse(y, DenoiserFunction.identity(), 0.7)
        assert est.raw_sure == 0.7
        assert est.divergence_sum == 2.0 * 64

    def test_zero_map(self):
        _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=34, trial=0)
        est = estimate_mse(y, DenoiserFunction.zero(), 0.7)
        expected = float(abs_squared(y).sum()) / 64 - 0.7
        assert est.raw_sure == pytest.approx(expected, rel=1e-14)
        assert est.divergence_sum == 0.0

    def test_soft_threshold_tau_zero_matches_identity(self):
        _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=35, trial=0)
        est = estimate_mse(y, DenoiserFunction.soft(0.0), 0.7)
        assert est.raw_sure == pytest.approx(0.7, rel=1e-14)

    def test_nan_divergence_rejected(self):
        class BrokenDenoiser:
            def evaluate(self, y):
                return y

            def divergence(self, y):
                out = np.full(y.dim, 2.0)
                out[0] = np.nan
                return out

        _, _, y = draw_observation(bcg_params(16, 0.5, 1.0), seed=36, trial=0)
        with pytest.raises(ValueError):
            estimate_mse(y, BrokenDenoiser(), 1.0)


class TestGenie:
    def test_zero_signal(self):
        zero = ComplexVector(np.zeros(16), np.zeros(16))
        n = sample_noise(1.0, 16, RngStream(37))
        rep = genie_estimates(zero, n, n, DenoiserFunction.identity())
        assert rep.es_bar == 0.0 and rep.snr_bar == 0.0

    def test_noise_scaling_is_quadratic(self):
        s, n, _ = draw_observation(bcg_params(64, 0.1, 10.0), seed=38, trial=0)
        n2 = ComplexVector(2.0 * n.re, 2.0 * n.im)
        f = DenoiserFunction.identity()
        base = genie_estimates(s, n, ComplexVector.from_complex(s.values + n.values), f)
        scaled = genie_estimates(s, n2, ComplexVector.from_complex(s.values + n2.values), f)
        assert scaled.n0_bar == 4.0 * base.n0_bar

    def test_identity_error_equals_noise_power(self):
        s, n, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=39, trial=0)
        rep = genie_estimates(s, n, y, DenoiserFunction.identity())
        assert rep.e0_bar == pytest.approx(rep.n0_bar, rel=1e-12)

    def test_dimension_mismatch(self):
        a = ComplexVector([1.0], [0.0])
        b = ComplexVector([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            genie_estimates(a, b, b, DenoiserFunction.identity())

    def test_zero_noise_rejected(self):
        s, n, y = draw_observation(bcg_params(8, 0.5, 1.0), seed=41, trial=0)
        zero = ComplexVector(np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            genie_estimates(s, zero, s, DenoiserFunction.identity())
        with pytest.raises(ValueError):
            genie_rows(np.stack((s.values, s.values)), np.stack((n.values, zero.values)),
                       np.stack((y.values, y.values)))

    def test_rows_equal_per_vector_sums(self):
        params = bcg_params(37, 0.2, 3.0)
        trials = [draw_observation(params, seed=40, trial=t) for t in range(6)]
        taus = [0.0, 0.5, 1.0, 2.0, 5.0, 100.0]
        fy = np.stack([soft_threshold(y, tau).values for (_, _, y), tau in zip(trials, taus)])
        rows = genie_rows(np.stack([s.values for s, _, _ in trials]),
                          np.stack([n.values for _, n, _ in trials]), fy)
        for k, ((s, n, y), tau) in enumerate(zip(trials, taus)):
            ref = reference_genie(s, n, y, tau)
            assert tuple(a[k] for a in rows) == ref
            rep = genie_estimates(s, n, y, DenoiserFunction.soft(tau))
            assert (rep.es_bar, rep.n0_bar, rep.snr_bar, rep.e0_bar) == ref


class TestDirectionalBias:
    def test_noise_overestimated_snr_underestimated(self):
        # D=4096, p=0.1, SNR=10 (reduced-trials version of the acceptance
        # run): noise power lands above truth, SNR below
        params = bcg_params(4096, 0.1, 10.0)
        n0s, snrs = [], []
        for t in range(200):
            _, _, y = draw_observation(params, seed=40, trial=t)
            est = estimate_noise_power(y)
            n0s.append(est.value)
            snrs.append(estimate_snr(y, est.value).value)
        assert np.mean(n0s) >= 1.0
        assert np.mean(snrs) <= 10.0

    def test_exactness_limits(self):
        # very sparse at high SNR, and dense at very low SNR: within 2%
        for seed, (p, snr) in enumerate(((0.001, 10.0), (0.1, 0.01)), start=42):
            params = bcg_params(4096, p, snr)
            n0s = []
            for t in range(300):
                _, _, y = draw_observation(params, seed=seed, trial=t)
                n0s.append(estimate_noise_power(y).value)
            assert abs(np.mean(n0s) - 1.0) < 0.02


class TestSureAgainstGenie:
    def test_unbiasedness_short(self):
        # fixed tau and the true noise power: mean SURE tracks the mean
        # genie error (3 combined standard errors, 2000 trials)
        params = bcg_params(64, 0.1, 10.0)
        f = DenoiserFunction.soft(1.0)
        sure_vals, genie_vals = [], []
        for t in range(2000):
            s, n, y = draw_observation(params, seed=44, trial=t)
            sure_vals.append(estimate_mse(y, f, 1.0).raw_sure)
            genie_vals.append(genie_estimates(s, n, y, f).e0_bar)
        sure_vals, genie_vals = np.array(sure_vals), np.array(genie_vals)
        se = math.sqrt(sure_vals.var(ddof=1) / sure_vals.size
                       + genie_vals.var(ddof=1) / genie_vals.size)
        assert abs(sure_vals.mean() - genie_vals.mean()) <= 3 * se

    def test_per_trial_gap_shrinks_with_dimension(self):
        f = DenoiserFunction.soft(1.0)
        gaps = {}
        for d in (64, 16384):
            params = bcg_params(d, 0.1, 10.0)
            g = []
            for t in range(200):
                s, n, y = draw_observation(params, seed=45, trial=t)
                sure = estimate_mse(y, f, 1.0).raw_sure
                g.append(abs(sure - genie_estimates(s, n, y, f).e0_bar))
            gaps[d] = np.median(g)
        assert gaps[16384] < gaps[64]
