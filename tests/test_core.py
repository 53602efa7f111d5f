"""Sampling distributions, vector ops, and reproducibility of the core types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsnr import (
    LOG2,
    BcgParams,
    ComplexVector,
    OpCounter,
    RngStream,
    abs_squared,
    add,
    sample_bcg,
    sample_median,
    sample_noise,
)
from blindsnr.core import bcg_rows, draw_trials
from blindsnr.theory import power_cdf

from conftest import bcg_params, draw_observation, empirical_cdf_at


class TestComplexVector:
    def test_re_im_roundtrip(self):
        v = ComplexVector([1.0, -2.0], [0.5, 3.0])
        np.testing.assert_array_equal(v.re, [1.0, -2.0])
        np.testing.assert_array_equal(v.im, [0.5, 3.0])
        assert v.dim == 2 and len(v) == 2

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            ComplexVector([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            ComplexVector([], [])
        with pytest.raises(ValueError):
            ComplexVector([np.nan], [0.0])
        with pytest.raises(ValueError):
            ComplexVector([1.0], [np.inf])


class TestBcgParams:
    def test_derived_quantities(self):
        p = BcgParams(dim=64, activity_rate=0.1, active_power=10.0, noise_power=1.0)
        assert p.signal_power == pytest.approx(1.0)
        assert p.snr == pytest.approx(1.0)
        assert p.expected_sparsity == pytest.approx(6.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BcgParams(64, 0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            BcgParams(64, 1.5, 10.0, 1.0)
        with pytest.raises(ValueError):
            BcgParams(64, 0.1, -1.0, 1.0)
        with pytest.raises(ValueError):
            BcgParams(64, 0.1, math.inf, 1.0)
        with pytest.raises(ValueError):
            BcgParams(0, 0.1, 10.0, 1.0)


class TestSampleBcg:
    def test_all_active_power(self):
        # p=1: every entry active, so mean |s|^2 estimates the active power.
        params = BcgParams(dim=200_000, activity_rate=1.0, active_power=2.0,
                           noise_power=1.0)
        s = sample_bcg(params, RngStream(7))
        power = abs_squared(s)
        se = power.std() / math.sqrt(power.size)
        assert abs(power.mean() - 2.0) <= 3 * se

    def test_degenerate_sparsity_gives_zero_vector(self):
        params = BcgParams(dim=64, activity_rate=1e-9, active_power=5.0,
                           noise_power=1.0)
        s = sample_bcg(params, RngStream(11))
        assert np.all(s.values == 0)

    def test_activity_count_matches_binomial_mean(self):
        # D=64, p=0.1: expected nonzero count 6.4; the mean count over
        # 10000 trials stays within 3 binomial standard errors (+-0.2).
        params = BcgParams(dim=64, activity_rate=0.1, active_power=10.0,
                           noise_power=1.0)
        counts = [np.count_nonzero(sample_bcg(params, RngStream(2, t)).values)
                  for t in range(10_000)]
        assert 6.2 <= np.mean(counts) <= 6.6


class TestSampleNoise:
    def test_mean_power(self):
        z = abs_squared(sample_noise(1.0, 10**6, RngStream(3)))
        assert abs(z.mean() - 1.0) <= 0.003

    def test_median_is_n0_log2(self):
        z = abs_squared(sample_noise(1.0, 10**6, RngStream(4)))
        med = sample_median(z, method="full_sort").value
        assert abs(med - LOG2) <= 0.01

    def test_cdf_half_at_median(self):
        z = abs_squared(sample_noise(4.0, 10**6, RngStream(5)))
        assert abs(empirical_cdf_at(z, 4.0 * LOG2) - 0.5) <= 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_noise(0.0, 10, RngStream(0))
        with pytest.raises(ValueError):
            sample_noise(1.0, 0, RngStream(0))
        with pytest.raises(ValueError, match="n0 must be positive and finite"):
            sample_noise(math.inf, 4, RngStream(1))


class TestVectorOps:
    def test_abs_squared_three_four(self):
        v = ComplexVector([3.0], [4.0])
        np.testing.assert_array_equal(abs_squared(v), [25.0])

    def test_add_identity(self):
        s = sample_bcg(BcgParams(32, 0.5, 1.0, 1.0), RngStream(6))
        zero = ComplexVector(np.zeros(32), np.zeros(32))
        np.testing.assert_array_equal(add(s, zero).values, s.values)

    def test_add_length_mismatch(self):
        a = ComplexVector([1.0], [0.0])
        b = ComplexVector([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            add(a, b)

    def test_observed_power_matches_mixture_cdf(self):
        # empirical CDF of |s+n|^2 vs the closed-form two-exponential
        # mixture at three probe points, D=10^6, tolerance 0.005
        params = bcg_params(10**6, 0.1, 10.0)
        s, n, y = _draw(params, seed=8)
        z = abs_squared(y)
        for probe in (0.5, 2.0, 8.0):
            assert abs(empirical_cdf_at(z, probe) - power_cdf(probe, params)) <= 0.005


def _draw(params, seed):
    st = RngStream(seed)
    s = sample_bcg(params, st)
    n = sample_noise(params.noise_power, params.dim, st)
    return s, n, add(s, n)


class TestTrialRows:
    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 50),
           trials=st.integers(1, 9), dim=st.integers(1, 130),
           points=st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(-30.0, 40.0),
                                     st.floats(1e-6, 1e6)), min_size=1, max_size=4))
    def test_rows_equal_per_trial_sampling(self, seed, start, trials, dim, points):
        # one set of draws serves every model point, each bit for bit
        trial_ids = range(start, start + trials)
        draws = draw_trials(seed, trial_ids, dim)
        assert draws.shape == (5, trials, dim)
        for p, snr_db, n0 in points:
            params = bcg_params(dim, p, 10.0 ** (snr_db / 10.0), n0)
            s, n = bcg_rows(params, draws)
            for row, t in enumerate(trial_ids):
                s_ref, n_ref, _ = draw_observation(params, seed, t)
                assert s[row].tobytes() == s_ref.values.tobytes()
                assert n[row].tobytes() == n_ref.values.tobytes()


class TestReproducibility:
    def test_same_key_same_samples(self):
        params = BcgParams(dim=512, activity_rate=0.3, active_power=4.0,
                           noise_power=1.0)
        a = sample_bcg(params, RngStream(99, 5))
        b = sample_bcg(params, RngStream(99, 5))
        np.testing.assert_array_equal(a.values, b.values)
        na = sample_noise(2.0, 512, RngStream(99, 5))
        nb = sample_noise(2.0, 512, RngStream(99, 5))
        np.testing.assert_array_equal(na.values, nb.values)

    def test_distinct_streams_differ(self):
        a = sample_noise(1.0, 64, RngStream(99, 0))
        b = sample_noise(1.0, 64, RngStream(99, 1))
        assert not np.array_equal(a.values, b.values)

    def test_substream_deterministic(self):
        a = sample_noise(1.0, 16, RngStream(1, 2).substream(3))
        b = sample_noise(1.0, 16, RngStream(1, 2).substream(3))
        np.testing.assert_array_equal(a.values, b.values)

    def test_ks_distance_against_closed_form(self):
        # Kolmogorov-Smirnov distance of |y|^2 against the mixture CDF
        params = bcg_params(10**5, 0.1, 1.0)  # p=0.1, Eh=10, N0=1
        _, _, y = _draw(params, seed=12)
        z = np.sort(abs_squared(y))
        cdf = power_cdf(z, params)
        grid = np.arange(1, z.size + 1) / z.size
        ks = max(np.abs(grid - cdf).max(), np.abs(grid - 1 / z.size - cdf).max())
        assert ks < 0.01


class TestOpCounter:
    def test_deterministic_for_fixed_input_and_stream(self):
        x = np.random.default_rng(0).standard_normal(513)
        c1, c2 = OpCounter(), OpCounter()
        sample_median(x, rng=RngStream(42), counter=c1)
        sample_median(x, rng=RngStream(42), counter=c2)
        assert c1 == c2 and c1.comparisons > 0

    def test_reset_and_snapshot(self):
        c = OpCounter(real_adds=3, comparisons=5)
        snap = c.snapshot()
        c.reset()
        assert c.total() == 0 and snap.total() == 8
