"""Beamspace transform, synthetic channels, QAM mapping, and the pipelines."""

import math
from unittest import mock

import numpy as np
import pytest

from blindsnr import (
    ChannelConfig,
    ComplexVector,
    RngStream,
    beamspace,
    ber_by_points,
    ber_by_variant,
    gen_los_channel,
    inverse_beamspace,
    mse_by_points,
    mse_by_variant,
    search_threshold,
    soft_threshold,
)
from blindsnr import core
from blindsnr.channel import VARIANTS, qam16_demodulate, qam16_modulate
from blindsnr.cli import SweepConfig


def power(a):
    return a.real ** 2 + a.imag ** 2


class TestConfigValidation:
    def test_defaults(self):
        cfg = ChannelConfig()
        assert cfg.antennas == 128 and cfg.users == 8
        assert cfg.paths_per_user == 2
        # the CLI's channel runs take their shape from the same defaults
        sweep = SweepConfig("channel_mse")
        assert (sweep.dim, sweep.users, sweep.paths_per_user) \
            == (cfg.antennas, cfg.users, cfg.paths_per_user)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            ChannelConfig(antennas=96)

    def test_variant_validation(self):
        cfg = ChannelConfig(antennas=16, users=2)
        for run in (mse_by_variant, ber_by_variant):
            with pytest.raises(ValueError):
                run(cfg, ("beaches_blind", "magic"), 0.0, 1, RngStream(0))
            with pytest.raises(ValueError):
                run(cfg, (), 0.0, 1, RngStream(0))
            with pytest.raises(ValueError):
                run(cfg, ("ml",), 0.0, 0, RngStream(0))
            assert list(run(cfg, ("beaches_blind",), 0.0, 1, RngStream(0))) == [
                "beaches_blind"]

    def test_em_variant_needs_two_antennas(self):
        cfg = ChannelConfig(antennas=1, users=1, paths_per_user=1)
        for run in (mse_by_variant, ber_by_variant):
            with pytest.raises(ValueError, match="beaches_em"):
                run(cfg, ("ml", "beaches_em"), 0.0, 2, RngStream(0))
            for variants in (("ml",), ("beaches_blind",)):
                assert list(run(cfg, variants, 0.0, 2, RngStream(0))) == list(variants)


class TestSteeringAndBeamspace:
    def test_broadside_is_all_ones_and_one_sparse(self):
        # the ULA response exp(i pi d sin 0) at broadside is all ones, and
        # its beamspace is a single bin of height sqrt(16)
        x = beamspace(np.ones(16))
        expected = np.zeros(16, dtype=complex)
        expected[0] = 4.0
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_rows_are_gain_weighted_steering_sums(self):
        cfg = ChannelConfig(antennas=32, users=3, paths_per_user=2)
        h = gen_los_channel(cfg, RngStream(89, 4))
        # the same draws, in the order gen_los_channel makes them
        g = RngStream(89, 4).gen
        thetas = g.uniform(-math.pi / 2, math.pi / 2, (3, 2))
        alphas = (g.standard_normal((3, 2)) + 1j * g.standard_normal((3, 2))) \
            * math.sqrt(0.5 / 2.0)  # equal path powers, 1/2 each
        for u in range(3):
            expected = sum(alphas[u, k] * np.exp(1j * math.pi * np.sin(thetas[u, k])
                                                 * np.arange(32))
                           for k in range(2))
            np.testing.assert_allclose(h[u], expected, atol=1e-13)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(90)
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        back = inverse_beamspace(beamspace(h))
        np.testing.assert_allclose(back, h, atol=1e-12)

    def test_batched_rows_equal_single_rows(self):
        rng = np.random.default_rng(88)
        h = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        x = beamspace(h)
        back = inverse_beamspace(x)
        for row in range(5):
            np.testing.assert_array_equal(x[row], beamspace(h[row]))
            np.testing.assert_array_equal(back[row], inverse_beamspace(x[row]))

    def test_unit_basis_maps_to_flat_phase(self):
        x = beamspace([1.0] + [0.0] * 15)
        np.testing.assert_allclose(np.abs(x), np.full(16, 1 / 4.0), atol=1e-12)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            h = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            x = beamspace(h)
            assert abs(float(power(x).sum()) - float(power(h).sum())) <= 1e-10

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            beamspace(np.ones(12))
        with pytest.raises(ValueError):
            inverse_beamspace(np.ones((2, 12)))

    def test_non_finite_rejected(self):
        for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.nan)):
            h = np.ones((2, 16), dtype=complex)
            h[1, 3] = bad
            with pytest.raises(ValueError):
                beamspace(h)
            with pytest.raises(ValueError):
                inverse_beamspace(h)

    def test_channel_power_normalization(self):
        cfg = ChannelConfig(antennas=128, users=8, paths_per_user=2)
        total = 0.0
        trials = 400
        for t in range(trials):
            for h in gen_los_channel(cfg, RngStream(92, t)):
                total += float(power(h).sum()) / cfg.antennas
        assert abs(total / (trials * cfg.users) - 1.0) <= 0.05

    def test_two_path_beamspace_concentration(self):
        # median over trials of the energy share of the 8 strongest bins
        cfg = ChannelConfig(antennas=128, users=1, paths_per_user=2)
        fracs = []
        for t in range(1000):
            h = gen_los_channel(cfg, RngStream(93, t))[0]
            e = power(beamspace(h))
            s = np.sort(e)[::-1]
            fracs.append(s[:8].sum() / e.sum())
        assert np.median(fracs) >= 0.9


class TestQam:
    def test_roundtrip_all_symbols(self):
        bits = np.array([[b0, b1, b2, b3]
                         for b0 in (0, 1) for b1 in (0, 1)
                         for b2 in (0, 1) for b3 in (0, 1)])
        symbols = qam16_modulate(bits)
        assert np.unique(symbols).size == 16
        np.testing.assert_allclose(np.mean(np.abs(symbols) ** 2), 1.0, atol=1e-12)
        np.testing.assert_array_equal(qam16_demodulate(symbols), bits)

    def test_gray_adjacency(self):
        # neighboring levels on one axis differ in exactly one bit
        levels = np.array([-3.0, -1.0, 1.0, 3.0]) / math.sqrt(10.0)
        bits = qam16_demodulate(levels + 1j * levels[0])
        for a, b in zip(bits[:-1, :2], bits[1:, :2]):
            assert int(np.sum(a != b)) == 1


class TestDenoisePipeline:
    CFG = ChannelConfig(antennas=128, users=8, paths_per_user=2)

    def test_perfect_csi_zero_mse(self):
        res = mse_by_variant(self.CFG, ("perfect_csi",), 0.0, 20, RngStream(94))
        assert res["perfect_csi"]["channel_mse"] == 0.0

    def test_ml_mse_matches_noise_power(self):
        trials = 300
        res = mse_by_variant(self.CFG, ("ml",), 0.0, trials, RngStream(95))["ml"]
        # |error|^2 per entry is exponential(n0): se of the mean follows
        se = 1.0 / math.sqrt(trials * self.CFG.users * self.CFG.antennas)
        assert abs(res["channel_mse"] - 1.0) <= 3 * se * 1.0 * 2

    def test_one_sparse_denoising_gain_at_zero_db(self):
        # exactly one strong beamspace bin: thresholding removes most of
        # the noise, landing far below the trivial estimate's n0
        d, n0 = 128, 1.0
        rng = np.random.default_rng(96)
        mses = []
        for _ in range(300):
            x = np.zeros(d, dtype=complex)
            x[rng.integers(d)] = math.sqrt(d)
            w = math.sqrt(n0 / 2) * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            y = ComplexVector((x + w).real, (x + w).imag)
            found = search_threshold(y, n0)
            err = soft_threshold(y, found.tau_star).values - x
            mses.append(float((err.real ** 2 + err.imag ** 2).sum()) / d)
        assert np.mean(mses) < 0.5 * n0

    def test_blind_tracks_known_at_low_and_mid_snr(self):
        base = RngStream(97)
        for snr_db in (-10.0, 0.0):
            res = mse_by_variant(self.CFG, ("beaches_known_n0", "beaches_blind"),
                                 snr_db, 300, base)
            known = res["beaches_known_n0"]["channel_mse"]
            blind = res["beaches_blind"]["channel_mse"]
            assert abs(blind - known) / known <= 0.10

    def test_em_variant_runs_and_is_reasonable(self):
        res = mse_by_variant(self.CFG, ("beaches_em", "ml"), 0.0, 100, RngStream(98))
        assert 0.0 < res["beaches_em"]["channel_mse"] < res["ml"]["channel_mse"]

    def test_deterministic_given_stream(self):
        a = mse_by_variant(self.CFG, ("beaches_blind",), 0.0, 30, RngStream(99))
        b = mse_by_variant(self.CFG, ("beaches_blind",), 0.0, 30, RngStream(99))
        assert a == b

    def test_variant_result_independent_of_companions(self):
        alone = mse_by_variant(self.CFG, ("beaches_em",), 10.0, 5, RngStream(87))
        together = mse_by_variant(self.CFG, VARIANTS[::-1], 10.0, 5, RngStream(87))
        assert alone["beaches_em"] == together["beaches_em"]


class TestBer:
    CFG = ChannelConfig(antennas=128, users=8, paths_per_user=2)

    def test_perfect_csi_high_snr(self):
        res = ber_by_variant(self.CFG, ("perfect_csi",), 30.0, 1000, RngStream(100))
        assert res["perfect_csi"]["ber"] < 1e-3

    def test_monotone_in_snr(self):
        base = RngStream(101)
        bers = [ber_by_variant(self.CFG, ("ml",), snr, 400, base)["ml"]["ber"]
                for snr in (0.0, 10.0, 20.0)]
        bits = 400 * 4 * self.CFG.users
        for lo_snr, hi_snr in zip(bers[1:], bers[:-1]):
            se = math.sqrt(max(hi_snr * (1 - hi_snr), 1e-12) / bits)
            assert lo_snr <= hi_snr + se

    def test_variant_ordering_at_ten_db(self):
        base = RngStream(102)
        res = ber_by_variant(self.CFG, ("perfect_csi", "beaches_blind", "ml"),
                             10.0, 400, base)
        out = {v: r["ber"] for v, r in res.items()}
        assert out["perfect_csi"] <= out["beaches_blind"] <= out["ml"]

    def test_deterministic_given_stream(self):
        a = ber_by_variant(self.CFG, ("ml",), 10.0, 50, RngStream(103))
        b = ber_by_variant(self.CFG, ("ml",), 10.0, 50, RngStream(103))
        assert a == b

    def test_variant_result_independent_of_companions(self):
        alone = ber_by_variant(self.CFG, ("beaches_blind",), 0.0, 20, RngStream(86))
        together = ber_by_variant(self.CFG, VARIANTS, 0.0, 20, RngStream(86))
        assert alone["beaches_blind"] == together["beaches_blind"]


class TestStackedPoints:
    """Every SNR point and every trial of a block run on one stacked array;
    the results must be those of one point, and of one trial, at a time."""

    SNRS = (-10.0, 0.0, 7.5, 30.0)

    @pytest.mark.parametrize("antennas,users", [(2, 1), (2, 2), (32, 1), (32, 3)])
    @pytest.mark.parametrize("points,one", [(mse_by_points, mse_by_variant),
                                            (ber_by_points, ber_by_variant)])
    def test_points_equal_one_point_calls(self, antennas, users, points, one):
        cfg = ChannelConfig(antennas=antennas, users=users, paths_per_user=2)
        stacked = points(cfg, VARIANTS, self.SNRS, 5, RngStream(85))
        assert stacked == [one(cfg, VARIANTS, snr, 5, RngStream(85)) for snr in self.SNRS]

    @pytest.mark.parametrize("points", [mse_by_points, ber_by_points])
    def test_independent_of_block_size(self, points):
        cfg = ChannelConfig(antennas=32, users=3, paths_per_user=2)
        per_trial = len(self.SNRS) * cfg.users * cfg.antennas
        found = []
        # one block of 3 trials, then blocks of 1 trial, then of 2 and 1
        for entries in (core._BLOCK_ENTRIES, 1, 2 * per_trial):
            with mock.patch.object(core, "_BLOCK_ENTRIES", entries):
                found.append(points(cfg, VARIANTS, self.SNRS, 3, RngStream(84)))
        assert found[1] == found[0] and found[2] == found[0]

    def test_rejects_empty_points(self):
        cfg = ChannelConfig(antennas=16, users=2)
        for points in (mse_by_points, ber_by_points):
            with pytest.raises(ValueError):
                points(cfg, ("ml",), (), 1, RngStream(0))
