"""Soft thresholding, its risk estimate, the adaptive threshold search, and the
row kernels against the per-vector code they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsnr import (
    ComplexVector,
    DenoiserFunction,
    RngStream,
    abs_squared,
    blind_report,
    denoise_blind,
    estimate_mse,
    genie_estimates,
    sample_noise,
    search_threshold,
    soft_threshold,
    sure_of_threshold,
)
from blindsnr.sure import blind_rows, denoise_blind_rows, search_rows, soft_threshold_rows

from conftest import bcg_params, draw_observation, reference_blind


def grid_sure_min(y, n0, npts=100_000, tau_max=None):
    """Brute-force oracle: the direct risk formula on a dense uniform grid."""
    z = abs_squared(y)
    r = np.sqrt(z)
    d = z.size
    taus = np.linspace(0.0, r.max() if tau_max is None else tau_max, npts)
    best = np.inf
    for i in range(0, npts, 20_000):
        t = taus[i:i + 20_000, None]
        above = r[None, :] > t
        term1 = np.minimum(z[None, :], t * t).sum(axis=1) / d
        div = np.where(above, 2.0 - t / r[None, :], 0.0).sum(axis=1)
        best = min(best, float((term1 - n0 + n0 * div / d).min()))
    return best


class TestSoftThreshold:
    def test_boundary_entry_shrinks_to_zero(self):
        out = soft_threshold(ComplexVector([3.0], [4.0]), 5.0)
        np.testing.assert_array_equal(out.values, [0.0 + 0.0j])

    def test_real_axis_shrinkage(self):
        out = soft_threshold(ComplexVector([3.0], [0.0]), 1.0)
        np.testing.assert_allclose(out.values, [2.0 + 0.0j], atol=1e-15)

    def test_zero_maps_to_zero(self):
        out = soft_threshold(ComplexVector([0.0], [0.0]), 2.5)
        np.testing.assert_array_equal(out.values, [0.0 + 0.0j])

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(ComplexVector([1.0], [0.0]), -0.1)

    def test_non_expansive(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            d = int(rng.integers(1, 64))
            y = ComplexVector(rng.standard_normal(d), rng.standard_normal(d))
            tau = float(rng.uniform(0, 3))
            out = soft_threshold(y, tau)
            assert np.linalg.norm(out.values) <= np.linalg.norm(y.values) + 1e-12

    def test_phase_preserved(self):
        y = ComplexVector([1.0, -2.0], [2.0, 0.5])
        out = soft_threshold(y, 0.5)
        kept = np.abs(out.values) > 0
        np.testing.assert_allclose(np.angle(out.values[kept]),
                                   np.angle(y.values[kept]), atol=1e-12)


class TestDenoiserFunction:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DenoiserFunction("magic")
        with pytest.raises(ValueError):
            DenoiserFunction("soft_threshold")  # tau required
        with pytest.raises(ValueError):
            DenoiserFunction("identity", tau=1.0)

    def test_identity_and_zero_divergence(self):
        y = ComplexVector([1.0, 2.0], [0.0, 1.0])
        np.testing.assert_array_equal(DenoiserFunction.identity().divergence(y), [2.0, 2.0])
        np.testing.assert_array_equal(DenoiserFunction.zero().divergence(y), [0.0, 0.0])

    def test_soft_divergence_formula(self):
        y = ComplexVector([3.0, 0.1], [4.0, 0.0])
        div = DenoiserFunction.soft(1.0).divergence(y)
        np.testing.assert_allclose(div, [2.0 - 1.0 / 5.0, 0.0])

    def test_divergence_matches_finite_differences(self):
        # central differences on Re and Im separately, away from the kink
        rng = np.random.default_rng(51)
        h = 1e-6
        checked = 0
        while checked < 200:
            re, im = rng.standard_normal(), rng.standard_normal()
            tau = float(rng.uniform(0, 2))
            r = math.hypot(re, im)
            if abs(r - tau) < 1e-5:
                continue
            f = DenoiserFunction.soft(tau)

            def ev(a, b):
                return f.evaluate(ComplexVector([a], [b])).values[0]

            num = ((ev(re + h, im).real - ev(re - h, im).real) / (2 * h)
                   + (ev(re, im + h).imag - ev(re, im - h).imag) / (2 * h))
            ana = f.divergence(ComplexVector([re], [im]))[0]
            assert abs(num - ana) <= 1e-4
            checked += 1


class TestSureOfThreshold:
    def test_hand_value(self):
        # entries 1 and 2, tau=1.5, n0=1:
        # (1 + 2.25)/2 - 1 + (1/2)(2 - 1.5/2) = 1.25
        y = ComplexVector([1.0, 2.0], [0.0, 0.0])
        assert sure_of_threshold(y, 1.5, 1.0) == 1.25

    def test_tau_zero_is_identity_case(self):
        _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=52, trial=0)
        assert sure_of_threshold(y, 0.0, 0.8) == pytest.approx(0.8, rel=1e-14)

    def test_large_tau_is_zero_map(self):
        _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=53, trial=0)
        expected = float(abs_squared(y).sum()) / 64 - 0.8
        tau = float(np.abs(y.values).max()) + 1.0
        assert sure_of_threshold(y, tau, 0.8) == pytest.approx(expected, rel=1e-14)

    def test_agrees_with_generic_risk_estimator(self):
        rng = np.random.default_rng(54)
        for t in range(50):
            _, _, y = draw_observation(bcg_params(128, 0.1, 10.0), seed=55, trial=t)
            tau = float(rng.uniform(0, 4))
            n0 = float(rng.uniform(0.1, 3))
            closed = sure_of_threshold(y, tau, n0)
            generic = estimate_mse(y, DenoiserFunction.soft(tau), n0).raw_sure
            assert closed == pytest.approx(generic, rel=1e-12, abs=1e-12)

    def test_jump_at_breakpoints_is_one_divergence_quantum(self):
        # Crossing a sorted magnitude from below drops the risk estimate by
        # exactly n0/D (the crossing entry's divergence falls from ~1 to 0);
        # within a piece the function is continuous. The discontinuity
        # therefore vanishes as D grows but not as eps -> 0 at fixed D.
        _, _, y = draw_observation(bcg_params(4096, 0.1, 10.0), seed=56, trial=0)
        n0 = 1.0
        d = y.dim
        rs = np.sort(np.sqrt(abs_squared(y)))
        rng = np.random.default_rng(57)
        checked = 0
        while checked < 10:
            idx = int(rng.integers(100, d - 100))
            r = rs[idx]
            # keep other magnitudes out of the probing window
            if r - rs[idx - 1] < 1e-5 or rs[idx + 1] - r < 1e-5:
                continue
            for eps in (1e-6, 1e-8):
                gap = (sure_of_threshold(y, r - eps, n0)
                       - sure_of_threshold(y, r + eps, n0))
                assert abs(gap - n0 / d) <= 1e-6 + 100.0 * eps
            # and continuity away from the breakpoints
            mid = 0.5 * (rs[idx] + rs[idx + 1])
            smooth = abs(sure_of_threshold(y, mid + 1e-9, n0)
                         - sure_of_threshold(y, mid - 1e-9, n0))
            assert smooth <= 1e-7
            checked += 1


class TestSearchThreshold:
    def test_pure_noise_beats_identity(self):
        y = sample_noise(1.0, 256, RngStream(58))
        found = search_threshold(y, 1.0)
        assert found.tau_star > 0.0
        assert found.sure_at_tau <= sure_of_threshold(y, 0.0, 1.0)

    def test_huge_entry_not_shrunk_to_zero(self):
        n = sample_noise(1.0, 63, RngStream(59))
        y = ComplexVector(np.concatenate((n.re, [100.0])),
                          np.concatenate((n.im, [0.0])))
        found = search_threshold(y, 1.0)
        assert found.tau_star < 10.0
        denoised = soft_threshold(y, found.tau_star)
        assert np.abs(denoised.values).max() >= 100.0 - found.tau_star > 0.0
        # grid oracle over [0, 100] confirms the search found the optimum
        assert found.sure_at_tau <= grid_sure_min(y, 1.0, tau_max=100.0) + 1e-9

    def test_never_worse_than_grid_and_jump_bounded(self):
        # The exact minimizer sits on a sorted magnitude (the risk drops by
        # n0/D exactly there), which a uniform grid straddles; the search
        # must never be worse than the grid, and the grid can exceed the
        # search only by the local slope times one grid step.
        for t in range(50):
            _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=60, trial=t)
            found = search_threshold(y, 1.0)
            gmin = grid_sure_min(y, 1.0)
            assert found.sure_at_tau <= gmin + 1e-9
            assert gmin - found.sure_at_tau <= 1e-3

    def test_sure_at_tau_matches_direct_evaluation(self):
        for t in range(20):
            _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=61, trial=t)
            found = search_threshold(y, 0.7)
            direct = sure_of_threshold(y, found.tau_star, 0.7)
            assert found.sure_at_tau == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_minimal_over_all_candidates(self):
        # every candidate the search examines: 0, D clamped stationary
        # points, and the zero-map threshold
        _, _, y = draw_observation(bcg_params(32, 0.1, 10.0), seed=62, trial=0)
        found = search_threshold(y, 1.0)
        assert found.candidates_evaluated == 32 + 2
        rs = np.sort(np.sqrt(abs_squared(y)))
        for tau in np.concatenate(([0.0], rs)):
            assert found.sure_at_tau <= sure_of_threshold(y, float(tau), 1.0) + 1e-12

    def test_all_zero_vector(self):
        y = ComplexVector(np.zeros(8), np.zeros(8))
        assert search_threshold(y, 1.0).tau_star == 0.0

    def test_invalid_n0(self):
        with pytest.raises(ValueError):
            search_threshold(ComplexVector([1.0], [0.0]), 0.0)


class TestDenoiseBlind:
    def test_zero_vector_degenerate_rule(self):
        y = ComplexVector(np.zeros(16), np.zeros(16))
        denoised, found, noise = denoise_blind(y)
        assert noise.value == 0.0
        assert found.tau_star == 0.0
        np.testing.assert_array_equal(denoised.values, y.values)

    def test_pure_noise_output_energy_shrinks(self):
        y = sample_noise(1.0, 4096, RngStream(63))
        denoised, _, _ = denoise_blind(y)
        assert float(abs_squared(denoised).sum()) < float(abs_squared(y).sum())

    def test_beats_identity_on_sparse_signals(self):
        # genie-measured error of the blind denoiser vs leaving y alone
        params = bcg_params(4096, 0.1, 1.0)  # Eh=10, N0=1
        wins = 0
        trials = 300
        for t in range(trials):
            s, n, y = draw_observation(params, seed=64, trial=t)
            denoised, found, _ = denoise_blind(y)
            f = DenoiserFunction.soft(found.tau_star)
            rep = genie_estimates(s, n, y, f)
            if rep.e0_bar <= rep.n0_bar:
                wins += 1
        assert wins / trials >= 0.95

    def test_single_sort_consistency(self):
        # the reported noise estimate, threshold, and output agree with
        # the standalone operations
        _, _, y = draw_observation(bcg_params(128, 0.1, 10.0), seed=65, trial=0)
        denoised, found, noise = denoise_blind(y)
        standalone = search_threshold(y, noise.value)
        assert found.tau_star == pytest.approx(standalone.tau_star, rel=1e-12)
        np.testing.assert_allclose(denoised.values,
                                   soft_threshold(y, found.tau_star).values,
                                   atol=1e-15)


class TestBlindReport:
    def test_fields_mutually_consistent(self):
        _, _, y = draw_observation(bcg_params(64, 0.1, 10.0), seed=66, trial=0)
        rep = blind_report(y)
        assert rep.mse.raw_sure == pytest.approx(rep.search.sure_at_tau,
                                                 rel=1e-12, abs=1e-12)
        assert rep.mse.value == max(rep.mse.raw_sure, 0.0)
        assert rep.snr.value == max(rep.snr.raw, 0.0)
        assert rep.search.n0_used == rep.noise.value

    def test_degenerate_input(self):
        rep = blind_report(ComplexVector(np.zeros(4), np.zeros(4)))
        assert rep.noise.value == 0.0
        assert rep.snr.value == 0.0
        assert rep.mse.value == 0.0


# --- row kernels against the per-vector reference -------------------------

def reference_search(rs, n0):
    """The per-vector search on ascending magnitudes: (tau_star, sure_at_tau)."""
    d = rs.size
    prefix_z = np.concatenate(([0.0], np.cumsum(rs * rs)))
    recip = np.zeros(d)
    nz = rs > 0
    recip[nz] = 1.0 / rs[nz]
    suffix_recip = np.concatenate((np.cumsum(recip[::-1])[::-1], [0.0]))
    c = (d - np.arange(d)).astype(np.float64)
    tau_raw = n0 * suffix_recip[:d] / (2.0 * c)
    stationary = np.clip(tau_raw, np.concatenate(([0.0], rs[:-1])), rs)
    taus = np.concatenate(([0.0], stationary, rs[-1:]))
    j = np.searchsorted(rs, taus, side="right")
    above = (d - j).astype(np.float64)
    sures = (prefix_z[j] + above * taus * taus) / d - n0 \
        + (n0 / d) * (2.0 * above - taus * suffix_recip[j])
    best = np.lexsort((taus, sures))[0]
    return float(taus[best]), float(sures[best])


def reference_soft(values, tau):
    r = np.sqrt(abs_squared(values))
    keep = r > tau
    scale = np.zeros_like(r)
    scale[keep] = 1.0 - tau / r[keep]
    return values * scale


def sure_rows_data(seed, rows, dim, kind):
    """(rows, dim) complex observations: noise plus a sparse part, with zero,
    tied or half-zero rows."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    y += np.where(rng.random((rows, dim)) < 0.1, 5.0, 0.0)
    if kind == "zero":
        y[rng.random(rows) < 0.5] = 0.0
    elif kind == "tied":
        y = np.round(y)
    elif kind == "half_zero":
        y[:, : (dim + 1) // 2] = 0.0
    return y


class TestRowsMatchPerVectorReference:
    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9),
           dim=st.integers(1, 256),
           kind=st.sampled_from(["noise", "zero", "tied", "half_zero"]),
           n0_scale=st.floats(1e-3, 1e3))
    def test_bit_identical(self, seed, rows, dim, kind, n0_scale):
        y = sure_rows_data(seed, rows, dim, kind)
        n0 = n0_scale * np.arange(1, rows + 1)
        tau, sure = search_rows(y, n0)
        shrunk = soft_threshold_rows(y, tau)
        denoised, n0_hat = denoise_blind_rows(y)
        for k, row in enumerate(y):
            rs = np.sort(np.sqrt(abs_squared(row)))
            assert (tau[k], sure[k]) == reference_search(rs, n0[k])
            v = ComplexVector.from_complex(row)
            found = search_threshold(v, n0[k])
            assert (found.tau_star, found.sure_at_tau) == (tau[k], sure[k])
            assert shrunk[k].tobytes() == reference_soft(row, tau[k]).tobytes()
            assert soft_threshold(v, tau[k]).values.tobytes() == shrunk[k].tobytes()
            out, blind, noise = denoise_blind(v)
            assert noise.value == n0_hat[k]
            assert out.values.tobytes() == denoised[k].tobytes()
            if noise.value > 0.0:
                assert (blind.tau_star, blind.sure_at_tau) == reference_search(rs, noise.value)
                assert denoised[k].tobytes() == reference_soft(row, blind.tau_star).tobytes()
            else:
                assert denoised[k].tobytes() == row.tobytes()

    def test_one_noise_power_for_all_rows(self):
        y = sure_rows_data(7, 5, 64, "tied")
        tau, sure = search_rows(y, 0.8)
        for k, row in enumerate(y):
            assert (tau[k], sure[k]) == reference_search(np.sort(np.sqrt(abs_squared(row))), 0.8)


def assert_blind_matches_reference(y):
    """blind_rows on the (R, D) block, blind_rows on each row and
    blind_report each equal the per-vector composition, bit for bit."""
    rows = blind_rows(y)
    for k, row in enumerate(y):
        v = ComplexVector.from_complex(row)
        noise, signal, snr, mse, search, denoised = reference_blind(v)
        one = blind_rows(row)
        for got in (tuple(a[k] for a in rows[1:5]), one[1:5]):
            assert got == (noise.median_z, noise.value, search.tau_star, search.sure_at_tau)
        for got in (tuple(a[k] for a in rows[6:]), one[6:]):
            assert got == (signal.raw, snr.raw, mse.raw_sure, mse.divergence_sum)
        shrunk = soft_threshold(v, search.tau_star).values.tobytes()
        assert rows.shrunk[k].tobytes() == one.shrunk.tobytes() == shrunk
        assert rows.z[k].tobytes() == abs_squared(row).tobytes()
        rep = blind_report(v)
        assert (rep.noise, rep.signal, rep.snr, rep.mse, rep.search) == \
            (noise, signal, snr, mse, search)
        assert rep.denoised.values.tobytes() == denoised.values.tobytes()
        if noise.value <= 0.0:
            assert rep.denoised is v


class TestBlindKernelMatchesComposition:
    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9),
           dim=st.integers(1, 256),
           kind=st.sampled_from(["noise", "zero", "tied", "half_zero"]))
    def test_bit_identical(self, seed, rows, dim, kind):
        assert_blind_matches_reference(sure_rows_data(seed, rows, dim, kind))

    def test_zero_and_half_zero_rows(self):
        y = sure_rows_data(3, 4, 10, "noise")
        y[0] = 0.0           # all zero: n0 = 0
        y[1, :6] = 1e-170    # more than half underflow |y|^2 to 0: n0 = 0
        y[2, :5] = 0.0       # exactly half zero at even D: n0 > 0
        y[3, 1] = 1e-170
        rows = blind_rows(y)
        assert rows.n0[:2].tolist() == [0.0, 0.0] and (rows.n0[2:] > 0.0).all()
        assert rows.tau[:2].tolist() == rows.snr[:2].tolist() == [0.0, 0.0]
        assert_blind_matches_reference(y)
