"""EM baseline: recovery, likelihood ascent, ordering, caps, and cost floor."""

import numpy as np
import pytest

from blindsnr import LOG2, MixtureParams, em_default_init, em_fit, em_step
from blindsnr.em import MAX_ITERATIONS, mixture_loglik, paper_op_floor


def mixture_powers(rng, d, p=0.1, n0=1.0, eh=10.0):
    active = rng.random(d) < p
    return np.where(active, rng.exponential(n0 + eh, d), rng.exponential(n0, d))


class TestMixtureParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureParams(-0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            MixtureParams(0.5, 0.0, 2.0)
        with pytest.raises(ValueError):
            MixtureParams(0.5, 3.0, 2.0)  # ordering violated


class TestDefaultInit:
    def test_constant_samples(self):
        z = np.full(64, 2.0)
        init = em_default_init(z)
        assert init.var_small == pytest.approx(2.0 / LOG2)
        assert init.var_large == pytest.approx(max(4.0, 4.0 / LOG2))
        assert init.weight_active == 0.5

    def test_pure_noise_seed_is_accurate(self):
        z = np.random.default_rng(70).exponential(1.0, 10**6)
        assert abs(em_default_init(z).var_small - 1.0) <= 0.01

    def test_ordering_always_holds(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            z = mixture_powers(rng, 256)
            init = em_default_init(z)
            assert init.var_small <= init.var_large

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            em_default_init(np.array([1.0]))


class TestEmFit:
    def test_mixture_recovery(self):
        # true (p, N0, Eh) = (0.1, 1, 10) at D=4096: the small variance
        # tracks the noise floor within 5% and the weight stays near p
        rng = np.random.default_rng(72)
        n0s, weights = [], []
        for _ in range(100):
            z = mixture_powers(rng, 4096)
            fit = em_fit(z, em_default_init(z))
            n0s.append(fit.n0_em)
            weights.append(fit.params.weight_active)
        assert abs(np.mean(n0s) - 1.0) <= 0.05
        assert 0.05 <= np.mean(weights) <= 0.15

    def test_pure_noise_small_variance_near_truth(self):
        # The mixture model is degenerate on single-exponential data: with
        # the pinned recipe (median seed, 0.1% stop, 30-iteration cap) the
        # small variance drifts ~8% low while the weight wanders; measured
        # behavior is mean n0_em ~= 0.92 at D=4096.
        rng = np.random.default_rng(73)
        n0s = [em_fit(z := rng.exponential(1.0, 4096), em_default_init(z)).n0_em
               for _ in range(50)]
        assert 0.85 <= np.mean(n0s) <= 1.0

    def test_init_at_truth_barely_moves(self):
        rng = np.random.default_rng(73)
        z = mixture_powers(rng, 4096)
        start = MixtureParams(0.1, 1.0, 11.0)
        step = em_step(z, start)
        delta = (abs(step.weight_active - 0.1) + abs(step.var_small - 1.0)
                 + abs(step.var_large - 11.0))
        assert delta / (0.1 + 1.0 + 11.0) < 0.05

    def test_loglik_ascends_every_iteration(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            z = mixture_powers(rng, 1024)
            fit = em_fit(z, em_default_init(z))
            trace = fit.loglik_trace
            assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_ordering_after_every_step(self):
        rng = np.random.default_rng(76)
        z = mixture_powers(rng, 1024)
        params = em_default_init(z)
        for _ in range(MAX_ITERATIONS):
            params = em_step(z, params)
            assert params.var_small <= params.var_large

    def test_iteration_cap(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            z = mixture_powers(rng, 256)
            fit = em_fit(z, em_default_init(z))
            assert fit.iterations <= MAX_ITERATIONS
            assert fit.converged == (fit.iterations < MAX_ITERATIONS) or fit.converged

    def test_cost_floor(self):
        rng = np.random.default_rng(78)
        for d in (64, 512, 4096):
            z = mixture_powers(rng, d)
            fit = em_fit(z, em_default_init(z))
            assert fit.op_estimate >= paper_op_floor(d, fit.iterations)

    @pytest.mark.parametrize("seed, dim, init, expected", [
        (0, 64, None, 29556),                       # default init, 25 iterations
        (4, 256, None, 93584),                      # default init, 20 iterations
        (3, 16, (1e-6, 1.0, 2.0), 2220),            # near-empty large component
        (1, 16, (0.0, 1.0, 2.0), 357),              # large component collapses
        (2, 16, (1.0, 1.0, 2.0), 355),              # small component collapses
        (1, 16, (0.3, 2.0, 2.0), 681),              # one ordering swap
    ])
    def test_op_estimate_pinned(self, seed, dim, init, expected):
        # recorded from an operation-by-operation tally of the update formulas
        z = mixture_powers(np.random.default_rng(seed), dim)
        start = MixtureParams(*init) if init else em_default_init(z)
        assert em_fit(z, start).op_estimate == expected

    def test_collapse_handling(self):
        # weight 0 kills the large component immediately: its variance is
        # frozen, the fit converges, and no division blows up
        z = np.random.default_rng(79).exponential(1.0, 512)
        fit = em_fit(z, MixtureParams(0.0, 1.0, 2.0))
        assert fit.converged
        assert fit.params.weight_active == 0.0
        assert fit.params.var_large == 2.0
        assert abs(fit.n0_em - float(z.mean())) <= 1e-9

    def test_large_collapse_keeps_variance_order(self):
        # the small variance updates above the frozen large one; the
        # frozen value is raised to keep the pair ordered
        z = np.array([0.0014796647144725897, 3.0886084418566666])
        fit = em_fit(z, MixtureParams(1e-12, 0.5822299963542076, 1.0363857145259452))
        assert fit.converged
        assert fit.params.weight_active == 0.0
        assert fit.params.var_small <= fit.params.var_large

    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            em_fit(np.array([-1.0, 2.0]), MixtureParams(0.5, 1.0, 2.0))

    def test_snr_modes(self):
        rng = np.random.default_rng(80)
        z = mixture_powers(rng, 4096)
        init = em_default_init(z)
        default = em_fit(z, init)
        alt = em_fit(z, init, snr_from_total_power=True)
        p, s1, s2 = (default.params.weight_active, default.params.var_small,
                     default.params.var_large)
        assert default.snr_em == pytest.approx(max(p * (s2 - s1) / s1, 0.0))
        assert alt.snr_em == pytest.approx(max((z.mean() - s1) / s1, 0.0), rel=1e-12)
        assert default.snr_em >= 0.0 and alt.snr_em >= 0.0

    def test_ascent_matches_direct_loglik(self):
        # trace entries equal the analytic mixture log-likelihood of the
        # parameters entering each iteration
        rng = np.random.default_rng(81)
        z = mixture_powers(rng, 512)
        init = em_default_init(z)
        fit = em_fit(z, init)
        assert fit.loglik_trace[0] == pytest.approx(mixture_loglik(z, init), rel=1e-12)
