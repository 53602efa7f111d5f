"""EM baseline: recovery, likelihood ascent, ordering, caps, cost floor, and the
row kernel against the per-vector loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsnr import LOG2, MixtureParams, em_default_init, em_fit, em_step
from blindsnr.em import (MAX_ITERATIONS, _fit_rows, em_fit_rows, em_init_rows,
                         mixture_loglik, paper_op_floor)


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
        default = em_fit(z, em_default_init(z))
        p, s1, s2 = (default.params.weight_active, default.params.var_small,
                     default.params.var_large)
        assert default.snr_em == pytest.approx(max(p * (s2 - s1) / s1, 0.0))
        assert default.snr_em >= 0.0

    def test_ascent_matches_direct_loglik(self):
        # trace entries equal the analytic mixture log-likelihood of the
        # parameters entering each iteration
        rng = np.random.default_rng(81)
        z = mixture_powers(rng, 512)
        init = em_default_init(z)
        fit = em_fit(z, init)
        assert fit.loglik_trace[0] == pytest.approx(mixture_loglik(z, init), rel=1e-12)


# --- row kernel against the per-vector reference --------------------------

def _reference_update(z, p, s1, s2, sum_z, floor):
    """The per-vector E+M update the row kernel replaced."""
    d = z.size
    inv1, inv2 = 1.0 / s1, 1.0 / s2
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf on zero rows
        g1 = inv1 * np.exp(-(z * inv1))
        g2 = inv2 * np.exp(-(z * inv2))
        w2 = p * g2
        den = (1.0 - p) * g1 + w2
    ok = den > 0
    gamma = np.where(ok, w2 / np.where(ok, den, 1.0), 1.0)
    loglik = float(np.log(np.where(ok, den, 5e-324)).sum())
    sg = float(gamma.sum())
    sgz = float((gamma * z).sum())
    if sg < 1e-9:
        s1_new = max((sum_z - sgz) / (d - sg), floor)
        return 0.0, s1_new, max(s2, s1_new), loglik, True, False
    if d - sg < 1e-9:
        return 1.0, s1, max(sgz / sg, floor, s1), loglik, True, False
    p_new = sg / d
    s2_new = max(sgz / sg, floor)
    s1_new = max((sum_z - sgz) / (d - sg), floor)
    if s1_new > s2_new:
        return 1.0 - p_new, s2_new, s1_new, loglik, False, True
    return p_new, s1_new, s2_new, loglik, False, False


def reference_em_fit(z, init):
    """The per-vector EM loop: (params, iterations, converged, op_estimate, trace)."""
    d = z.size
    sum_z = float(z.sum())
    floor = max(1e-12 * (sum_z / d), 5e-324)
    p, s1, s2 = init
    trace, converged, swaps, collapse_ops = [], False, 0, 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        p_new, s1_new, s2_new, loglik, collapsed, swapped = _reference_update(
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
        if delta / base < 1e-3:
            converged = True
            break
    ops = (4 * d + iterations * (18 * d + 2) + 18 * (iterations - (collapse_ops > 0))
           + swaps + collapse_ops)
    return (p, s1, s2), iterations, converged, ops, tuple(trace)


def reference_default_init(z):
    s = np.sort(z)
    d = z.size
    s1 = 0.5 * (float(s[(d + 1) // 2 - 1]) + float(s[d // 2])) / LOG2
    if s1 <= 0.0:
        s1 = max(float(z.mean()), 5e-324)
    s2 = max(2.0 * float(z.mean()), 2.0 * s1)
    return 0.5, s1, max(s2, s1)


def em_rows_data(seed, rows, dim, kind):
    """(rows, dim) squared magnitudes: mixture, zero, tied or half-zero rows."""
    rng = np.random.default_rng(seed)
    z = np.stack([mixture_powers(rng, dim) for _ in range(rows)])
    if kind == "zero":
        z[rng.random(rows) < 0.5] = 0.0
    elif kind == "tied":
        z = np.round(z)
    elif kind == "half_zero":
        z[:, : (dim + 1) // 2] = 0.0
    return z


INITS = {
    "default": None,
    "large_collapse": (0.0, 1.0, 2.0),
    "small_collapse": (1.0, 1.0, 2.0),
    "near_empty": (1e-6, 1.0, 2.0),
    "swap": (0.3, 2.0, 2.0),
}


def assert_rows_match_reference(z, init_kind):
    if INITS[init_kind] is None:
        init = em_init_rows(z)
        for row, start in zip(z, init.tolist()):
            assert tuple(start) == reference_default_init(row)
            assert em_default_init(row) == MixtureParams(*reference_default_init(row))
    else:
        init = np.tile(INITS[init_kind], (len(z), 1))
    fits = em_fit_rows(z, init)
    # the trace-free kernel call, as the CLI and the channel make it
    lean = _fit_rows(z, init)
    assert lean.loglik_trace is None
    lean_fits = zip(lean.weight.tolist(), lean.var_small.tolist(), lean.var_large.tolist(),
                    lean.iterations.tolist(), lean.converged.tolist(),
                    lean.op_estimate.tolist())
    outcomes = []
    for row, start, fit, lean_fit in zip(z, init.tolist(), fits, lean_fits):
        params, iterations, converged, ops, trace = reference_em_fit(row, start)
        got = fit.params
        assert (got.weight_active, got.var_small, got.var_large) == params
        assert (fit.iterations, fit.converged, fit.op_estimate) == (iterations, converged, ops)
        assert fit.loglik_trace == trace
        assert fit.n0_em == params[1]
        assert em_fit(row, MixtureParams(*start)) == fit
        assert lean_fit == (*params, iterations, converged, ops)
        sum_z = float(row.sum())
        step = _reference_update(row, *start, sum_z, max(1e-12 * (sum_z / row.size), 5e-324))
        assert em_step(row, MixtureParams(*start)) == MixtureParams(*step[:3])
        outcomes.append("collapsed_large" if got.weight_active == 0.0 and fit.converged
                        else "collapsed_small" if got.weight_active == 1.0
                        else "capped" if not converged else "converged")
    return outcomes


class TestRowsMatchPerVectorReference:
    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9),
           dim=st.integers(1, 256),
           kind=st.sampled_from(["mixture", "zero", "tied", "half_zero"]),
           init_kind=st.sampled_from(sorted(INITS)))
    def test_bit_identical(self, seed, rows, dim, kind, init_kind):
        if dim == 1 and init_kind == "default":
            init_kind = "swap"  # the median seed needs two samples
        assert_rows_match_reference(em_rows_data(seed, rows, dim, kind), init_kind)

    def test_covers_collapses_and_caps(self):
        # fixed blocks that reach each way a fit can end
        seen = set()
        for init_kind in ("default", "large_collapse", "small_collapse"):
            z = em_rows_data(5, 9, 64, "mixture")
            seen.update(assert_rows_match_reference(z, init_kind))
        seen.update(assert_rows_match_reference(em_rows_data(6, 4, 3, "half_zero"),
                                                "default"))
        assert seen >= {"collapsed_large", "collapsed_small", "capped", "converged"}
