"""Order-statistic selection: exactness, equivalence, and expected-linear cost."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsnr import LOG2, OpCounter, RngStream, kth_smallest, sample_median
from blindsnr.core import INFINITE_MEDIAN


class TestSampleMedianValues:
    def test_odd_length(self):
        assert sample_median([3, 1, 2]).value == 2.0

    def test_even_length_averages_central_pair(self):
        assert sample_median([4, 1, 3, 2]).value == 2.5

    def test_single_element(self):
        assert sample_median([5]).value == 5.0

    def test_input_not_modified(self):
        x = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        before = x.copy()
        sample_median(x, method="quickselect", rng=RngStream(1))
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("method", ["quickselect", "full_sort"])
    def test_overflowing_average_raises(self, method):
        with pytest.raises(ValueError, match="infinite"):
            sample_median(np.array([1.7e308, 1.7e308]), method)
        with pytest.raises(ValueError, match="infinite"):
            sample_median(np.array([-1.7e308, -1.7e308]), method)
        assert sample_median(np.array([8e307, 8e307]), method).value == 8e307

    @pytest.mark.parametrize("method", ["quickselect", "full_sort"])
    def test_overflow_message_names_the_central_sum(self, method):
        # a plain real array is no power, so the text does not name |y|^2
        for x in ([1.7e308, 1.7e308], [-1.7e308, -1.7e308]):
            with pytest.raises(ValueError, match=re.escape(INFINITE_MEDIAN)):
                sample_median(np.array(x), method)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sample_median([])
        with pytest.raises(ValueError):
            sample_median([1.0, np.nan])
        with pytest.raises(ValueError):
            sample_median([1.0, np.inf])
        with pytest.raises(ValueError):
            sample_median([1.0], method="bogus")


class TestKthSmallest:
    def test_trivial(self):
        assert kth_smallest([9, 7, 8], 1) == 7.0
        assert kth_smallest([9, 7, 8], 3) == 9.0

    def test_permutation_median(self):
        perm = np.random.default_rng(0).permutation(np.arange(1.0, 1002.0))
        assert kth_smallest(perm, 501, rng=RngStream(2)) == 501.0

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(1)
        for t in range(100):
            d = int(rng.integers(1, 300))
            x = rng.standard_normal(d)
            k = int(rng.integers(1, d + 1))
            assert kth_smallest(x, k, rng=RngStream(3, t)) == np.sort(x)[k - 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kth_smallest([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            kth_smallest([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            kth_smallest([3.0, 1.0, 2.0], 1.5)


class TestEquivalence:
    def test_quickselect_matches_full_sort_exactly(self):
        # 1000 random arrays, lengths 1..257, including tie-heavy integer
        # data: both methods must return the identical float.
        rng = np.random.default_rng(7)
        for t in range(1000):
            d = int(rng.integers(1, 258))
            if t % 3 == 0:
                x = rng.integers(0, max(2, d // 4), d).astype(float)
            else:
                x = rng.standard_normal(d)
            q = sample_median(x, "quickselect", rng=RngStream(4, t)).value
            f = sample_median(x, "full_sort").value
            assert q == f


# tied integers (whose central pairs often straddle a pivot's equal block),
# two equal halves (where they always do) and continuous values; D = 1-300
_SELECTION_INPUTS = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=300),
    st.tuples(st.integers(1, 150), st.integers(0, 2**32 - 1)).map(
        lambda hs: np.random.default_rng(hs[1]).permutation(np.repeat([-1.0, 2.0], hs[0]))),
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=300),
)


class TestAgainstSort:
    @settings(max_examples=150, deadline=None, database=None)
    @given(x=_SELECTION_INPUTS, seed=st.integers(0, 2**32 - 1))
    def test_every_rank_and_both_medians_equal_the_sort(self, x, seed):
        x = np.asarray(x, dtype=np.float64)
        s = np.sort(x)
        d = x.size
        for k in range(1, d + 1):
            assert kth_smallest(x, k, rng=RngStream(seed, k)) == s[k - 1]
        expected = 0.5 * (s[(d - 1) // 2] + s[d // 2])
        assert sample_median(x, "quickselect", rng=RngStream(seed)).value == expected
        assert sample_median(x, "full_sort").value == expected


class TestConvergence:
    def test_error_quantile_shrinks_with_dimension(self):
        # sample median of exponential(mean 1) data approaches log 2;
        # the 95th percentile of |error| at D=4096 sits below D=64's.
        rng = np.random.default_rng(9)
        errs = {}
        for d in (64, 4096):
            e = []
            for _ in range(1000):
                z = rng.exponential(1.0, d)
                e.append(abs(sample_median(z, method="full_sort").value - LOG2))
            errs[d] = np.percentile(e, 95)
        assert errs[4096] < errs[64]


class TestComplexity:
    def test_comparison_slope_below_ten_per_element(self):
        rng = np.random.default_rng(13)
        dims = np.array([64, 256, 1024, 4096])
        means = []
        for d in dims:
            counts = []
            for t in range(30):
                x = rng.standard_normal(d)
                c = OpCounter()
                sample_median(x, rng=RngStream(5, 1000 * d + t), counter=c)
                counts.append(c.comparisons)
            means.append(np.mean(counts))
        slope = np.polyfit(dims, means, 1)[0]
        assert slope < 10.0

    def test_full_sort_reports_no_comparisons(self):
        # numpy's sort internals are not instrumented
        c = OpCounter()
        res = sample_median(np.arange(100.0), method="full_sort", counter=c)
        assert res.ops.comparisons == 0
