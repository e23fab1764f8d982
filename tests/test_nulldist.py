import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from cohercause import WilksLambdaSpec, null_law, sample_null
from cohercause import nulldist
from cohercause.nulldist import _CHUNK, _order_statistic_threshold

from reference import concatenated_sample_null

# Every (p, q) with min(p, q) <= 2 has a closed-form law; (r, M) is shared.
EXACT_DIMS = [(10, 1), (1, 1), (3, 2), (2, 5)]
EXACT_R_M = (4, 50)


class _LambdaFromF:
    """Law of Lambda = (1 + f / c)^-2 with f ~ F(d1, d2)."""

    def __init__(self, c, d1, d2):
        self.c, self.f = c, stats.f(d1, d2)

    def cdf(self, lam):
        return self.f.sf(self.c * (np.asarray(lam) ** -0.5 - 1.0))

    def ppf(self, prob):
        return (1.0 + self.f.isf(prob) / self.c) ** -2

    def pdf(self, lam):
        return self.f.pdf(self.c * (lam**-0.5 - 1.0)) * self.c / 2.0 * lam**-1.5


def exact_lambda_law(p, q, r, M):
    """Closed-form law of Lambda(p, m, q) = 1 - statistic, m = M - r - q.

    Lambda(p, m, q) has the law of Lambda(q, m + q - p, p), so write it as
    Lambda(P, N, Q) with Q = min(p, q) (Anderson, section 8.4). Q = 1 gives
    Beta((N - P + 1)/2, P/2); Q = 2 gives (1 - sqrt L)/sqrt L (N - P + 1)/P
    ~ F(2P, 2(N - P + 1)).
    """
    m = M - r - q
    P, N, Q = (p, m, q) if q <= p else (q, m + q - p, p)
    if Q == 1:
        return stats.beta((N - P + 1) / 2, P / 2)
    assert Q == 2
    return _LambdaFromF((N - P + 1) / P, 2 * P, 2 * (N - P + 1))


class TestMakeSpec:
    def test_simple_substitution(self):
        spec = WilksLambdaSpec(1, 1, 0, 10)
        assert spec.beta_params == ((4.5, 0.5),)

    def test_replication_dims(self):
        # a_i = (M - r - q - i + 1)/2 with (10, 1, 10, 1000)
        spec = WilksLambdaSpec(10, 1, 10, 1000)
        assert len(spec.beta_params) == 10
        for i, (a, b) in enumerate(spec.beta_params, start=1):
            assert a == (1000 - 10 - 1 - i + 1) / 2
            assert b == 0.5

    def test_boundary_sample_count(self):
        with pytest.raises(ValueError, match="insufficient"):
            WilksLambdaSpec(5, 3, 2, 10)  # M - r = 8 = p + q

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            WilksLambdaSpec(0, 1, 0, 10)


class TestSampleNull:
    def test_mean_matches_beta_product(self):
        spec = WilksLambdaSpec(3, 2, 1, 40)
        samples = sample_null(spec, 1_000_000, seed=7)
        expected = 1.0 - np.prod([a / (a + b) for a, b in spec.beta_params])
        se = samples.std() / np.sqrt(samples.size)
        assert abs(samples.mean() - expected) < 3 * se

    def test_samples_in_unit_interval(self):
        samples = sample_null(WilksLambdaSpec(2, 2, 0, 12), 10_000, seed=3)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_single_factor_distribution(self):
        # p = 1: statistic is 1 - Beta((M - r - q)/2, q/2)
        spec = WilksLambdaSpec(1, 2, 3, 30)
        samples = sample_null(spec, 20_000, seed=5)
        a, b = spec.beta_params[0]
        ks = stats.kstest(1.0 - samples, stats.beta(a, b).cdf)
        assert ks.pvalue > 1e-3

    def test_deterministic_given_seed(self):
        spec = WilksLambdaSpec(2, 1, 1, 25)
        n = _CHUNK + 17  # spans two chunks
        assert_allclose(sample_null(spec, n, seed=9), sample_null(spec, n, seed=9))
        assert not np.allclose(
            sample_null(spec, n, seed=9), sample_null(spec, n, seed=10)
        )

    @pytest.mark.parametrize("p, q", [(10, 1), (3, 3)])
    def test_matches_concatenated_chunks(self, p, q):
        # Two whole chunks and a partial third, drawn into one array, are bit
        # for bit the chunks drawn one by one and concatenated.
        spec = WilksLambdaSpec(p, q, 4, 500)
        n = 2 * _CHUNK + 17
        assert np.array_equal(
            sample_null(spec, n, seed=11), concatenated_sample_null(spec, n, 11)
        )

    @pytest.mark.parametrize("p, q", [(10, 1), (3, 3)])
    def test_draw_holds_output_and_one_chunk(self, p, q):
        # The draw's traced peak is its output and one chunk's two gamma
        # buffers, plus the generators' and arrays' objects (under 64 KiB). A
        # list of chunks and its concatenation would hold the draws twice.
        spec = WilksLambdaSpec(p, q, 4, 500)
        n = 5 * _CHUNK + 17
        sample_null(spec, 100, seed=11)  # warm-up
        tracemalloc.start()
        try:
            sample_null(spec, n, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n * 8 <= peak < (n + 2 * _CHUNK) * 8 + 64 * 1024

    def test_shorter_product_is_drawn(self):
        # Lambda(p, m, q) = Lambda(q, m + q - p, p): (10, 1) draws the one
        # Beta factor of (1, 10), bit for bit, not ten of its own.
        n = 1000
        assert np.array_equal(
            sample_null(WilksLambdaSpec(10, 1, 10, 999), n, seed=5),
            sample_null(WilksLambdaSpec(1, 10, 10, 999), n, seed=5),
        )

    @pytest.mark.parametrize("p, q", EXACT_DIMS)
    def test_matches_closed_form_law(self, p, q):
        # (10, 1) and (3, 2) draw the swapped product, (1, 1) and (2, 5)
        # the paper's own.
        samples = sample_null(WilksLambdaSpec(p, q, *EXACT_R_M), 200_000, seed=31)
        ks = stats.kstest(1.0 - samples, exact_lambda_law(p, q, *EXACT_R_M).cdf)
        assert ks.pvalue > 1e-3

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_null(WilksLambdaSpec(1, 1, 0, 9), 0)


class TestCriticalValue:
    def test_alpha_half_is_near_median(self):
        spec = WilksLambdaSpec(2, 1, 0, 20)
        samples = sample_null(spec, 100_000, seed=11)
        thr = null_law(spec, n_mc=100_000, seed=11)[0](0.5)
        assert abs(thr - np.median(samples)) < 2e-3

    def test_single_beta_inverse_cdf_oracle(self):
        # p = 1 reduces to an inverse-Beta quantile
        spec = WilksLambdaSpec(1, 1, 0, 12)
        n_mc = 200_000
        a, b = spec.beta_params[0]
        oracle = 1.0 - stats.beta.ppf(0.05, a, b)
        # 3-sigma Monte Carlo band for an empirical quantile
        density = stats.beta.pdf(1.0 - oracle, a, b)
        band = 3.0 * np.sqrt(0.05 * 0.95 / n_mc) / density
        thr = null_law(spec, n_mc=n_mc, seed=13)[0](0.05)
        assert thr == pytest.approx(oracle, abs=band)

    def test_monotone_decreasing_in_m(self):
        thresholds = [
            null_law(WilksLambdaSpec(10, 1, 10, M), n_mc=100_000, seed=17)[0](0.05)
            for M in (100, 300, 1000)
        ]
        assert thresholds[0] > thresholds[1] > thresholds[2]

    @pytest.mark.parametrize("p, q", EXACT_DIMS)
    def test_threshold_within_five_standard_errors(self, p, q):
        n_mc, alpha = 200_000, 0.05
        law = exact_lambda_law(p, q, *EXACT_R_M)
        lam = law.ppf(alpha)
        se = np.sqrt(alpha * (1 - alpha) / n_mc) / law.pdf(lam)
        thr = null_law(WilksLambdaSpec(p, q, *EXACT_R_M), n_mc=n_mc, seed=37)[0](alpha)
        assert abs(thr - (1.0 - lam)) < 5 * se

    def test_insufficient_tail_resolution(self):
        with pytest.raises(ValueError, match="tail resolution"):
            null_law(WilksLambdaSpec(1, 1, 0, 12), n_mc=1000)[0](0.0001)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            null_law(WilksLambdaSpec(1, 1, 0, 12))[0](1.0)


class TestPValue:
    def test_stat_zero(self):
        spec = WilksLambdaSpec(1, 1, 0, 12)
        assert null_law(spec, n_mc=10_000, seed=1)[1](0.0) == pytest.approx(1.0, abs=1e-3)

    def test_stat_one(self):
        spec = WilksLambdaSpec(1, 1, 0, 12)
        assert null_law(spec, n_mc=10_000, seed=1)[1](1.0) == 1 / 10_001

    def test_consistency_with_critical_value(self):
        spec = WilksLambdaSpec(3, 1, 2, 50)
        n = 100_000
        threshold_at, p_value_of = null_law(spec, n_mc=n, seed=21)
        thr = threshold_at(0.05)
        # the threshold itself counts into the tail, so its p-value sits
        # within one smoothing step of alpha
        assert abs(p_value_of(thr) - 0.05) <= 1.5 / (n + 1)
        assert p_value_of(thr + 1e-6) < 0.05
        assert p_value_of(thr - 1e-6) >= 0.05

    def test_stat_range(self):
        with pytest.raises(ValueError):
            null_law(WilksLambdaSpec(1, 1, 0, 12))[1](1.5)


class TestNullLaw:
    def test_mc_readers_read_one_draw(self):
        spec = WilksLambdaSpec(3, 2, 4, 50)
        threshold_at, p_value_of = null_law(spec, n_mc=20_000, seed=3)
        samples = sample_null(spec, 20_000, seed=3)
        assert threshold_at(0.05) == _order_statistic_threshold(samples, 0.05)
        assert p_value_of(0.3) == (np.count_nonzero(samples >= 0.3) + 1) / 20_001

    def test_threshold_reader_partitions_the_draw_in_place(self):
        # Read at several alphas in any order, the threshold reader matches
        # np.partition of an untouched copy of the draw without copying it, and
        # the p-value reader reads what it read before.
        spec = WilksLambdaSpec(10, 1, 10, 999)
        n = 20_000
        samples = sample_null(spec, n, seed=3)
        threshold_at, p_value_of = null_law(spec, n_mc=n, seed=3)
        stats_at = [0.0, 0.005, 0.01, 0.015, 0.02, 0.05]
        before = [p_value_of(s) for s in stats_at]
        assert before == [(np.count_nonzero(samples >= s) + 1) / (n + 1) for s in stats_at]
        for alpha in (0.05, 0.5, 0.01, 0.95, 0.05, 0.2, 0.01):
            k = n - int(np.floor(alpha * (n + 1)))
            tracemalloc.start()
            try:
                threshold = threshold_at(alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert threshold == np.partition(samples, k)[k]
            assert peak < n * 8 // 8
        assert [p_value_of(s) for s in stats_at] == before

    def test_bartlett_readers_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(nulldist, "sample_null", None)
        spec = WilksLambdaSpec(3, 2, 4, 50)
        threshold_at, p_value_of = null_law(spec, "bartlett")
        assert threshold_at(0.05) == nulldist._bartlett_critical_value(spec, 0.05)
        assert p_value_of(0.3) == nulldist._bartlett_pvalue(spec, 0.3)


class TestBartlett:
    def test_stat_zero_gives_p_one(self):
        assert null_law(WilksLambdaSpec(2, 2, 1, 100), "bartlett")[1](0.0) == 1.0

    def test_transformed_statistic(self):
        # (1, 1, 0, 1000): factor is M - r - (p+q+1)/2 = 998.5
        spec = WilksLambdaSpec(1, 1, 0, 1000)
        s = 0.01
        expected = float(stats.chi2.sf(-998.5 * np.log1p(-s), 1))
        assert null_law(spec, "bartlett")[1](s) == pytest.approx(expected, rel=1e-12)

    def test_critical_value_agreement_with_monte_carlo(self):
        spec = WilksLambdaSpec(10, 1, 10, 1000)
        mc = null_law(spec, n_mc=200_000, seed=23)[0](0.05)
        bart = null_law(spec, "bartlett")[0](0.05)
        assert abs(mc - bart) / bart < 0.02

    def test_pvalues_agree_for_large_m(self):
        for dims in ((10, 1, 10, 1000), (3, 2, 4, 500)):
            spec = WilksLambdaSpec(*dims)
            mc = null_law(spec, n_mc=200_000, seed=29)[1]
            bart = null_law(spec, "bartlett")[1]
            for s in (0.005, 0.01, 0.02, 0.05, 0.1):
                assert abs(mc(s) - bart(s)) < 0.01

    def test_round_trip(self):
        spec = WilksLambdaSpec(4, 2, 3, 200)
        threshold_at, p_value_of = null_law(spec, "bartlett")
        assert p_value_of(threshold_at(0.05)) == pytest.approx(0.05, rel=1e-10)


class TestOrderStatisticThreshold:
    def test_matches_quantile_convention(self):
        samples = np.arange(1, 2000, dtype=float) / 2000.0  # 1999 samples
        # alpha = 0.05: m = floor(0.05 * 2000) = 100 -> 100th largest = 0.95
        assert _order_statistic_threshold(samples, 0.05) == 0.95

    def test_too_few_tail_samples_rejected(self):
        # 99 samples leave under 50 in the alpha = 0.05 tail: no threshold
        # could agree with the add-one p-value there.
        samples = np.arange(1, 100, dtype=float) / 100.0
        with pytest.raises(ValueError, match="n_mc=99 gives insufficient tail resolution"):
            _order_statistic_threshold(samples, 0.05)


# Each null-law check raises with its message.
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: null_law(WilksLambdaSpec(1, 1, 0, 12), "bartlett")[1](1.0),
                     "statistic must lie in [0, 1), got 1.0", id="bartlett-stat"),
        pytest.param(lambda: null_law(WilksLambdaSpec(1, 1, 0, 12), "x"),
                     "unknown method 'x'; expected wilks-mc or bartlett", id="law-method"),
    ],
)
def test_input_check_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
