import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from cohercause import (
    bartlett_critical_value,
    bartlett_pvalue,
    critical_value,
    make_spec,
    p_value,
    sample_null,
)
from cohercause.nulldist import _CHUNK, _order_statistic_threshold


class TestMakeSpec:
    def test_simple_substitution(self):
        spec = make_spec(1, 1, 0, 10)
        assert spec.beta_params == ((4.5, 0.5),)

    def test_replication_dims(self):
        # a_i = (M - r - q - i + 1)/2 with (10, 1, 10, 1000)
        spec = make_spec(10, 1, 10, 1000)
        assert len(spec.beta_params) == 10
        for i, (a, b) in enumerate(spec.beta_params, start=1):
            assert a == (1000 - 10 - 1 - i + 1) / 2
            assert b == 0.5

    def test_boundary_sample_count(self):
        with pytest.raises(ValueError, match="insufficient"):
            make_spec(5, 3, 2, 10)  # M - r = 8 = p + q

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            make_spec(0, 1, 0, 10)


class TestSampleNull:
    def test_mean_matches_beta_product(self):
        spec = make_spec(3, 2, 1, 40)
        samples = sample_null(spec, 1_000_000, seed=7)
        expected = 1.0 - np.prod([a / (a + b) for a, b in spec.beta_params])
        se = samples.std() / np.sqrt(samples.size)
        assert abs(samples.mean() - expected) < 3 * se

    def test_samples_in_unit_interval(self):
        samples = sample_null(make_spec(2, 2, 0, 12), 10_000, seed=3)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_single_factor_distribution(self):
        # p = 1: statistic is 1 - Beta((M - r - q)/2, q/2)
        spec = make_spec(1, 2, 3, 30)
        samples = sample_null(spec, 20_000, seed=5)
        a, b = spec.beta_params[0]
        ks = stats.kstest(1.0 - samples, stats.beta(a, b).cdf)
        assert ks.pvalue > 1e-3

    def test_deterministic_given_seed(self):
        spec = make_spec(2, 1, 1, 25)
        assert_allclose(
            sample_null(spec, 500, seed=9), sample_null(spec, 500, seed=9)
        )
        assert not np.allclose(
            sample_null(spec, 500, seed=9), sample_null(spec, 500, seed=10)
        )

    def test_worker_count_does_not_change_samples(self):
        spec = make_spec(1, 1, 0, 9)
        n = _CHUNK + 17  # spans two chunks
        assert_allclose(
            sample_null(spec, n, seed=4, jobs=1), sample_null(spec, n, seed=4, jobs=2)
        )

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_null(make_spec(1, 1, 0, 9), 0)


class TestCriticalValue:
    def test_alpha_half_is_near_median(self):
        spec = make_spec(2, 1, 0, 20)
        samples = sample_null(spec, 100_000, seed=11)
        thr = critical_value(spec, 0.5, n_mc=100_000, seed=11)
        assert abs(thr - np.median(samples)) < 2e-3

    def test_single_beta_inverse_cdf_oracle(self):
        # p = 1 reduces to an inverse-Beta quantile
        spec = make_spec(1, 1, 0, 12)
        n_mc = 200_000
        a, b = spec.beta_params[0]
        oracle = 1.0 - stats.beta.ppf(0.05, a, b)
        # 3-sigma Monte Carlo band for an empirical quantile
        density = stats.beta.pdf(1.0 - oracle, a, b)
        band = 3.0 * np.sqrt(0.05 * 0.95 / n_mc) / density
        thr = critical_value(spec, 0.05, n_mc=n_mc, seed=13)
        assert thr == pytest.approx(oracle, abs=band)

    def test_monotone_decreasing_in_m(self):
        thresholds = [
            critical_value(make_spec(10, 1, 10, M), 0.05, n_mc=100_000, seed=17)
            for M in (100, 300, 1000)
        ]
        assert thresholds[0] > thresholds[1] > thresholds[2]

    def test_insufficient_tail_resolution(self):
        with pytest.raises(ValueError, match="tail resolution"):
            critical_value(make_spec(1, 1, 0, 12), 0.0001, n_mc=1000)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            critical_value(make_spec(1, 1, 0, 12), 1.0)


class TestPValue:
    def test_stat_zero(self):
        spec = make_spec(1, 1, 0, 12)
        assert p_value(spec, 0.0, n_mc=10_000, seed=1) == pytest.approx(1.0, abs=1e-3)

    def test_stat_one(self):
        spec = make_spec(1, 1, 0, 12)
        assert p_value(spec, 1.0, n_mc=10_000, seed=1) == 1 / 10_001

    def test_consistency_with_critical_value(self):
        spec = make_spec(3, 1, 2, 50)
        n = 100_000
        thr = critical_value(spec, 0.05, n_mc=n, seed=21)
        pv = p_value(spec, thr, n_mc=n, seed=21)
        # the threshold itself counts into the tail, so pv sits within
        # one smoothing step of alpha
        assert abs(pv - 0.05) <= 1.5 / (n + 1)
        assert p_value(spec, thr + 1e-6, n_mc=n, seed=21) < 0.05
        assert p_value(spec, thr - 1e-6, n_mc=n, seed=21) >= 0.05

    def test_stat_range(self):
        with pytest.raises(ValueError):
            p_value(make_spec(1, 1, 0, 12), 1.5)


class TestBartlett:
    def test_stat_zero_gives_p_one(self):
        assert bartlett_pvalue(make_spec(2, 2, 1, 100), 0.0) == 1.0

    def test_transformed_statistic(self):
        # (1, 1, 0, 1000): factor is M - r - (p+q+1)/2 = 998.5
        spec = make_spec(1, 1, 0, 1000)
        s = 0.01
        expected = float(stats.chi2.sf(-998.5 * np.log1p(-s), 1))
        assert bartlett_pvalue(spec, s) == pytest.approx(expected, rel=1e-12)

    def test_critical_value_agreement_with_monte_carlo(self):
        spec = make_spec(10, 1, 10, 1000)
        mc = critical_value(spec, 0.05, n_mc=200_000, seed=23)
        bart = bartlett_critical_value(spec, 0.05)
        assert abs(mc - bart) / bart < 0.02

    def test_pvalues_agree_for_large_m(self):
        for dims in ((10, 1, 10, 1000), (3, 2, 4, 500)):
            spec = make_spec(*dims)
            for s in (0.005, 0.01, 0.02, 0.05, 0.1):
                mc = p_value(spec, s, n_mc=200_000, seed=29)
                bart = bartlett_pvalue(spec, s)
                assert abs(mc - bart) < 0.01

    def test_round_trip(self):
        spec = make_spec(4, 2, 3, 200)
        thr = bartlett_critical_value(spec, 0.05)
        assert bartlett_pvalue(spec, thr) == pytest.approx(0.05, rel=1e-10)


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
