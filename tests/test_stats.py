"""KS machinery, slope fits, and Monte Carlo summaries."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from scipy.special import ndtri

from fbmbt.stats import (KsResult, SampleSummary, _normal_cdf, _stephens_pvalue,
                         fit_log2_slope, kolmogorov_sf, ks_one_sample_normal,
                         ks_two_sample, variance_stderr)


class TestKsTwoSample:
    def test_identical_arrays(self):
        a = np.array([0.3, -1.0, 2.5, 0.3])
        res = ks_two_sample(a, a)
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        res = ks_two_sample([0.0], [1.0])
        assert res.statistic == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=rng.integers(5, 400))
            b = rng.normal(0.2, 1.1, size=rng.integers(5, 400))
            ours = ks_two_sample(a, b)
            ref = scipy.stats.ks_2samp(a, b, method="asymp")
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-14)

    def test_pvalue_close_to_scipy_at_scale(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=2000)
        b = rng.normal(0.05, 1.0, size=2000)
        ours = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=0.03)

    def test_null_pvalues_are_calibrated(self):
        # i.i.d. same-law samples: p roughly uniform, mean ~ 0.5 over 200 trials
        rng = np.random.default_rng(3)
        ps = []
        for _ in range(200):
            a = rng.standard_normal(2000)
            b = rng.standard_normal(2000)
            ps.append(ks_two_sample(a, b).p_value)
        assert abs(np.mean(ps) - 0.5) < 0.1

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=300)
        b = rng.normal(0.3, 1.4, size=400)
        base = ks_two_sample(a, b).statistic
        for transform in (np.exp, np.arctan, lambda x: x**3 + 2 * x):
            assert ks_two_sample(transform(a), transform(b)).statistic == base

    def test_ties_handled(self):
        res = ks_two_sample([0, 0, 0, 1], [0, 0, 1, 1])
        assert 0.0 < res.statistic <= 1.0


class TestKolmogorovSf:
    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-80

    def test_matches_scipy(self):
        for x in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0):
            assert kolmogorov_sf(x) == pytest.approx(
                scipy.stats.kstwobign.sf(x), abs=1e-10)

    def test_small_distances(self):
        # the alternating series converges too slowly below x ~ 0.03
        for x in (1e-4, 0.01, 0.02):
            assert kolmogorov_sf(x) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _assert_matches_special(ours, xs):
        ref = scipy.special.kolmogorov(xs)
        tiny = ref <= 1e-300
        np.testing.assert_allclose(ours[~tiny], ref[~tiny], rtol=1e-13, atol=0)
        np.testing.assert_allclose(ours[tiny], ref[tiny], rtol=0, atol=1e-16)

    def test_matches_scipy_special_across_cutover(self):
        cut = 0.82
        xs = np.concatenate([np.linspace(0.01, 6.0, 20001),
                             [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)],
                             np.linspace(cut - 1e-3, cut + 1e-3, 201)])
        self._assert_matches_special(np.array([kolmogorov_sf(x) for x in xs]), xs)

    @pytest.mark.parametrize("n, en", [(5000, math.sqrt(5000)),
                                       (2000, math.sqrt(1000))], ids=["C6", "C8"])
    def test_matches_scipy_special_at_stephens_arguments(self, n, en):
        # C8's two samples of 2000 take the distances k/2000; C6's one-sample
        # D is continuous, so the grid k/5000 at its effective size
        d = np.arange(1, n + 1) / n
        ours = np.array([_stephens_pvalue(di, en) for di in d])
        self._assert_matches_special(ours, (en + 0.12 + 0.11 / en) * d)


class TestNormalCdf:
    def test_matches_scipy_special_ndtr(self):
        z = np.linspace(-8.0, 8.0, 20001)
        np.testing.assert_allclose(_normal_cdf(z), scipy.special.ndtr(z),
                                   rtol=1e-13, atol=0)

    def test_far_left_tail(self):
        z = np.linspace(-37.0, -8.0, 5001)
        ref = scipy.special.ndtr(z)
        assert ref.min() > 0
        np.testing.assert_allclose(_normal_cdf(z), ref, rtol=1e-10, atol=0)


class TestKsOneSampleNormal:
    def test_matches_scipy_kstest(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.1, 1.2, size=500)
        ours = ks_one_sample_normal(x, mean=0.0, std=1.0)
        ref = scipy.stats.kstest(x, "norm", mode="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-14)

    def test_quantile_sample_is_not_rejected(self):
        # D = 1/(2n) exactly: the least-rejecting sample there is
        n = 2500
        x = ndtri((np.arange(1, n + 1) - 0.5) / n)
        ours = ks_one_sample_normal(x)
        ref = scipy.stats.kstest(x, "norm")
        assert ours.statistic == pytest.approx(0.5 / n, rel=1e-9)
        assert ref.pvalue == pytest.approx(1.0, abs=1e-12)
        assert ours.p_value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_std(self):
        with pytest.raises(ValueError):
            ks_one_sample_normal([1.0, 2.0], std=0.0)


class TestFitLog2Slope:
    def test_exact_doubling(self):
        slope, stderr = fit_log2_slope([(n, 2.0**n, 0.0) for n in range(3, 9)])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        slope, _ = fit_log2_slope([(n, 3.7, 0.1) for n in (2, 5, 9)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_exponent_recovered(self):
        rng = np.random.default_rng(6)
        pts = []
        for n in range(4, 20):
            v = 2.0 ** (0.2 * n)
            pts.append((n, v * (1 + 0.01 * rng.standard_normal()), 0.01 * v))
        slope, stderr = fit_log2_slope(pts)
        assert slope == pytest.approx(0.2, abs=0.02)
        assert 0 < stderr < 0.02
        assert abs(slope - 0.2) <= 4 * stderr

    def test_stderr_propagated_by_hand(self):
        # n = 2, 4, 6 -> weights (n - 4)/8 = -1/4, 0, 1/4; log2 v = 0, 1, 3
        slope, stderr = fit_log2_slope([(2, 1.0, 0.1), (4, 2.0, 0.3),
                                        (6, 8.0, 0.4)])
        assert slope == pytest.approx(0.75, abs=1e-15)
        log_se = np.array([0.1 / 1.0, 0.3 / 2.0, 0.4 / 8.0]) / np.log(2.0)
        expected = np.sqrt((0.25 * log_se[0]) ** 2 + (0.25 * log_se[2]) ** 2)
        assert stderr == pytest.approx(expected, rel=1e-14)
        # = sqrt(0.1^2 + 0.05^2) / (4 ln 2)
        assert stderr == pytest.approx(np.sqrt(0.0125) / (4 * np.log(2.0)), rel=1e-14)

    def test_requires_three_positive_points(self):
        with pytest.raises(ValueError):
            fit_log2_slope([(1, 1.0, 0.1), (2, 2.0, 0.1)])
        with pytest.raises(ValueError):
            fit_log2_slope([(1, 1.0, 0.1), (2, -2.0, 0.1), (3, 4.0, 0.1)])
        with pytest.raises(ValueError, match="triples"):
            fit_log2_slope([(1, 1.0), (2, 2.0), (3, 4.0)])


class TestVarianceStderr:
    def test_exact_small_sample(self):
        # deviations (-1, -1, -1, 3): s^2 = 12 / 3 = 4, m4 = 84 / 4 = 21
        assert variance_stderr([0.0, 0.0, 0.0, 4.0]) == pytest.approx(math.sqrt(5) / 2,
                                                                      rel=1e-15)

    def test_gaussian_sample_matches_the_normal_formula(self):
        x = np.random.default_rng(5).standard_normal(100_000)
        gaussian = x.var(ddof=1) * math.sqrt(2.0 / (len(x) - 1))
        assert variance_stderr(x) == pytest.approx(gaussian, rel=0.05)

    def test_heavy_tails_widen_it(self):
        # cubes of normals have kurtosis 10395 / 225 = 46.2, so the SE is
        # sqrt(45.2 / 2) = 4.75 times the normal formula's
        x = np.random.default_rng(6).standard_normal(100_000) ** 3
        gaussian = x.var(ddof=1) * math.sqrt(2.0 / (len(x) - 1))
        assert variance_stderr(x) > 3 * gaussian

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            variance_stderr([1.0])


class TestSampleSummary:
    def test_fields(self):
        s = SampleSummary.from_samples(np.arange(101, dtype=float))
        assert s.count == 101
        assert s.mean == 50.0
        assert s.p10 == 10.0 and s.p50 == 50.0 and s.p90 == 90.0
        assert s.variance > 0 and s.stderr == pytest.approx(
            np.sqrt(s.variance / 101))
        assert s.p10 <= s.p50 <= s.p90

    def test_requires_two(self):
        with pytest.raises(ValueError):
            SampleSummary.from_samples([1.0])

    def test_serializable(self):
        d = SampleSummary.from_samples([1.0, 2.0, 3.0]).to_dict()
        assert set(d) == {"count", "mean", "variance", "p10", "p50", "p90", "stderr"}
        r = KsResult(statistic=0.1, p_value=0.5, sizes=(10, 20)).to_dict()
        assert r["sizes"] == [10, 20]
