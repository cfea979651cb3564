"""The path-scan oracle, crossing counts, and the exact walk sampler."""

import math

import numpy as np
import pytest
import scipy.stats
from scipy.integrate import quad

from fbmbt.fgn import BmPath, dyadic_step, sample_bm
from fbmbt.skeleton import (CrossingCounts, InsufficientStepsError,
                            SkeletalStructure, crossing_counts, exit_time_cdf,
                            exit_time_pdf, killed_position,
                            killed_position_cdf, read_skeleton,
                            sample_exit_times, sample_walk_exact,
                            updown_difference, write_skeleton)
from fbmbt.stats import ks_two_sample
from fbmbt.streams import SeedRecord
from path_joint import scan_skeleton


def _manual_bm(values, spacing):
    values = np.asarray(values, dtype=float)
    return BmPath(spacing=spacing, horizon=(len(values) - 1) * spacing,
                  values=values, seed_record=SeedRecord(0))


def _manual_skeleton(level, walk):
    walk = np.asarray(walk, dtype=np.int64)
    times = np.arange(len(walk), dtype=float)
    return SkeletalStructure(level=level, times=times, walk=walk,
                             mode="naive", source={"kind": "manual"})


class TestBuildSkeleton:
    """The sequential path scan (tests/path_joint.py), the only path oracle."""

    def test_staircase_path(self):
        # linear ramp 0 -> 3a hits the three grid lines at exact sample times
        n = 4
        a = dyadic_step(n)
        dt = 2.0 ** (-n - 4)
        t = np.arange(0, int(3 * a / dt) + 1) * dt
        path = _manual_bm(t, dt)  # slope 1, horizon 3a
        sk = scan_skeleton(path, n, "naive")
        np.testing.assert_array_equal(sk.walk, [0, 1, 2, 3])
        np.testing.assert_allclose(sk.times, [0.0, a, 2 * a, 3 * a], rtol=0, atol=1e-15)

    def test_descending_staircase(self):
        n = 4
        dt = 2.0 ** (-n - 4)
        t = np.arange(0, int(0.8 / dt) + 1) * dt
        path = _manual_bm(-t, dt)
        sk = scan_skeleton(path, n, "naive")
        np.testing.assert_array_equal(sk.walk[:4], [0, -1, -2, -3])

    def test_empty_structure_is_valid(self):
        n = 4
        dt = 2.0 ** (-n - 4)
        path = _manual_bm(np.zeros(64), dt)
        sk = scan_skeleton(path, n, "naive")
        assert sk.n_steps == 0

    def test_bridge_detects_touching_excursion(self):
        # values stay strictly inside, but graze the boundary so the bridge
        # crossing probability is ~1; naive scanning must miss it
        n = 2
        a = dyadic_step(n)
        dt = 2.0 ** (-n - 4)
        eps = 1e-13
        vals = np.array([0.0, a - eps, a - eps, 0.0, 0.0])
        path = _manual_bm(vals, dt)
        naive = scan_skeleton(path, n, "naive")
        assert naive.n_steps == 0
        bridge = scan_skeleton(path, n, "bridge", seed=3)
        np.testing.assert_array_equal(bridge.walk, [0, 1, 0])
        assert np.all(np.diff(bridge.times) > 0)

    def test_deterministic_given_seed(self):
        y = sample_bm(1.0, 2.0**-9, seed=8)
        a = scan_skeleton(y, 6, "bridge", seed=5)
        b = scan_skeleton(y, 6, "bridge", seed=5)
        np.testing.assert_array_equal(a.walk, b.walk)
        np.testing.assert_array_equal(a.times, b.times)

    def test_walk_steps_are_unit(self):
        y = sample_bm(2.0, 2.0**-10, seed=9)
        sk = scan_skeleton(y, 7, "bridge", seed=9)
        assert sk.n_steps > 0
        assert np.all(np.abs(np.diff(sk.walk)) == 1)
        assert np.all(np.diff(sk.times) > 0)


class TestCrossingCounts:
    def test_documented_example_up(self):
        sk = _manual_skeleton(2, [0, 1, 2, 1])
        cc = crossing_counts(sk, 0.75)  # floor(4 * 0.75) = 3 steps
        assert cc.up == {0: 1, 1: 1}
        assert cc.down == {1: 1}
        assert cc.terminal == 1

    def test_documented_example_down(self):
        sk = _manual_skeleton(2, [0, -1, 0, -1])
        cc = crossing_counts(sk, 0.75)
        assert cc.up == {-1: 1}
        assert cc.down == {-1: 2}
        assert cc.terminal == -1

    def test_conservation(self):
        sk = sample_walk_exact(5, 400, seed=2)
        cc = crossing_counts(sk, 400 * 2.0**-5)
        assert cc.n_steps == 400

    def test_insufficient_steps_names_shortfall(self):
        sk = _manual_skeleton(3, [0, 1, 0])
        with pytest.raises(InsufficientStepsError, match="short by 6"):
            crossing_counts(sk, 1.0)  # needs 8 steps, has 2

    def test_zero_horizon(self):
        sk = _manual_skeleton(3, [0, 1])
        cc = crossing_counts(sk, 0.0)
        assert cc.n_steps == 0 and cc.terminal == 0


class TestUpdownDifference:
    @pytest.mark.parametrize("terminal,j,expected", [
        (2, 1, 1), (2, 0, 1), (2, 2, 0), (2, -1, 0),
        (0, 0, 0), (0, 5, 0), (0, -5, 0),
        (-3, -1, -1), (-3, -3, -1), (-3, -4, 0), (-3, 0, 0),
    ])
    def test_closed_form(self, terminal, j, expected):
        assert updown_difference(terminal, j) == expected

    def test_exhaustive_equivalence_short_walks(self):
        # every sign sequence of length <= 12: counts match the closed form
        for length in range(1, 13):
            for bits in range(2**length):
                walk = np.zeros(length + 1, dtype=np.int64)
                for i in range(length):
                    walk[i + 1] = walk[i] + (1 if (bits >> i) & 1 else -1)
                sk = _manual_skeleton(2, walk)
                cc = crossing_counts(sk, length / 4.0)
                assert cc.n_steps == length
                for j in range(walk.min() - 1, walk.max() + 1):
                    diff = cc.up.get(j, 0) - cc.down.get(j, 0)
                    assert diff == updown_difference(cc.terminal, j)

    def test_random_long_walks(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            steps = rng.choice([-1, 1], size=200)
            walk = np.concatenate([[0], np.cumsum(steps)])
            sk = _manual_skeleton(2, walk)
            cc = crossing_counts(sk, 50.0)
            for j in range(walk.min() - 1, walk.max() + 1):
                assert cc.up.get(j, 0) - cc.down.get(j, 0) == \
                    updown_difference(cc.terminal, j)


def _old_devroye_proposals(rng, m):
    """``skeleton._devroye_proposals`` as it was before x and c were computed
    on the left and right index sets apart; the bit-for-bit oracle."""
    from scipy.special import erfcinv

    from fbmbt.skeleton import _DEVROYE_T, _LEFT_MASS, _RIGHT_MASS
    v = (1.0 - rng.random(m)) * (_LEFT_MASS + _RIGHT_MASS)  # in (0, p + q]
    w = rng.random(m)
    left = v <= _LEFT_MASS
    x = np.empty(m)
    # Levy law cut at T: erfc(1/sqrt(2x)) = v/2 inverts its mass below x
    z = erfcinv(0.5 * v[left])
    x[left] = 0.5 / (z * z)
    right = ~left
    x[right] = _DEVROYE_T - (8.0 / math.pi**2) * np.log((v[right] - _LEFT_MASS) / _RIGHT_MASS)
    c = np.where(left, 2.0 / x, (0.5 * math.pi**2) * x)
    # accept when w <= S_1 = 1 - a_1/a_0; past S_1 (about 0.3 % of the
    # lanes) walk the alternating partial sums until one decides
    s = 1.0 - 3.0 * np.exp(-2.0 * c)
    accept = w <= s
    for i in np.flatnonzero(~accept):
        partial, ci, n = float(s[i]), float(c[i]), 2
        while True:
            term = (2 * n + 1) * math.exp(-n * (n + 1) * ci)
            if n % 2 == 0:
                partial += term
                if w[i] > partial:
                    break
            else:
                partial -= term
                if w[i] <= partial:
                    accept[i] = True
                    break
            n += 1
    return x[accept]


class TestExitTimeSampler:
    @pytest.mark.parametrize("m, calls", [(1, 12000), (2, 6000), (5, 2400),
                                          (4164, 4)])
    def test_proposals_match_the_old_sampler_bit_for_bit(self, m, calls):
        # both samplers consume 2m uniforms per call, so two generators on
        # one seed stay in step; rejections come only out of the
        # alternating-series loop, so counting them shows the loop ran
        from fbmbt.skeleton import _devroye_proposals
        old_rng = np.random.Generator(np.random.Philox(78))
        new_rng = np.random.Generator(np.random.Philox(78))
        rejected = 0
        for _ in range(calls):
            old = _old_devroye_proposals(old_rng, m)
            assert _devroye_proposals(new_rng, m).tobytes() == old.tobytes()
            rejected += m - len(old)
        assert rejected >= 3
    def test_cdf_monotone_and_continuous_at_crossover(self):
        t = np.linspace(1e-3, 3.0, 4000)
        cdf = exit_time_cdf(t)
        assert np.all(np.diff(cdf) >= -1e-13)
        lo, hi = exit_time_cdf(np.array([0.4 - 1e-9, 0.4 + 1e-9]))
        assert abs(hi - lo) < 1e-7

    def test_pdf_integrates_to_cdf(self):
        # quadrature of the density reproduces the distribution function
        from scipy.integrate import quad
        for t_end in (0.2, 0.7, 2.0):
            val, _ = quad(exit_time_pdf, 0, t_end, limit=200)
            assert val == pytest.approx(exit_time_cdf(t_end), abs=1e-8)

    def test_moments(self):
        # E tau = 1, Var tau = 2/3 for exit from (-1, 1)
        rng = SeedRecord(40).generator()
        tau = sample_exit_times(rng, 40_000)
        assert abs(tau.mean() - 1.0) <= 3 * np.sqrt(2.0 / 3.0 / tau.size)
        assert abs(tau.var(ddof=1) - 2.0 / 3.0) <= 0.03

    def test_matches_distribution_function(self):
        # one-sample KS of Devroye's draws against the series cdf
        tau = sample_exit_times(SeedRecord(41).generator(), 20_000)
        res = scipy.stats.kstest(tau, exit_time_cdf)
        assert res.pvalue > 1e-3, res

    def test_acceptance_rule_is_the_density_ratio(self):
        # proposals at known points: a uniform just below the ratio of the
        # density to the envelope a_0 accepts, one just above rejects
        from fbmbt.skeleton import (_DEVROYE_T, _LEFT_MASS, _RIGHT_MASS,
                                    _devroye_proposals)
        from scipy.special import erfcinv

        class _Replay:
            def __init__(self, *draws):
                self.draws = list(draws)

            def random(self, size):
                out = self.draws.pop(0)
                assert size == len(out)
                return out

        v = np.linspace(0.0, 1.0, 401)[1:] * (_LEFT_MASS + _RIGHT_MASS)
        left = v <= _LEFT_MASS
        x = np.where(left, 0.5 / erfcinv(0.5 * np.minimum(v, _LEFT_MASS)) ** 2,
                     _DEVROYE_T - (8 / np.pi**2)
                     * np.log(np.maximum(v - _LEFT_MASS, 1e-300) / _RIGHT_MASS))
        envelope = np.where(left,
                            (np.pi / 2) * (2 / (np.pi * x)) ** 1.5 * np.exp(-0.5 / x),
                            (np.pi / 2) * np.exp(-np.pi**2 * x / 8))
        ratio = exit_time_pdf(x) / envelope
        assert np.all((ratio > 0.99) & (ratio <= 1.0))
        u = 1.0 - v / (_LEFT_MASS + _RIGHT_MASS)
        below = _devroye_proposals(_Replay(u, ratio * (1 - 1e-9)), len(v))
        np.testing.assert_allclose(below, x, rtol=1e-12)
        assert len(_devroye_proposals(_Replay(u, ratio * (1 + 1e-9)), len(v))) == 0

    def test_size_zero_and_one(self):
        rng = SeedRecord(45).generator()
        assert sample_exit_times(rng, 0).shape == (0,)
        one = sample_exit_times(rng, 1)
        assert one.shape == (1,) and one[0] > 0

    def test_pdf_early_break_keeps_values(self):
        # the small-t pdf loop now stops once every term is below 1e-12; the
        # values equal the full 12-term series and a central difference of
        # the cdf
        t = np.concatenate([np.geomspace(1e-3, 0.4, 300), np.linspace(0.41, 6.0, 300)])
        full = np.zeros_like(t)
        small = t <= 0.4
        ts = t[small]
        acc = np.zeros_like(ts)
        for k in range(12):
            c = 2 * k + 1
            acc += (-1) ** k * c * np.exp(-(c * c) / (2.0 * ts))
        full[small] = np.sqrt(2.0 / np.pi) * ts**-1.5 * acc
        full[~small] = exit_time_pdf(t[~small])
        pdf = exit_time_pdf(t)
        np.testing.assert_allclose(pdf, full, rtol=1e-12, atol=0)
        h = 1e-5 * t
        diff = (exit_time_cdf(t + h) - exit_time_cdf(t - h)) / (2 * h)
        big = pdf > 1e-6
        np.testing.assert_allclose(pdf[big], diff[big], rtol=1e-5)

    def test_against_simulated_exit_times(self):
        # independent oracle: finely discretized Brownian paths run to exit
        rng = np.random.default_rng(99)
        dt, reps, max_steps = 1e-3, 1500, 40_000
        taus = np.empty(reps)
        chunk = 250
        done = 0
        while done < reps:
            rows = min(chunk, reps - done)
            paths = np.cumsum(rng.standard_normal((rows, max_steps)) * np.sqrt(dt), axis=1)
            hit = np.abs(paths) >= 1.0
            idx = np.argmax(hit, axis=1)
            ok = hit[np.arange(rows), idx]
            assert np.all(ok), "increase max_steps"
            taus[done:done + rows] = (idx + 1) * dt
            done += rows
        draws = sample_exit_times(SeedRecord(42).generator(), reps)
        res = ks_two_sample(taus, draws)
        assert res.p_value > 0.005, res


class TestKilledPosition:
    """Position of BM from 0 at time s, given that it has not left (-1, 1)."""

    @staticmethod
    def _integrated_cdf(s):
        # independent oracle: the image-series density with 41 images,
        # integrated by quadrature on a fine grid and normalized
        u = np.linspace(-1.0, 1.0, 4001)
        m = np.arange(-20, 21)[:, None]
        dens = np.sum((-1.0) ** m * np.exp(-(u - 2 * m) ** 2 / (2 * s)), axis=0)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(u))])
        cum /= cum[-1]
        return lambda x: np.interp(x, u, cum)

    @pytest.mark.parametrize("s", [0.05, 0.3, 1.0, 3.0])
    def test_against_integrated_image_series(self, s):
        v = SeedRecord(46).derive("replica", int(100 * s)).generator().random(2000)
        draws = np.array([killed_position(s, float(p)) for p in v])
        assert np.all(np.abs(draws) < 1.0)
        res = scipy.stats.kstest(draws, self._integrated_cdf(s))
        assert res.pvalue > 1e-3, res

    @pytest.mark.parametrize("s", [1e-6, 0.05, 0.4, 0.40001, 3.0, 40.0])
    def test_inverts_its_distribution_function(self, s):
        for v in (1e-9, 0.01, 0.3, 0.5, 0.77, 0.999):
            u = killed_position(s, v)
            assert -1.0 < u < 1.0
            assert abs(killed_position_cdf(u, s) - v) <= 1e-13

    def test_series_agree_at_the_crossover(self):
        # the image and eigen forms meet at s = 0.4; compare at 0.4 by
        # integrating the eigen density numerically
        s = 0.4
        k = np.arange(12)
        def eigen(x):
            return float(np.sum(np.cos((2 * k + 1) * math.pi * x / 2)
                                * np.exp(-((2 * k + 1) ** 2) * math.pi**2 * s / 8)))
        alive, _ = quad(eigen, -1, 1)
        for u in (-0.9, -0.2, 0.0, 0.35, 0.8):
            val, _ = quad(eigen, -1, u)
            assert killed_position_cdf(u, s) == pytest.approx(val / alive, abs=1e-12)
            assert killed_position_cdf(u, 0.40001) == pytest.approx(val / alive, abs=1e-4)

    def test_zero_time_is_the_start(self):
        assert killed_position(0.0, 0.3) == 0.0


class TestSampleWalkExact:
    def test_unit_steps_and_zero_mean(self):
        sk = sample_walk_exact(8, 20_000, seed=6)
        inc = np.diff(sk.walk)
        assert np.all(np.abs(inc) == 1)
        assert abs(inc.mean()) <= 3.0 / np.sqrt(inc.size)

    def test_mean_first_time(self):
        # E[T_{1,n}] = 2^{-n}, 10^4 draws, 3 SE
        n, draws = 9, 10_000
        base = SeedRecord(43)
        t1 = np.array([
            sample_walk_exact(n, 1, base.derive("replica", r)).times[1]
            for r in range(draws)
        ])
        se = np.sqrt(2.0 / 3.0) * 2.0**-n / np.sqrt(draws)
        assert abs(t1.mean() - 2.0**-n) <= 3 * se

    def test_walk_position_is_asymptotically_normal(self):
        # Donsker scale: walk[2^n t] / 2^{n/2} vs N(0, t) at n = 12, 10^4 reps
        n, t, reps = 12, 1.0, 10_000
        steps = int(2**n * t)
        base = SeedRecord(44)
        pos = np.array([
            sample_walk_exact(n, steps, base.derive("replica", r),
                              with_times=False).walk[steps]
            for r in range(reps)
        ]) * 2.0 ** (-n / 2)
        from fbmbt.stats import ks_one_sample_normal
        res = ks_one_sample_normal(pos, mean=0.0, std=np.sqrt(t))
        assert res.p_value > 0.01, res

    def test_mean_spaced_times_mode(self):
        sk = sample_walk_exact(4, 16, seed=3, with_times=False)
        np.testing.assert_allclose(np.diff(sk.times), 2.0**-4, rtol=0, atol=0)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            sample_walk_exact(4, 0, seed=1)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        sk = sample_walk_exact(7, 300, seed=10)
        f = tmp_path / "s.skel"
        write_skeleton(sk, f)
        back = read_skeleton(f)
        assert back.level == 7 and back.mode == "exact"
        np.testing.assert_array_equal(back.walk, sk.walk)
        np.testing.assert_array_equal(back.times, sk.times)
