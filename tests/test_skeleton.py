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


# Devroye's (2009) sampler, which ``skeleton`` used before the table sampler,
# kept as the law oracle.  Its proposal is a_0 itself: a Levy law cut at
# _DEVROYE_T on the left and an exponential tail of rate pi^2/8 on the
# right, with masses _LEFT_MASS and _RIGHT_MASS.
_DEVROYE_T = 0.64
_LEFT_MASS = 2.0 * math.erfc(1.0 / math.sqrt(2.0 * _DEVROYE_T))
_RIGHT_MASS = (4.0 / math.pi) * math.exp(-math.pi**2 * _DEVROYE_T / 8.0)


def _old_devroye_proposals(rng, m):
    """The accepted ones among m of Devroye's proposals, in draw order."""
    from scipy.special import erfcinv

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


def _devroye_exit_times(rng, size):
    """``size`` exit times from Devroye's sampler."""
    parts, have = [], 0
    while have < size:
        parts.append(_old_devroye_proposals(rng, size - have + 16))
        have += len(parts[-1])
    return np.concatenate(parts)[:size]


def _certified(lo, hi, points=65):
    """Whether lo[b] <= f <= hi[b] at ``points`` even points of every bin b."""
    from fbmbt.skeleton import _BINS, _WIDTH
    grid = (np.arange(_BINS)[:, None] + np.linspace(0.0, 1.0, points)) * _WIDTH
    f = exit_time_pdf(grid.ravel()).reshape(grid.shape)
    return bool(np.all(lo[:, None] <= f) and np.all(f <= hi[:_BINS, None]))


class TestExitTimeSampler:
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
        # E tau = 1 and Var tau = 2/3 for exit from (-1, 1), each within 3 SE
        tau = sample_exit_times(SeedRecord(40).generator(), 200_000)
        assert abs(tau.mean() - 1.0) <= 3 * np.sqrt(2.0 / 3.0 / tau.size)
        sq = (tau - tau.mean()) ** 2
        assert abs(tau.var() - 2.0 / 3.0) <= 3 * np.sqrt(sq.var() / tau.size)

    def test_matches_devroye_sampler(self):
        # two-sample KS against the sampler the table replaced
        tau = sample_exit_times(SeedRecord(47).generator(), 200_000)
        oracle = _devroye_exit_times(SeedRecord(48).generator(), 200_000)
        res = ks_two_sample(tau, oracle)
        assert res.p_value > 1e-3, res

    def test_matches_distribution_function(self):
        # one-sample KS of the draws against the series cdf
        tau = sample_exit_times(SeedRecord(41).generator(), 20_000)
        res = scipy.stats.kstest(tau, exit_time_cdf)
        assert res.pvalue > 1e-3, res

    def test_table_certifies_the_density(self):
        from fbmbt.skeleton import _BINS, _exit_time_table
        lo, hi, _, _, squeeze = _exit_time_table()
        assert _certified(lo, hi)
        assert hi[_BINS] == np.inf and squeeze[_BINS] < 0
        np.testing.assert_array_equal(squeeze[:_BINS], lo / hi[:_BINS])

    @pytest.mark.parametrize("x", [0.1, 1 / 3, 1.0, 5.0])
    def test_a_bound_past_the_density_fails_certification(self, x):
        # rising, mode, falling and far bins: a bound moved past the density
        # by 1e-4 of itself fails, and so does the mode's bin bounded by its
        # ends alone
        from fbmbt.skeleton import _WIDTH, _exit_time_table
        lo, hi, _, _, _ = _exit_time_table()
        b = int(x / _WIDTH)
        low_hi = hi.copy()
        low_hi[b] *= 1 - 1e-4
        assert not _certified(lo, low_hi)
        high_lo = lo.copy()
        high_lo[b] *= 1 + 1e-4
        assert not _certified(high_lo, hi)
        ends = exit_time_pdf(np.array([b, b + 1]) * _WIDTH).max() * (1 + 1e-12)
        ends_only = hi.copy()
        ends_only[b] = ends
        assert _certified(lo, ends_only) == (x != 1 / 3)

    def test_acceptance_rule_is_the_density_ratio(self):
        # replayed uniforms: a w just below f(x)/hi_b accepts and one just
        # above rejects, on a squeezed lane (the right end of a falling
        # bin), a lane that S_1 decides (mid-bin), one that the series loop
        # decides (x near 2/pi, where S_1 and S_2 are furthest apart) and a
        # tail lane, whose envelope is a_0 and whose f/a_0 is 1.0 in doubles
        from fbmbt.skeleton import (_BINS, _S2_OVER_S1, _WIDTH, _X_MAX,
                                    _exit_time_table, _series_head,
                                    _table_proposals)

        class _Replay:
            def __init__(self, *draws):
                self.draws = list(draws)

            def random(self, size):
                out = self.draws.pop(0)
                assert out.shape == size
                return out

        lo, hi, keep, _, _ = _exit_time_table()
        bins = np.array([int(1.0 / _WIDTH), int(0.2 / _WIDTH),
                         int(2 / math.pi / _WIDTH), _BINS])
        u0 = (bins + 0.5 * (keep[bins] - bins)) / (_BINS + 1)
        u1 = np.array([0.0, 0.5, 0.5, 0.5])
        x = (bins + 1.0 - u1) * _WIDTH
        x[3] = _X_MAX - (8 / math.pi**2) * math.log(0.5)
        ratio = exit_time_pdf(x) / hi[bins]
        ratio[3] = 1.0
        below, above = ratio * (1 - 1e-9), ratio * (1 + 1e-9)
        assert below[0] * hi[bins[0]] <= lo[bins[0]]  # squeezed
        assert below[1] * hi[bins[1]] > lo[bins[1]]  # past the squeeze
        a0, c = _series_head(x[2])
        s1 = 1 - 3 * math.exp(-2 * c)  # S_1 leaves lane 2 to the loop
        assert a0 * s1 < below[2] * hi[bins[2]] <= a0 * s1 * _S2_OVER_S1
        accepted = _table_proposals(_Replay(np.array([u0, u1, below])), 4)
        np.testing.assert_allclose(accepted, x, rtol=1e-15)
        assert len(_table_proposals(_Replay(np.array([u0, u1, above])), 4)) == 0

    def test_size_zero_and_one(self):
        rng = SeedRecord(45).generator()
        assert sample_exit_times(rng, 0).shape == (0,)
        one = sample_exit_times(rng, 1)
        assert one.shape == (1,) and one[0] > 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="size must be >= 0"):
            sample_exit_times(SeedRecord(45).generator(), -3)

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

    @pytest.mark.parametrize("s, v", [(0.3, 1.5), (0.3, 1.0), (0.3, -0.1),
                                      (0.3, math.nan), (math.inf, 0.3),
                                      (-math.inf, 0.3), (math.nan, 0.3)])
    def test_rejects_bad_input(self, s, v):
        with pytest.raises(ValueError, match="must be"):
            killed_position(s, v)

    @pytest.mark.parametrize("s", [1e-6, 0.3, 0.4])
    def test_zero_quantile_is_the_left_end(self, s):
        # the clock can draw v = 0.0; the Newton start is clamped to -0.999
        # as the normal quantile of 0 is -inf
        u = killed_position(s, 0.0)
        assert -1.0 < u <= -0.999 and killed_position_cdf(u, s) <= 1e-13


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

    def test_times_scale_exactly_until_they_collapse(self):
        sk = sample_walk_exact(1000, 32, seed=2)
        assert np.array_equal(np.ldexp(sk.times, 1000), sample_walk_exact(0, 32, seed=2).times)
        with pytest.raises(ValueError, match="level 1080 collapse.*smallest float"):
            sample_walk_exact(1080, 64, seed=1)  # 2^-1080 < 2^-1074, the least subnormal


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        sk = sample_walk_exact(7, 300, seed=10)
        f = tmp_path / "s.skel"
        write_skeleton(sk, f)
        back = read_skeleton(f)
        assert back.level == 7 and back.mode == "exact"
        np.testing.assert_array_equal(back.walk, sk.walk)
        np.testing.assert_array_equal(back.times, sk.times)
