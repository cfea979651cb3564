"""The joint sample's walk, clock value Y_t and Z_t = X(Y_t).

X is drawn on the level's own grid and Z_t from its exact conditional law
given every increment of that grid (``_x_conditional``).  The law oracles
are a dense-covariance solve, a path drawn eight times finer than the grid
and restricted to it, and the snapped draw that ``sample_joint`` used
before (X on a grid 64 times finer, read at the grid point nearest Y_t).
The path-free walk and Y_t are checked against the path-based clock they
replaced (``path_joint``) and against the moments of Y_t.
"""

import math

import numpy as np
import pytest

from scipy.integrate import quad
from scipy.linalg import solve_toeplitz

from fbmbt.calculus import (JointSample, _increment_solve, _increment_spectra,
                            _pow2_at_least, _x_conditional, sample_joint)
from fbmbt.fgn import (dyadic_step, fbm_covariance, floor_steps,
                       increment_autocovariance, sample_bm,
                       sample_fbm_two_sided)
from fbmbt.skeleton import exit_time_cdf
from fbmbt.stats import ks_one_sample_normal, ks_two_sample
from fbmbt.streams import SeedRecord
from path_joint import path_joint


def _dense_conditional(x, y):
    """Mean and std of X(y) given the grid values, by a dense solve."""
    times = np.delete(x.time_grid(), x.half_extent)  # X(0) = 0 is known
    values = np.delete(x.values, x.half_extent)
    h = x.hurst.value
    cov = fbm_covariance(times[:, None], times[None, :], h)
    cross = fbm_covariance(times, y, h)
    weights = np.linalg.solve(cov, cross)
    var = fbm_covariance(y, y, h) - float(weights @ cross)
    return float(weights @ values), math.sqrt(max(var, 0.0))


def _old_snapped_z_t(hurst, level, t, rec):
    """Z_t as the previous ``sample_joint`` drew it, for t on the clock grid:
    X at spacing 2^{-n/2}/64, read at the grid point nearest Y_t.  The grid
    extent covers Y_t only; it does not change the law of X there."""
    y = sample_bm(t + 1.0, 2.0 ** (-(level + 2)), rec.derive("bm"))
    y_t = y.values[floor_steps(level + 2, t)]
    spacing = dyadic_step(level) / 64
    half = _pow2_at_least(max(abs(y_t) + 2 * spacing, 4 * spacing) / spacing)
    x = sample_fbm_two_sided(hurst, spacing, half, rec.derive("fbm"))
    return x.values[int(round(y_t / spacing)) + half]


class TestConditionalLaw:
    @pytest.mark.parametrize("hurst", [0.2, 0.35, 0.75, 0.9])
    def test_matches_dense_solve(self, hurst):
        x = sample_fbm_two_sided(hurst, 0.25, 8, seed=3)
        for y in (0.3, -0.05, 1.9, -1.7, 0.125):
            mean, std = _x_conditional(x.values, x.spacing, x.hurst.value, y)
            d_mean, d_std = _dense_conditional(x, y)
            assert mean == pytest.approx(d_mean, rel=1e-7, abs=1e-9)
            assert std == pytest.approx(d_std, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("hurst", [0.2, 0.35, 0.75, 0.9])
    def test_coarsened_fine_path(self, hurst):
        # a path 8x finer than the grid, restricted to it: the fine value at
        # an off-grid point, standardized by the conditional law, is N(0, 1)
        # and uncorrelated with the grid increment around the point
        reps, refine, half = 2000, 8, 8
        a = dyadic_step(4)
        base = SeedRecord(40)
        rng = np.random.default_rng(41)
        z = np.empty(reps)
        around = np.empty(reps)
        for rep in range(reps):
            fine = sample_fbm_two_sided(hurst, a / refine, half * refine,
                                        base.derive("replica", rep))
            grid = fine.values[::refine]
            k = int(rng.integers(-(half - 1) * refine, (half - 1) * refine))
            if k % refine == 0:
                k += 1 + int(rng.integers(refine - 1))
            y = k * fine.spacing
            mean, std = _x_conditional(grid, a, hurst, y)
            z[rep] = (fine.values[k + fine.half_extent] - mean) / std
            r = k // refine + half
            around[rep] = grid[r + 1] - grid[r]
        ks = ks_one_sample_normal(z)
        assert ks.p_value > 1e-3, ks
        assert abs(np.corrcoef(z, around)[0, 1]) <= 4 / math.sqrt(reps)

    @pytest.mark.parametrize("k", [-5, -1, 0, 3, 7])
    def test_on_grid_value_is_exact(self, k):
        x = sample_fbm_two_sided(0.35, dyadic_step(6), 8, seed=5)
        mean, std = _x_conditional(x.values, x.spacing, x.hurst.value, k * x.spacing)
        assert mean == x.values[k + x.half_extent]
        assert std == 0.0

    def test_draw_is_mean_plus_std_normal(self):
        rec = SeedRecord(6).derive("replica", 0)
        js = sample_joint(0.35, 8, 1.0, rec)
        mean, std = _x_conditional(js.x.values, js.x.spacing, js.x.hurst.value, js.y_t)
        g = rec.derive("fbm", 1).generator().standard_normal()
        assert js.z_t == mean + std * g
        assert js.x.spacing == dyadic_step(8)

    def test_matches_old_snapped_draw_in_law(self):
        base = SeedRecord(50)
        old = [_old_snapped_z_t(0.35, 6, 1.0, base.derive("replica", 0, r))
               for r in range(2000)]
        new = [sample_joint(0.35, 6, 1.0, base.derive("replica", 1, r)).z_t
               for r in range(2000)]
        ks = ks_two_sample(np.array(old), np.array(new))
        assert ks.p_value > 1e-3, ks


class TestCachedSolve:
    """The Durbin and Gohberg-Semencul solve against Levinson's
    (``scipy.linalg.solve_toeplitz``), the oracle of the dense inverse it
    replaced."""

    @pytest.mark.parametrize("m", [1, 4, 64, 256, 512])
    @pytest.mark.parametrize("hurst", [0.2, 0.35, 0.75, 0.9, 0.99])
    def test_matches_levinson(self, m, hurst):
        rho = increment_autocovariance(np.arange(2 * m), hurst)
        c = np.random.default_rng(m).standard_normal((3, 2 * m))
        expected = np.array([solve_toeplitz(rho, row) for row in c])
        # at H = 0.99 rho is near 1 at every lag, the matrix is ill
        # conditioned and |w| reaches about 140, so both solves lose digits:
        # the bound is relative to the largest weight
        atol = 1e-12 if hurst <= 0.9 else 1e-11 * np.abs(expected).max()
        np.testing.assert_allclose(_increment_solve(c, hurst), expected, rtol=0, atol=atol)

    @pytest.mark.parametrize("m, hurst", [(4, 0.35), (64, 0.2), (256, 0.9)])
    def test_rows_equal_one_row_calls(self, m, hurst):
        rng = np.random.default_rng(m)
        c = rng.standard_normal((5, 2 * m))
        w = _increment_solve(c, hurst)
        values = np.cumsum(rng.standard_normal((5, 2 * m + 1)), axis=1)
        values -= values[:, m, None]
        y = rng.uniform(-m, m, 5) * 0.125
        mean, std = _x_conditional(values, 0.125, hurst, y)
        for r in range(5):
            assert _increment_solve(c[r:r + 1], hurst).tobytes() == w[r].tobytes()
            one = _x_conditional(values[r:r + 1], 0.125, hurst, y[r:r + 1])
            assert (one[0][0], one[1][0]) == (mean[r], std[r])

    def test_cached_and_read_only(self):
        _, spectra = _increment_spectra(16, 0.35)
        assert _increment_spectra(16, 0.35)[1] is spectra
        assert not spectra.flags.writeable
        assert spectra.shape == (2, 2 * 16 + 1)


class TestClock:
    """(S_N, Y_t) against the path-based clock it replaced (tests/path_joint.py)."""

    @pytest.mark.parametrize("level", [6, 8, 10])
    def test_matches_path_clock_in_law(self, level):
        reps = 2000
        base = SeedRecord(63)
        a = dyadic_step(level)
        new = [sample_joint(0.35, level, 1.0, base.derive("replica", 0, r))
               for r in range(reps)]
        s_new = np.array([js.walk[-1] for js in new], dtype=float)
        y_new = np.array([js.y_t for js in new])
        old = [path_joint(level, 1.0, base.derive("replica", 1, r)) for r in range(reps)]
        s_old = np.array([sk.walk[2**level] for _, sk, _ in old], dtype=float)
        y_old = np.array([y_t for _, _, y_t in old])
        for new_v, old_v in ((s_new, s_old), (y_new, y_old),
                             (y_new - a * s_new, y_old - a * s_old)):
            ks = ks_two_sample(new_v, old_v)
            assert ks.p_value > 1e-3, (level, ks)

    def test_second_moment_off_the_clock_grid(self):
        # E[Y_t^2] = t and E[Y_t^4] = 3t^2 at t = 0.3, between two level-2
        # hits of the grid in most draws
        self._check_moments(2, 0.3, 4000, 62)

    @pytest.mark.parametrize("level,t", [(2, 1.0), (5, 0.3), (8, 1.7)])
    def test_moments(self, level, t):
        self._check_moments(level, t, 4000, 64 + level)

    @staticmethod
    def _check_moments(level, t, reps, seed):
        base = SeedRecord(seed)
        ys = np.array([sample_joint(0.35, level, t, base.derive("replica", r)).y_t
                       for r in range(reps)])
        for power, target in ((2, t), (4, 3 * t * t)):
            m = ys**power
            se = m.std(ddof=1) / math.sqrt(reps)
            assert abs(m.mean() - target) <= 4 * se, (power, m.mean(), target, se)

    @pytest.mark.parametrize("level,t", [(2, 0.3), (4, 0.1)])
    def test_step_under_way_follows_the_position(self, level, t):
        # N = 1.  Y^2 - s is a martingale, so E[Y_t Y_{T_1}] = E[t ^ T_1]
        # = int_0^t P(T_1 > s) ds.  When T_1 > t, only a step whose sign
        # follows the position (P(up) = (1 + U)/2) gives E[Y_t Y_{T_1}] its
        # share E[Y_t^2]; a fair sign would give 0 there.
        reps = 8000
        a = dyadic_step(level)
        base = SeedRecord(67)
        prod = np.empty(reps)
        for r in range(reps):
            js = sample_joint(0.35, level, t, base.derive("replica", level, r))
            assert js.walk.tolist() in ([0, 1], [0, -1])
            prod[r] = a * js.walk[1] * js.y_t
        target, _ = quad(lambda s: 1.0 - exit_time_cdf(s / a**2), 0.0, t)
        se = prod.std(ddof=1) / math.sqrt(reps)
        assert abs(prod.mean() - target) <= 4 * se, (prod.mean(), target, se)

    def test_walk_has_unit_steps(self):
        base = SeedRecord(65)
        for r in range(50):
            js = sample_joint(0.35, 6, 1.0, base.derive("replica", r))
            assert np.all(np.abs(np.diff(js.walk)) == 1)
            assert js.walk[0] == 0 and js.n_steps == 64
        js = sample_joint(0.35, 6, 2.0**-8, 66)
        assert js.n_steps == 0 and js.walk.tolist() == [0]


def test_joint_sample_requires_the_level_grid_and_steps():
    js = sample_joint(0.35, 6, 1.0, 70)
    finer = sample_fbm_two_sided(0.35, js.x.spacing / 2, 2 * js.x.half_extent, 71)
    with pytest.raises(ValueError, match="spacing .* is not the level-6 step"):
        JointSample(x=finer, walk=js.walk, level=6,
                    seed_record=js.seed_record, t=1.0, y_t=js.y_t, z_t=js.z_t)
    with pytest.raises(ValueError, match="floor"):
        JointSample(x=js.x, walk=js.walk, level=6,
                    seed_record=js.seed_record, t=4.0, y_t=js.y_t, z_t=js.z_t)
    assert not js.walk.flags.writeable
