"""The joint sample's clock value Y_t and Z_t = X(Y_t).

X is drawn on the level's own grid and Z_t from its exact conditional law
given every increment of that grid (``_x_conditional``).  The law oracles
are a dense-covariance solve, a path drawn eight times finer than the grid
and coarsened to it, and the snapped draw that ``sample_joint`` used
before (X on a grid 64 times finer, read at the grid point nearest Y_t).
"""

import math

import numpy as np
import pytest

from fbmbt.calculus import (JointSample, _pow2_at_least, _x_conditional,
                            sample_joint)
from fbmbt.fgn import (coarsen, dyadic_step, fbm_covariance, floor_steps,
                       sample_bm, sample_fbm_two_sided)
from fbmbt.stats import ks_one_sample_normal, ks_two_sample
from fbmbt.streams import SeedRecord


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
            mean, std = _x_conditional(x, y)
            d_mean, d_std = _dense_conditional(x, y)
            assert mean == pytest.approx(d_mean, rel=1e-7, abs=1e-9)
            assert std == pytest.approx(d_std, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("hurst", [0.2, 0.35, 0.75, 0.9])
    def test_coarsened_fine_path(self, hurst):
        # a path 8x finer than the grid, coarsened to it: the fine value at
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
            grid = coarsen(fine, refine)
            k = int(rng.integers(-(half - 1) * refine, (half - 1) * refine))
            if k % refine == 0:
                k += 1 + int(rng.integers(refine - 1))
            y = k * fine.spacing
            mean, std = _x_conditional(grid, y)
            z[rep] = (fine.values[k + fine.half_extent] - mean) / std
            r = k // refine + grid.half_extent
            around[rep] = grid.values[r + 1] - grid.values[r]
        ks = ks_one_sample_normal(z)
        assert ks.p_value > 1e-3, ks
        assert abs(np.corrcoef(z, around)[0, 1]) <= 4 / math.sqrt(reps)

    @pytest.mark.parametrize("k", [-5, -1, 0, 3, 7])
    def test_on_grid_value_is_exact(self, k):
        x = sample_fbm_two_sided(0.35, dyadic_step(6), 8, seed=5)
        mean, std = _x_conditional(x, k * x.spacing)
        assert mean == x.values[k + x.half_extent]
        assert std == 0.0

    def test_draw_is_mean_plus_std_normal(self):
        rec = SeedRecord(6).derive("replica", 0)
        js = sample_joint(0.35, 8, 1.0, rec)
        mean, std = _x_conditional(js.x, js.y_t)
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


class TestClock:
    def test_sample_time_keeps_the_sample(self):
        for level in (2, 5, 8):
            js = sample_joint(0.35, level, 1.0, SeedRecord(60).derive("replica", level))
            assert js.y_t == js.y.values[2 ** (level + 2)]

    def test_bridge_draw_between_samples(self):
        # t = 0.3 lies at 0.8 of the level-2 clock interval [0.25, 0.3125]
        rec = SeedRecord(61)
        js = sample_joint(0.35, 2, 0.3, rec)
        y0, y1 = js.y.values[4:6]
        g = rec.derive("bm", 1).generator().standard_normal()
        frac = 0.3 / js.y.spacing - 4
        expected = y0 + frac * (y1 - y0) + math.sqrt(frac * (1 - frac) * js.y.spacing) * g
        assert js.t == 0.3
        assert js.y_t == expected

    def test_second_moment_off_the_clock_grid(self):
        # E[Y_t^2] = t; the sample at floor(t/spacing) gives 0.25 instead
        t, reps = 0.3, 4000
        base = SeedRecord(62)
        ys = np.array([sample_joint(0.35, 2, t, base.derive("replica", r)).y_t
                       for r in range(reps)])
        sq = ys * ys
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - t) <= 4 * se, (sq.mean(), se)


def test_joint_sample_requires_the_level_grid_and_steps():
    js = sample_joint(0.35, 6, 1.0, 70)
    finer = sample_fbm_two_sided(0.35, js.x.spacing / 2, 2 * js.x.half_extent, 71)
    with pytest.raises(ValueError, match="spacing"):
        JointSample(x=finer, y=js.y, skeleton=js.skeleton, level=6,
                    seed_record=js.seed_record, t=1.0, y_t=js.y_t, z_t=js.z_t)
    with pytest.raises(ValueError, match="skeleton does not reach"):
        JointSample(x=js.x, y=js.y, skeleton=js.skeleton, level=6,
                    seed_record=js.seed_record, t=4.0, y_t=js.y_t, z_t=js.z_t)
