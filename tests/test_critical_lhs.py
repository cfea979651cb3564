"""The critical left-hand side against the path-based draw it replaced.

``_old_lhs`` is the previous ``lhs`` of the critical branch, kept as the
law oracle: X and a Brownian W on a grid of spacing 2^-13 sized to |Y_t|,
X(Y_t) snapped to that grid and the correction f'''(X) dW summed forward
from 0 to Y_t.  The present draw uses one unit grid rescaled by
self-similarity and one conditional normal, so the two agree in law, not
bit for bit.  ``_two_sided_lhs`` is the draw before the unit row became
one-sided: the same increments, summed over a two-sided row and re-based at
its left end, so the two agree within a rounding bound.
"""

import math

import numpy as np

import pytest

from fbmbt.calculus import (KAPPA3, LHS_CELLS, VerifyConfig, _critical_lhs,
                            _pow2_at_least)
from fbmbt.fgn import sample_fbm_rows, sample_fbm_two_sided
from fbmbt.stats import ks_two_sample
from fbmbt.streams import KeyedPhilox, SeedRecord
from fbmbt.variations import sine

LHS_SPACING = 2.0**-13
U = 2.0**-53  # unit roundoff


def _old_lhs(cfg, seed):
    """One draw per replica r of ``SeedRecord(seed).derive("critical-lhs", 0,
    r)``: Y_t from "bm", X from "fbm" and W's increments from "wiener".

    X(-s) and X(s), s >= 0, have one law, as do W's increments, so the grid
    is read from 0 towards |Y_t|.  X is the left end of a two-sided row
    re-based to 0 there, which fGn's stationarity allows; rows are drawn in
    groups of one power-of-two size, just covering the cells read.
    """
    h = LHS_SPACING
    rec = SeedRecord(seed).derive("critical-lhs", 0)
    reps = np.arange(cfg.replicas)
    stream = KeyedPhilox()
    y_t = np.array([math.sqrt(cfg.t) * float(stream.at(k).standard_normal())
                    for k in rec.philox_keys(reps, "bm")])
    count = np.floor(np.abs(y_t) / h + 1e-12).astype(int)  # forward Ito terms
    snap = np.rint(np.abs(y_t) / h).astype(int)  # nearest grid point to |Y_t|
    half = _pow2_at_least((np.maximum(count, snap) + 1) / 2)
    wiener_keys = rec.philox_keys(reps, "wiener")
    f3 = cfg.f.derivative(3)
    lhs = np.empty(cfg.replicas)
    for index, rows in sample_fbm_rows(cfg.hurst, h, half, rec.philox_keys(reps, "fbm"),
                                       stream):
        for r, row in zip(index.tolist(), rows):
            x = row - row[0]
            dw = math.sqrt(h) * stream.at(wiener_keys[r]).standard_normal(count[r])
            corr = (KAPPA3 / 12.0) * float(f3(x[:count[r]]) @ dw)
            lhs[r] = cfg.f(x[snap[r]]) - cfg.f(0.0) + corr
    return lhs


def test_unit_grid_lhs_matches_path_lhs_in_law():
    cfg = VerifyConfig(hurst=1 / 6, f=sine(), t=1.0, levels=(8,),
                       replicas=3000, seed=62)
    old = _old_lhs(cfg, 61)
    new = _critical_lhs(cfg, 0)  # the pool of SeedRecord(62).derive("critical-lhs", 0, r)
    ks = ks_two_sample(old, new)
    assert ks.p_value > 1e-3, (ks, old.std(ddof=1), new.std(ddof=1))


def _two_sided_lhs(cfg, rec):
    """One draw as ``_critical_lhs`` made it from a two-sided unit row
    re-based at its left end, and the rounding bound of its distance to the
    one-sided draw, for f = sin.

    Both draws sum the same increments into the same c_k.  The two-sided one
    reads d_k = (c_k - c_m) - (0 - c_m), m = LHS_CELLS / 2, so
    |d_k - c_k| <= u (|c_k - c_m| + |c_k|) <= 3u max|c|, and after the
    scaling by s = |Y_t|^H the paths differ by at most 5u s max|c| <= 6u M,
    M = max|x|.  With |sin'| <= 1, Z_t moves f(Z_t) by at most that, and
    with |cos'| <= 1 the norm sqrt(sum_k cos(x_k)^2) moves by at most
    sqrt(LHS_CELLS) times it, so the correction (KAPPA3/12) |g|
    sqrt(|Y_t| / LHS_CELLS) times that norm moves by (KAPPA3/12) |g|
    sqrt(|Y_t|) 6u M.  Each side's own rounding (sin and cos within 4 ulp,
    the pairwise sum of 2^13 squares within 25 roundings, the products,
    the square root and the final sums) stays below 64u (1 + |corr| + |lhs|).
    """
    y_t = math.sqrt(cfg.t) * float(rec.derive("bm").generator().standard_normal())
    unit = sample_fbm_two_sided(cfg.hurst, 1.0 / LHS_CELLS, LHS_CELLS // 2,
                                rec.derive("fbm")).values
    x = (unit - unit[0]) * abs(y_t) ** cfg.hurst
    g = float(rec.derive("wiener").generator().standard_normal())
    f3 = np.asarray(cfg.f.derivative(3)(x[:-1]), dtype=float)
    std = (KAPPA3 / 12.0) * math.sqrt(abs(y_t) / LHS_CELLS
                                      * float(np.add.reduce(f3 * f3)))
    corr = std * g
    lhs = float(cfg.f(x[-1]) - cfg.f(0.0) + corr)
    path = 6 * U * float(np.max(np.abs(x)))
    tol = path * (1 + KAPPA3 / 12.0 * abs(g) * math.sqrt(abs(y_t))) \
        + 64 * U * (1 + abs(corr) + abs(lhs))
    return lhs, tol


@pytest.mark.parametrize("t", [1.0, 0.3])
def test_one_sided_row_matches_the_two_sided_draw_it_replaced(t):
    cfg = VerifyConfig(hurst=1 / 6, f=sine(), t=t, levels=(6,),
                       replicas=200, seed=63)
    new = _critical_lhs(cfg, 6)
    base = SeedRecord(63).derive("critical-lhs", 6)
    old, tol = np.array([_two_sided_lhs(cfg, base.derive(rep))
                         for rep in range(cfg.replicas)]).T
    gap = np.abs(new - old)
    assert np.all(gap <= tol), (gap / tol).max()
