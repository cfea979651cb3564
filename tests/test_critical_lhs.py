"""The critical left-hand side against the path-based draw it replaced.

``_old_lhs`` is the previous ``lhs`` of the critical branch, kept as the
law oracle: X and a Brownian W on a grid of spacing 2^-13 sized to |Y_t|,
X(Y_t) snapped to that grid and the correction f'''(X) dW summed forward
from 0 to Y_t.  The present draw uses one unit grid rescaled by
self-similarity and one conditional normal, so the two agree in law, not
bit for bit.
"""

import math

import numpy as np

from fbmbt.calculus import VerifyConfig, _critical_lhs, _pow2_at_least
from fbmbt.fgn import sample_fbm_rows
from fbmbt.stats import ks_two_sample
from fbmbt.streams import KeyedPhilox, SeedRecord
from fbmbt.variations import sine

LHS_SPACING = 2.0**-13


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
            corr = (cfg.kappa3 / 12.0) * float(f3(x[:count[r]]) @ dw)
            lhs[r] = cfg.f(x[snap[r]]) - cfg.f(0.0) + corr
    return lhs


def test_unit_grid_lhs_matches_path_lhs_in_law():
    cfg = VerifyConfig(hurst=1 / 6, f=sine(), t=1.0, levels=(8,),
                       replicas=3000, seed=62)
    old = _old_lhs(cfg, 61)
    new = _critical_lhs(cfg, 0)  # the pool of SeedRecord(62).derive("critical-lhs", 0, r)
    ks = ks_two_sample(old, new)
    assert ks.p_value > 1e-3, (ks, old.std(ddof=1), new.std(ddof=1))
