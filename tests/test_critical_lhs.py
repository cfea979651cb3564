"""The critical left-hand side against the path-based draw it replaced.

``_old_lhs`` is the previous ``lhs`` of the critical branch, kept as the
law oracle: it drew X and a Brownian W on a two-sided grid of spacing
2^-13 sized to |Y_t|, snapped X(Y_t) to that grid and summed the
correction f'''(X) dW forward from 0 to Y_t.  The present draw uses one
unit grid rescaled by self-similarity and one conditional normal, so the
two agree in law, not bit for bit.
"""

import math

import numpy as np

from fbmbt.calculus import KAPPA3, VerifyConfig, _critical_lhs, _pow2_at_least
from fbmbt.fgn import sample_fbm_two_sided
from fbmbt.stats import ks_two_sample
from fbmbt.streams import SeedRecord
from fbmbt.variations import sine

LHS_SPACING = 2.0**-13


def _old_correction_integral(f, x, w, y_t, kappa3=KAPPA3):
    count = int(math.floor(abs(y_t) / x.spacing + 1e-12))
    if count == 0:
        return 0.0
    sign = 1 if y_t >= 0 else -1
    j = sign * np.arange(count) + x.half_extent
    terms = f.derivative(3)(x.values[j]) * (w.values[j + sign] - w.values[j])
    return (kappa3 / 12.0) * math.fsum(terms.tolist())


def _old_lhs(cfg, rec):
    h = LHS_SPACING
    y_t = math.sqrt(cfg.t) * float(rec.derive("bm").generator().standard_normal())
    half = _pow2_at_least(max(abs(y_t) + 2 * h, 4 * h) / h)
    x = sample_fbm_two_sided(cfg.hurst, h, half, rec.derive("fbm"))
    w = sample_fbm_two_sided(0.5, h, half, rec.derive("wiener"))
    corr = _old_correction_integral(cfg.f, x, w, y_t, cfg.kappa3)
    z_t = x.values[int(round(y_t / h)) + x.half_extent]  # nearest grid point
    return float(cfg.f(z_t) - cfg.f(0.0) + corr)


def _pool(draw, cfg, seed, replicas):
    base = SeedRecord(seed)
    return np.array([draw(cfg, base.derive("critical-lhs", 0, rep))
                     for rep in range(replicas)])


def test_unit_grid_lhs_matches_path_lhs_in_law():
    cfg = VerifyConfig(hurst=1 / 6, f=sine(), t=1.0, levels=(8,),
                       replicas=3000, seed=62)
    old = _pool(_old_lhs, cfg, 61, cfg.replicas)
    new = _critical_lhs(cfg, 0)  # the pool of SeedRecord(62).derive("critical-lhs", 0, r)
    ks = ks_two_sample(old, new)
    assert ks.p_value > 1e-3, (ks, old.std(ddof=1), new.std(ddof=1))
