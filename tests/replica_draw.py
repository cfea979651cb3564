"""The per-replica draws that the branches made before each level was drawn
in one pass.

Kept only as test oracles for the one-pass level draws in ``calculus`` and
for ``sample_joint``, their one-replica case: one fresh generator per
stream and one fGn path per replica.
"""

import math

import numpy as np

from fbmbt.calculus import (KAPPA3, LHS_CELLS, _as_weight, _pow2_at_least,
                            _x_conditional)
from fbmbt.fgn import (dyadic_step, floor_steps, sample_fbm_two_sided,
                       sample_fgn)
from fbmbt.skeleton import killed_position, sample_exit_times
from fbmbt.variations import symmetric_cell_sum


def walk_end_and_x(cfg, level, rec):
    """Terminal index j* of the exact level-n walk at t, and the one-sided
    fGn row (spacing 2^{-n/2}) whose first |j*| increments the sums read.

    The row holds the least power of two >= |j*| increments; it is drawn
    only when j* is nonzero, otherwise every cell sum is empty and the row
    is None.
    """
    steps = floor_steps(level, cfg.t)
    jstar = 2 * int(rec.derive("walk").generator().binomial(steps, 0.5)) - steps
    if jstar == 0:
        return 0, None
    return jstar, sample_fgn(cfg.hurst, dyadic_step(level),
                             _pow2_at_least(abs(jstar)), rec.derive("fbm"))


def joint_sample(hurst, level, t, rec):
    """(walk, y_t, x, z_t, whether the N-th grid hit came by t) as
    ``sample_joint`` drew them from the record ``rec``, with one fresh
    generator per stream: the walk and Y_t from "bm", X from "fbm" and the
    normal of Z_t from ("fbm", 1)."""
    n_steps = floor_steps(level, t)
    a = dyadic_step(level)
    clock = rec.derive("bm").generator()
    hits = np.cumsum(sample_exit_times(clock, n_steps))
    steps = 2 * clock.integers(0, 2, size=n_steps) - 1
    done = int(np.searchsorted(hits, t * 2.0**level, side="right"))  # = k - 1
    if done == n_steps:
        last = hits[-1] * 2.0**-level if n_steps else 0.0
        y_t = a * int(steps.sum()) + math.sqrt(t - last) * float(clock.standard_normal())
    else:
        elapsed = t * 2.0**level - (hits[done - 1] if done else 0.0)
        v, coin = clock.random(2)
        pos = killed_position(elapsed, float(v))
        steps[done] = 1 if coin < 0.5 * (1.0 + pos) else -1
        y_t = a * (int(steps[:done].sum()) + pos)
    walk = np.concatenate([[0], np.cumsum(steps)])
    walk_reach = int(np.max(np.abs(walk))) + 1
    need = max(walk_reach * a, abs(y_t) + 2 * a, 4 * a)
    x = sample_fbm_two_sided(hurst, a, _pow2_at_least(need / a), rec.derive("fbm"))
    mean, std = _x_conditional(x.values, x.spacing, x.hurst.value, y_t)
    z_t = float(mean + std * rec.derive("fbm", 1).generator().standard_normal())
    return walk, y_t, x, z_t, done == n_steps


def supercritical_pair(cfg, level, rec):
    """One supercritical replica as ``sample_joint`` and ``ito_residual_pair``
    drew it: (f(Z_t) - f(0) - V_n, f(Z_{T_N}) - f(0) - V_n), and whether the
    N-th grid hit came by t."""
    walk, _, x, z_t, hit_by_t = joint_sample(cfg.hurst, level, cfg.t, rec)
    f = cfg.f
    terminal = int(walk[-1])
    v = symmetric_cell_sum(_as_weight(f, 1), x, level, terminal, 1)
    z_end = x.values[terminal + x.half_extent]
    pair = (float(f(z_t) - f(0.0) - v), float(f(z_end) - f(0.0) - v))
    return pair, hit_by_t


def critical_lhs(cfg, rec):
    """One draw of f(Z_t) - f(0) + (KAPPA3/12) int_0^{Y_t} f'''(X) dW."""
    y_t = math.sqrt(cfg.t) * float(rec.derive("bm").generator().standard_normal())
    unit = sample_fgn(cfg.hurst, 1.0 / LHS_CELLS, LHS_CELLS, rec.derive("fbm"))
    x = np.concatenate([[0.0], np.cumsum(unit)]) * abs(y_t) ** cfg.hurst
    g = float(rec.derive("wiener").generator().standard_normal())
    f3 = np.asarray(cfg.f.derivative(3)(x[:-1]), dtype=float)
    std = (KAPPA3 / 12.0) * math.sqrt(abs(y_t) / LHS_CELLS
                                      * float(np.add.reduce(f3 * f3)))
    corr = std * g
    return float(cfg.f(x[-1]) - cfg.f(0.0) + corr)
