"""The per-replica draw that the subcritical replica and the critical
right-hand side made before a level was drawn in one pass.

Kept only as a test oracle for ``calculus._walk_ends_and_x``: one fresh
generator per stream and one fGn path per replica.
"""

from fbmbt.calculus import _pow2_at_least
from fbmbt.fgn import dyadic_step, floor_steps, sample_fbm_two_sided


def walk_end_and_x(cfg, level, rec):
    """Terminal index of the exact level-n walk at t, and X over its cells.

    X (spacing 2^{-n/2}) is drawn only when the terminal index is nonzero;
    otherwise every cell sum is empty and X is None.
    """
    steps = floor_steps(level, cfg.t)
    jstar = 2 * int(rec.derive("walk").generator().binomial(steps, 0.5)) - steps
    if jstar == 0:
        return 0, None
    half = _pow2_at_least(abs(jstar) + 2)
    return jstar, sample_fbm_two_sided(cfg.hurst, dyadic_step(level), half,
                                       rec.derive("fbm"))
