"""The path-based clock that ``sample_joint`` drew before it went path-free.

Kept only as a test oracle.  Y is sampled at spacing 2^{-(n+2)} over a
horizon a little past t, scanned by ``build_skeleton`` (bridge or naive
mode), and resampled over a horizon 1.5 times longer, from the same stream,
until the skeleton holds floor(2^n t) steps.  A longer draw from the same
stream extends the shorter one, so the retry only reveals more of one path.
Y_t is the sample at t, or a Brownian-bridge draw between the two samples
around t.
"""

import math

from fbmbt.fgn import floor_steps, sample_bm
from fbmbt.skeleton import build_skeleton


def path_joint(level, t, record, mode="bridge"):
    """(Y path, level-n skeleton, Y_t) from the record's "bm" and "bridge" streams."""
    steps = floor_steps(level, t)
    spacing = 2.0 ** (-(level + 2))
    horizon = t + 6.0 * math.sqrt((2.0 / 3.0) * max(t, 1.0) * 2.0**-level) + 64.0 * 2.0**-level
    while True:
        y = sample_bm(horizon, spacing, record.derive("bm"))
        sk = build_skeleton(y, level, mode=mode, seed=record.derive("bridge"))
        if sk.n_steps >= steps:
            break
        horizon *= 1.5
    u = t / spacing
    i = math.floor(u)
    frac = u - i
    if frac == 0.0:
        return y, sk, float(y.values[i])
    g = float(record.derive("bm", 1).generator().standard_normal())
    y_t = (y.values[i] + frac * (y.values[i + 1] - y.values[i])
           + math.sqrt(frac * (1.0 - frac) * spacing) * g)
    return y, sk, float(y_t)
