"""The path-based clock that ``sample_joint`` drew before it went path-free.

Kept only as a test oracle.  Y is sampled at spacing 2^{-(n+2)} over a
horizon a little past t, scanned sample by sample by ``_scan_crossings``,
and resampled over a horizon 1.5 times longer, from the same stream, until
the skeleton holds floor(2^n t) steps.  A longer draw from the same stream
extends the shorter one, so the retry only reveals more of one path.  Y_t
is the sample at t, or a Brownian-bridge draw between the two samples
around t.

``_scan_crossings`` is the per-sample loop ``fbmbt.skeleton`` once ran,
kept as it was except that it takes the samples as a list.  In
``"bridge"`` mode an excursion to a cell boundary between two samples
inside one cell counts when a uniform falls below the Brownian-bridge
boundary-hitting probability exp(-2*(b-y0)*(b-y1)/dt); ``"naive"`` mode
counts only what the samples themselves show.  Library draws never scan a
path: ``fbmbt.skeleton.sample_walk_exact`` has the exact law.
"""

import math

import numpy as np

from fbmbt.fgn import dyadic_step, floor_steps, sample_bm
from fbmbt.skeleton import SkeletalStructure
from fbmbt.streams import as_seed_record


def _scan_crossings(values, a, dt, uniforms, use_bridge, times_out, walk_out):
    """Sequential crossing extraction; returns number of crossings written.

    One uniform per sample interval is consumed at most once (by the
    excursion test when no endpoint crossing fires), so results are
    independent of how many crossings other intervals produced.
    """
    level = 0
    m = 0
    cap = times_out.shape[0]
    last_t = 0.0
    n = len(values)
    for i in range(n - 1):
        y0 = values[i]
        y1 = values[i + 1]
        t0 = i * dt
        t1 = t0 + dt
        hi = (level + 1) * a
        lo = (level - 1) * a
        seg_t = t0
        seg_y = y0
        crossed_here = False
        # Endpoint (straddle/touch) crossings, cascading through cells.
        while y1 >= hi or y1 <= lo:
            if m >= cap:
                return -1
            if y1 >= hi:
                b = hi
                level += 1
            else:
                b = lo
                level -= 1
            denom = y1 - seg_y
            if denom != 0.0:
                frac = (b - seg_y) / denom
            else:
                frac = 1.0
            if frac < 0.0:
                frac = 0.0
            elif frac > 1.0:
                frac = 1.0
            tc = seg_t + (t1 - seg_t) * frac
            if tc <= last_t:
                tc = np.nextafter(last_t, np.inf)
            times_out[m] = tc
            walk_out[m] = level
            last_t = tc
            m += 1
            seg_t = tc
            seg_y = b
            hi = (level + 1) * a
            lo = (level - 1) * a
            crossed_here = True
        if use_bridge and not crossed_here:
            # Both endpoints strictly inside: excursion resolved by the
            # bridge boundary-hitting probability. Sub-excursions after an
            # endpoint crossing are ignored (second-order at dt <= a^2/4).
            p_up = math.exp(-2.0 * (hi - y0) * (hi - y1) / dt)
            p_dn = math.exp(-2.0 * (y0 - lo) * (y1 - lo) / dt)
            u = uniforms[i]
            if u < p_up + p_dn:
                if m >= cap:
                    return -1
                if u < p_up:
                    b = hi
                    level += 1
                else:
                    b = lo
                    level -= 1
                gap0 = abs(b - y0)
                gap1 = abs(b - y1)
                frac = gap0 / (gap0 + gap1) if gap0 + gap1 > 0 else 0.5
                tc = t0 + dt * frac
                if tc <= last_t:
                    tc = np.nextafter(last_t, np.inf)
                times_out[m] = tc
                walk_out[m] = level
                last_t = tc
                m += 1
                hi = (level + 1) * a
                lo = (level - 1) * a
                # The path may already sit beyond the new cell at the
                # endpoint; resolve those crossings deterministically.
                seg_t = tc
                seg_y = b
                while y1 >= hi or y1 <= lo:
                    if m >= cap:
                        return -1
                    if y1 >= hi:
                        b = hi
                        level += 1
                    else:
                        b = lo
                        level -= 1
                    denom = y1 - seg_y
                    if denom != 0.0:
                        frac = (b - seg_y) / denom
                    else:
                        frac = 1.0
                    if frac < 0.0:
                        frac = 0.0
                    elif frac > 1.0:
                        frac = 1.0
                    tc = seg_t + (t1 - seg_t) * frac
                    if tc <= last_t:
                        tc = np.nextafter(last_t, np.inf)
                    times_out[m] = tc
                    walk_out[m] = level
                    last_t = tc
                    m += 1
                    seg_t = tc
                    seg_y = b
                    hi = (level + 1) * a
                    lo = (level - 1) * a
    return m


def scan_skeleton(path, level, mode, seed=None):
    """The level-n skeleton of a sampled path starting at 0.

    The scan reads list items, which are faster to read one at a time than
    NumPy scalars.  ``seed`` keys the bridge uniforms, one per sample
    interval; naive mode needs none.
    """
    a = dyadic_step(level)
    values = path.values.tolist()
    uniforms = (as_seed_record(seed).generator().random(len(values) - 1).tolist()
                if mode == "bridge" else [])
    tv = float(np.sum(np.abs(np.diff(path.values))))
    cap = int(tv / a) + 2 * len(values) + 16
    times_out = np.empty(cap)
    walk_out = np.empty(cap, dtype=np.int64)
    m = _scan_crossings(values, a, path.spacing, uniforms, mode == "bridge",
                        times_out, walk_out)
    assert m >= 0
    return SkeletalStructure(level=level, times=np.concatenate([[0.0], times_out[:m]]),
                             walk=np.concatenate([[0], walk_out[:m]]), mode=mode,
                             source={"kind": "bm-path", "spacing": path.spacing})


def path_joint(level, t, record):
    """(Y path, level-n skeleton, Y_t) from the record's "bm" and "bridge" streams."""
    steps = floor_steps(level, t)
    spacing = 2.0 ** (-(level + 2))
    horizon = t + 6.0 * math.sqrt((2.0 / 3.0) * max(t, 1.0) * 2.0**-level) + 64.0 * 2.0**-level
    while True:
        y = sample_bm(horizon, spacing, record.derive("bm"))
        sk = scan_skeleton(y, level, "bridge", record.derive("bridge"))
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
