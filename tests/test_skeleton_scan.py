"""The vectorized skeleton scan against the sequential scan it replaced.

``_scan_crossings`` below is the earlier per-sample loop of
``fbmbt.skeleton``, kept verbatim (only its numba decorator is gone) as the
oracle: ``build_skeleton`` must return the same walk and bit-identical
times in both modes, at odd and even levels, on paths with values exactly
on grid lines, repeated values, steps across several cells, spacings that
are not powers of two and spacings so small that the strict-increase clamp
of the crossing times fires.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmbt.fgn import BmPath, dyadic_step
from fbmbt.skeleton import _moves, build_skeleton
from fbmbt.streams import SeedRecord, as_seed_record
from path_joint import path_joint


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
    n = values.shape[0]
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


def _oracle(path, level, mode, seed):
    """(times, walk) as build_skeleton computed them with the loop above."""
    a = dyadic_step(level)
    values = path.values
    if mode == "bridge":
        uniforms = as_seed_record(seed).generator().random(len(values) - 1)
    else:
        uniforms = np.empty(0)
    tv = float(np.sum(np.abs(np.diff(values))))
    cap = int(tv / a) + 2 * len(values) + 16
    times_out = np.empty(cap)
    walk_out = np.empty(cap, dtype=np.int64)
    with np.errstate(over="ignore"):  # exponents at subnormal spacings
        m = _scan_crossings(values, a, path.spacing, uniforms,
                            mode == "bridge", times_out, walk_out)
    assert m >= 0
    return (np.concatenate([[0.0], times_out[:m]]),
            np.concatenate([[0], walk_out[:m]]))


def _assert_matches_oracle(path, level, mode, seed):
    sk = build_skeleton(path, level, mode=mode, seed=seed)
    times, walk = _oracle(path, level, mode, seed)
    np.testing.assert_array_equal(sk.walk, walk)
    assert sk.times.tobytes() == times.tobytes()
    return sk


def _path(values, spacing):
    values = np.asarray(values, dtype=float)
    return BmPath(spacing=spacing, horizon=(len(values) - 1) * spacing,
                  values=values, seed_record=SeedRecord(0))


# A path is built from moves relative to the grid step a: land exactly on a
# grid line k*a (the product the scan itself forms), repeat the last value,
# step by x*a with |x| <= 3.5, or stop one float beside a line.
_MOVES = st.one_of(
    st.tuples(st.just("grid"), st.integers(-40, 40)),
    st.tuples(st.just("repeat"), st.just(0)),
    st.tuples(st.just("step"), st.floats(-3.5, 3.5)),
    st.tuples(st.just("beside"), st.integers(-40, 40), st.sampled_from([-1, 1])),
)
# Spacing as a fraction of the largest one allowed, 2^-(level+2), or a
# few multiples of the smallest float, where crossing times collide and the
# clamp fires.
_SPACINGS = st.one_of(
    st.sampled_from([1.0, 0.75, 1 / 3, 0.1]).map(lambda f: ("fraction", f)),
    st.integers(1, 16).map(lambda n: ("absolute", n * 5e-324)),
)


def _values(moves, a):
    values = [0.0]
    for move in moves:
        kind, arg = move[0], move[1]
        if kind == "grid":
            values.append(arg * a)
        elif kind == "repeat":
            values.append(values[-1])
        elif kind == "step":
            values.append(values[-1] + arg * a)
        else:
            values.append(math.nextafter(arg * a, move[2] * math.inf))
    return values


@settings(max_examples=300, deadline=None)
@given(level=st.integers(1, 9), moves=st.lists(_MOVES, min_size=1, max_size=40),
       spacing=_SPACINGS, mode=st.sampled_from(["bridge", "naive"]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_sequential_scan(level, moves, spacing, mode, seed):
    kind, value = spacing
    dt = value * 2.0 ** (-(level + 2)) if kind == "fraction" else value
    path = _path(_values(moves, dyadic_step(level)), dt)
    _assert_matches_oracle(path, level, mode, seed)


def test_clamp_fires_on_colliding_times():
    # One sample step of 3.5 cells at the smallest positive spacing: every
    # interpolated time rounds onto an earlier one, so each crossing is
    # moved one float later, past the sample time itself.
    level = 4
    a = dyadic_step(level)
    dt = 5e-324
    path = _path([0.0, 3.5 * a, 3.5 * a, -0.5 * a], dt)
    for mode in ("bridge", "naive"):
        sk = _assert_matches_oracle(path, level, mode, seed=1)
        np.testing.assert_array_equal(sk.walk, [0, 1, 2, 3, 2, 1, 0])
        np.testing.assert_array_equal(sk.times, np.arange(7) * dt)
        assert sk.times[3] > path.spacing  # later than the interval's end


@pytest.mark.parametrize("level", [8, 10, 12, 14])
@pytest.mark.parametrize("mode", ["bridge", "naive"])
def test_matches_on_sample_joint_paths(level, mode):
    for rep in range(2):
        record = SeedRecord(7).derive("supercritical", level, rep)
        y, sk, _ = path_joint(level, 1.0, record, mode)
        times, walk = _oracle(y, level, mode, record.derive("bridge"))
        np.testing.assert_array_equal(sk.walk, walk)
        assert sk.times.tobytes() == times.tobytes()


def test_excursion_thresholds_follow_math_exp():
    # np.exp may differ from math.exp in the last bit.  With each uniform
    # set exactly to a threshold math.exp gives, the sequential scan's
    # decision is fixed: u == p_up excurses downward (and back up, as y1
    # lies above 0), u == p_up + p_dn not at all.
    level = 6
    a, dt = dyadic_step(level), 2.0 ** -(level + 2)
    rng = np.random.default_rng(0)
    y0, y1 = (rng.uniform(0.05, 0.95, 4000) * a for _ in range(2))
    j0 = np.zeros(4000, dtype=np.int64)
    p_up = np.array([math.exp(-2.0 * (a - p) * (a - q) / dt) for p, q in zip(y0, y1)])
    p_dn = np.array([math.exp(-2.0 * (p + a) * (q + a) / dt) for p, q in zip(y0, y1)])
    _, count, step, excursion = _moves(j0, j0, j0 + 1, y0, y1, p_up, a, dt)
    assert excursion.all() and (step == -1).all() and (count == 2).all()
    _, count, _, excursion = _moves(j0, j0, j0 + 1, y0, y1, p_up + p_dn, a, dt)
    assert not excursion.any() and not count.any()
