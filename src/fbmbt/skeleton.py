"""Skeletal structure of the time-changed process: dyadic hitting times.

Given a Brownian path Y and a level n, the structure records the
successive times at which Y hits a fresh point of the spatial grid
{j * 2^{-n/2} : j in Z} together with the embedded walk of grid indices.
Each step of the walk is +-1, so every step is exactly one upcrossing or
downcrossing of a grid cell.

Two extraction modes from a sampled path:

* ``"bridge"`` (default): between consecutive samples that stay inside a
  cell, an excursion to a cell boundary is resolved by the Brownian-bridge
  boundary-hitting probability exp(-2*(b-y0)*(b-y1)/dt).  This removes the
  systematic late-detection bias of plain threshold scanning.
* ``"naive"``: only values at sample points count, kept for speed and for
  measuring the bias itself.

``sample_walk_exact`` bypasses path simulation entirely: walk steps are
fair coin flips and the holding times are i.i.d. copies of 2^{-n} * tau,
with tau the exit time of standard Brownian motion from (-1, 1), drawn
exactly by Devroye's (2009) alternating-series rejection sampler.
``killed_position`` draws where that motion sits inside a step at a given
elapsed time, given that it has not yet left the cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .fgn import dyadic_step, floor_steps
from .streams import SeedRecord, as_seed_record

__all__ = [
    "SkeletalStructure",
    "CrossingCounts",
    "SpacingError",
    "InsufficientStepsError",
    "build_skeleton",
    "crossing_counts",
    "updown_difference",
    "sample_walk_exact",
    "sample_exit_times",
    "exit_time_cdf",
    "exit_time_pdf",
    "killed_position",
    "killed_position_cdf",
    "write_skeleton",
    "read_skeleton",
]

SKELETON_FORMAT_VERSION = 1


class SpacingError(ValueError):
    """Path sampling too coarse to resolve level-n crossings."""


class InsufficientStepsError(ValueError):
    """Skeleton does not cover the requested number of steps."""


@dataclass(frozen=True)
class SkeletalStructure:
    """Hitting times and the embedded +-1 walk, in grid units."""

    level: int
    times: np.ndarray
    walk: np.ndarray
    mode: str
    source: dict

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        walk = np.ascontiguousarray(self.walk, dtype=np.int64)
        times.setflags(write=False)
        walk.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "walk", walk)
        if len(times) != len(walk):
            raise ValueError("times and walk must have equal length")
        if len(times) == 0 or times[0] != 0.0 or walk[0] != 0:
            raise ValueError("skeleton must start at (t=0, j=0)")
        if len(times) > 1:
            if not np.all(np.diff(times) > 0):
                raise ValueError("hitting times must be strictly increasing")
            if not np.all(np.abs(np.diff(walk)) == 1):
                raise ValueError("walk steps must be +-1")

    @property
    def n_steps(self) -> int:
        return len(self.walk) - 1

    def positions(self) -> np.ndarray:
        """Walk positions in real units, j * 2^{-level/2}."""
        return self.walk * dyadic_step(self.level)


@dataclass(frozen=True)
class CrossingCounts:
    """Up/down crossing counts per grid cell over the first floor(2^n t) steps."""

    level: int
    horizon: float
    up: dict
    down: dict
    terminal: int

    @property
    def n_steps(self) -> int:
        return sum(self.up.values()) + sum(self.down.values())


# ---------------------------------------------------------------------------
# Path scan
# ---------------------------------------------------------------------------
#
# The walk level j after each sample obeys (j-1)*a < y < (j+1)*a, so with
# k the cell of y (k*a <= y < (k+1)*a) the state s = j - k is 0 or 1.  Each
# sample interval maps the state before it to the state after it; both
# images are computed in vector form, the state sequence follows from the
# last constant map and the parity of the swaps after it, and the crossings
# of each interval are then placed with np.repeat.  All grid products are
# int * a, the same floats a sequential scan compares against, so levels
# and times are those of scanning the samples one by one.

def _cells(values: np.ndarray, a: float) -> np.ndarray:
    """Cell index k with k*a <= y < (k+1)*a, in the scan's own products."""
    k = np.floor(values / a).astype(np.int64)
    k -= k * a > values
    k += (k + 1) * a <= values
    return k


def _moves(j0, k1, c1, y0, y1, u, a, dt):
    """What each interval does from start levels j0.

    Returns (end, count, step, excursion): the level after the interval,
    its number of crossings, the direction of its first crossing and
    whether that one is a bridge excursion, which a crossing back to j0
    follows when count == 2.  Otherwise the crossings are the endpoint
    cascade j0 + step, j0 + 2*step, ... into the cell of y1: up to k1 when
    y1 >= (j0+1)*a, down to c1 when y1 <= (j0-1)*a.  ``u`` is None in
    naive mode.
    """
    end = np.minimum(np.maximum(j0, k1), c1)
    count = np.abs(end - j0)
    if u is None:
        return end, count, np.where(end < j0, -1, 1), np.zeros(len(j0), dtype=bool)
    quiet = count == 0
    hi = (j0 + 1) * a
    lo = (j0 - 1) * a
    # Quiet intervals have exponents <= 0; the others may overflow unused.
    with np.errstate(over="ignore"):
        e_up = -2.0 * (hi - y0) * (hi - y1) / dt
        e_dn = -2.0 * (y0 - lo) * (y1 - lo) / dt
        p_up, p_dn = np.exp(e_up), np.exp(e_dn)
    total = p_up + p_dn
    # np.exp and math.exp can differ in the last bit: decide with math.exp
    # wherever the uniform falls that close to a threshold.
    near = quiet & ((np.abs(u - total) <= 1e-12 * total + 1e-300)
                    | (np.abs(u - p_up) <= 1e-12 * p_up + 1e-300))
    for i in np.flatnonzero(near):
        p_up[i] = math.exp(e_up[i])
        p_dn[i] = math.exp(e_dn[i])
        total[i] = p_up[i] + p_dn[i]
    excursion = quiet & (u < total)
    rising = u < p_up
    step = np.where((end < j0) | (excursion & ~rising), -1, 1)
    # back to j0 when y1 lies at or past j0*a, seen from the excursion's line
    back = excursion & np.where(rising, c1 == j0, k1 == j0)
    return end + step * (excursion & ~back), count + excursion + back, step, excursion


def _cascade_time(seg_t, seg_y, b, y1, t1):
    """Time the line from (seg_t, seg_y) to (t1, y1) reaches level b."""
    denom = y1 - seg_y
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(denom != 0.0, (b - seg_y) / denom, 1.0)
    return seg_t + (t1 - seg_t) * np.clip(frac, 0.0, 1.0)


def _crossings(values: np.ndarray, a: float, dt: float,
               uniforms: "np.ndarray | None") -> tuple:
    """Crossing times and walk levels of a path starting at 0.

    ``uniforms`` holds one uniform per sample interval for the bridge
    excursion test, or is None in naive mode.  An interval consumes its
    uniform only when no endpoint crossing fires, so results do not depend
    on how many crossings other intervals produced.  Sub-excursions after
    an endpoint crossing are ignored (second order at dt <= a^2/4).
    """
    if len(values) < 2:
        return np.empty(0), np.empty(0, dtype=np.int64)
    k = _cells(values, a)
    c = k + (k * a != values)  # least c with c*a >= y
    y0, y1, k0, k1, c1 = values[:-1], values[1:], k[:-1], k[1:], c[1:]
    maps = [_moves(k0 + s, k1, c1, y0, y1, uniforms, a, dt) for s in (0, 1)]

    # State after each interval from the last constant map and the swaps.
    f0, f1 = maps[0][0] - k1, maps[1][0] - k1
    idx = np.arange(len(f0))
    last = np.maximum.accumulate(np.where(f0 == f1, idx, -1))
    swaps = np.cumsum(f0 > f1)
    seen = last >= 0
    after = (np.where(seen, f0[last], 0)
             ^ ((swaps - np.where(seen, swaps[last], 0)) & 1))
    state = np.concatenate([[0], after[:-1]])  # level 0 at y = 0
    pick = state == 1
    count, step, excursion = (np.where(pick, m1, m0)
                              for m0, m1 in zip(maps[0][1:], maps[1][1:]))
    j0 = k0 + state

    # One row per crossing, in time order.
    iv = np.repeat(idx, count)
    first = np.cumsum(count) - count
    depth = np.arange(len(iv)) - first[iv]
    jj, st, ex = j0[iv], step[iv], excursion[iv]
    walk = np.where(ex, jj + st * (1 - depth), jj + st * (depth + 1))
    b = walk * a
    t0 = iv * dt
    t1 = t0 + dt
    ya, yb = y0[iv], y1[iv]
    times = np.empty(len(iv))
    top = first[count > 0]
    gap0, gap1 = np.abs(b[top] - ya[top]), np.abs(b[top] - yb[top])
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(gap0 + gap1 > 0, gap0 / (gap0 + gap1), 0.5)
    times[top] = np.where(ex[top], t0[top] + dt * frac,
                          _cascade_time(t0[top], ya[top], b[top], yb[top], t1[top]))
    for d in range(1, int(depth.max(initial=0)) + 1):
        e = np.flatnonzero(depth == d)
        times[e] = _cascade_time(times[e - 1], b[e - 1], b[e], yb[e], t1[e])

    # Clamp times that fail to increase, in scan order: a clamped time also
    # starts the rest of its cascade, so rerun until a time comes out as
    # computed above.
    prev = np.concatenate([[0.0], times[:-1]])
    done = 0
    for e in np.flatnonzero(times <= prev):
        if e < done:
            continue
        while e < len(times):
            tc = times[e]  # the first time of an interval needs no earlier one
            if depth[e] > 0:
                tc = _cascade_time(times[e - 1], b[e - 1], b[e], yb[e], t1[e])
            last_t = times[e - 1] if e else 0.0
            if tc <= last_t:
                tc = np.nextafter(last_t, np.inf)
            elif tc == times[e]:
                break
            times[e] = tc
            e += 1
        done = e
    return times, walk


def build_skeleton(path, level: int, mode: str = "bridge",
                   seed: "int | SeedRecord | None" = None) -> SkeletalStructure:
    """Extract the level-n skeleton from a sampled Brownian path.

    Requires path spacing <= 2^{-level-2} so crossings are resolved; an
    empty structure (no crossings before the horizon) is valid output.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if mode not in ("bridge", "naive"):
        raise ValueError(f"unknown mode {mode!r}")
    required = 2.0 ** (-(level + 2))
    if path.spacing > required * (1.0 + 1e-12):
        raise SpacingError(
            f"path spacing {path.spacing} too coarse for level {level}; "
            f"need spacing <= {required}"
        )
    a = dyadic_step(level)
    values = path.values
    if mode == "bridge":
        record = as_seed_record(seed) if seed is not None \
            else path.seed_record.derive("bridge", level)
        uniforms = record.generator().random(len(values) - 1)
    else:
        uniforms = None
    times, walk = _crossings(values, a, path.spacing, uniforms)
    times = np.concatenate([[0.0], times])
    walk = np.concatenate([[0], walk])
    return SkeletalStructure(
        level=level, times=times, walk=walk, mode=mode,
        source={"kind": "bm-path", "spacing": path.spacing,
                "seed_record": path.seed_record.to_dict()},
    )


def crossing_counts(sk: SkeletalStructure, t: float) -> CrossingCounts:
    """Count crossings per cell over the first floor(2^n t) walk steps.

    ``sk`` may be anything with a ``level``, a ``walk`` and ``n_steps``,
    such as the walk of a ``calculus.JointSample``.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    m = floor_steps(sk.level, t)
    if sk.n_steps < m:
        raise InsufficientStepsError(
            f"skeleton has {sk.n_steps} steps, need {m} "
            f"(short by {m - sk.n_steps})"
        )
    w = sk.walk[: m + 1]
    up: dict[int, int] = {}
    down: dict[int, int] = {}
    if m > 0:
        lo = np.minimum(w[:-1], w[1:])
        rising = w[1:] > w[:-1]
        shift = int(lo.min())
        size = int(lo.max()) - shift + 1
        up_counts = np.bincount(lo[rising] - shift, minlength=size)
        down_counts = np.bincount(lo[~rising] - shift, minlength=size)
        for j in range(size):
            if up_counts[j]:
                up[j + shift] = int(up_counts[j])
            if down_counts[j]:
                down[j + shift] = int(down_counts[j])
    return CrossingCounts(level=sk.level, horizon=float(t), up=up, down=down,
                          terminal=int(w[m]))


def updown_difference(terminal: int, j: int) -> int:
    """Closed form for U_j - D_j given the terminal walk index."""
    if terminal > 0:
        return 1 if 0 <= j < terminal else 0
    if terminal < 0:
        return -1 if terminal <= j < 0 else 0
    return 0


# ---------------------------------------------------------------------------
# Exact exit-time sampling: tau = exit time of BM from (-1, 1)
# ---------------------------------------------------------------------------
#
# Survival (large t) and distribution (small t) alternating series; the two
# expansions overlap comfortably around t = 0.4 and terms are truncated when
# below 1e-12 of the running value.

_SMALL_T = 0.4
_K_LARGE = 24
_K_SMALL = 12


@lru_cache(maxsize=1)
def _special():
    """scipy.special, imported on the first exit-time use: it is most of
    fbmbt's import time, and only the exit-time code needs it (its erfc
    and erfcinv define the supercritical stream)."""
    import scipy.special
    return scipy.special


def exit_time_cdf(t) -> "float | np.ndarray":
    """P(tau <= t) for the exit time of standard BM from (-1, 1)."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    small = (t > 0) & (t <= _SMALL_T)
    large = t > _SMALL_T
    if np.any(small):
        ts = t[small]
        acc = np.zeros_like(ts)
        erfc = _special().erfc
        for k in range(_K_SMALL):
            term = erfc((2 * k + 1) / np.sqrt(2.0 * ts))
            acc += (term if k % 2 == 0 else -term)
            if np.all(np.abs(term) < 1e-12):
                break
        out[small] = 2.0 * acc
    if np.any(large):
        tl = t[large]
        acc = np.zeros_like(tl)
        for k in range(_K_LARGE):
            c = 2 * k + 1
            term = (4.0 / (np.pi * c)) * np.exp(-(c * c) * np.pi**2 * tl / 8.0)
            acc += (term if k % 2 == 0 else -term)
            if np.all(np.abs(term) < 1e-12):
                break
        out[large] = 1.0 - acc
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def exit_time_pdf(t) -> "float | np.ndarray":
    """Density of the exit time of standard BM from (-1, 1)."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    small = (t > 0) & (t <= _SMALL_T)
    large = t > _SMALL_T
    if np.any(small):
        ts = t[small]
        acc = np.zeros_like(ts)
        for k in range(_K_SMALL):
            c = 2 * k + 1
            term = c * np.exp(-(c * c) / (2.0 * ts))
            acc += (term if k % 2 == 0 else -term)
            if np.all(np.abs(term) < 1e-12):
                break
        out[small] = np.sqrt(2.0 / np.pi) * ts**-1.5 * acc
    if np.any(large):
        tl = t[large]
        acc = np.zeros_like(tl)
        for k in range(_K_LARGE):
            c = 2 * k + 1
            term = c * np.exp(-(c * c) * np.pi**2 * tl / 8.0)
            acc += (term if k % 2 == 0 else -term)
            if np.all(np.abs(term) < 1e-12):
                break
        out[large] = (np.pi / 2.0) * acc
    out = np.maximum(out, 0.0)
    return float(out[0]) if scalar else out


# Devroye's (2009) sampler.  The density of tau is sum_{n>=0} (-1)^n a_n(x)
# with a_n(x) = pi (n+1/2) exp(-(n+1/2)^2 pi^2 x/2) (eigen form, used above
# _DEVROYE_T) or pi (n+1/2) (2/(pi x))^{3/2} exp(-2 (n+1/2)^2/x) (image form,
# used below it).  On either side the a_n decrease in n, so the partial sums
# bracket the density alternately.  The proposal is a_0 itself: a Levy law
# cut at _DEVROYE_T on the left, an exponential tail of rate pi^2/8 on the
# right, with masses _LEFT_MASS and _RIGHT_MASS (sum 1.001, the mean number
# of proposals per draw).  In both forms a_n/a_0 = (2n+1) exp(-n(n+1) c),
# c = 2/x on the left and pi^2 x/2 on the right.
_DEVROYE_T = 0.64
_LEFT_MASS = 2.0 * math.erfc(1.0 / math.sqrt(2.0 * _DEVROYE_T))
_RIGHT_MASS = (4.0 / math.pi) * math.exp(-math.pi**2 * _DEVROYE_T / 8.0)


def _devroye_proposals(rng: np.random.Generator, m: int) -> np.ndarray:
    """The accepted ones among m proposals, in draw order."""
    v = 1.0 - rng.random(m)
    v *= _LEFT_MASS + _RIGHT_MASS  # in (0, p + q]
    w = rng.random(m)
    left = np.flatnonzero(v <= _LEFT_MASS)
    right = np.flatnonzero(v > _LEFT_MASS)
    x = np.empty(m)
    c = np.empty(m)
    # Levy law cut at T: erfc(1/sqrt(2x)) = v/2 inverts its mass below x
    z = _special().erfcinv(0.5 * v[left])
    x_left = 0.5 / (z * z)
    x[left] = x_left
    c[left] = 2.0 / x_left
    x_right = _DEVROYE_T - (8.0 / math.pi**2) * np.log((v[right] - _LEFT_MASS) / _RIGHT_MASS)
    x[right] = x_right
    c[right] = (0.5 * math.pi**2) * x_right
    # accept when w <= S_1 = 1 - a_1/a_0; past S_1 (about 0.3 % of the
    # lanes) walk the alternating partial sums until one decides
    s = 1.0 - 3.0 * np.exp(-2.0 * c)
    accept = w <= s
    for i in np.flatnonzero(~accept):
        partial, ci, n = float(s[i]), float(c[i]), 2
        while True:
            term = (2 * n + 1) * math.exp(-n * (n + 1) * ci)
            if n % 2 == 0:
                partial += term
                if w[i] > partial:
                    break
            else:
                partial -= term
                if w[i] <= partial:
                    accept[i] = True
                    break
            n += 1
    return x[accept]


def sample_exit_times(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. copies of tau, exactly, by Devroye's rejection.

    Proposals are drawn in batches a little larger than the draws still
    missing; accepted proposals are kept in draw order.
    """
    parts, have = [np.empty(0)], 0
    while have < size:
        missing = size - have
        part = _devroye_proposals(rng, missing + missing // 64 + 4)
        parts.append(part)
        have += len(part)
    return np.concatenate(parts)[:size]


# Position of standard BM started at 0 at time s, killed on leaving
# (-1, 1), given that it survived to s.  Image series (s <= _SMALL_T):
#   P(B_s <= u, tau > s) = sum_m (-1)^m [Phi((u - 2m)/sqrt s) - Phi((-1 - 2m)/sqrt s)];
# eigen series (s > _SMALL_T), each term scaled by exp(pi^2 s/8):
#   P(B_s <= u, tau > s) ~ sum_k w_k (2/((2k+1) pi)) (sin((2k+1) pi u/2) + (-1)^k),
#   w_k = exp(-k(k+1) pi^2 s/2).  Both are divided by their value at u = 1.
# For s <= 0.4 the images past |m| = 4 add less than erfc(9/sqrt(0.8)) ~ 1e-46.
_IMAGES = range(-4, 5)


def _killed_series(s: float) -> tuple:
    """(cdf, pdf) of B_s given tau > s, as functions of u in [-1, 1]."""
    if s <= _SMALL_T:
        scale = math.sqrt(2.0 * s)

        def mass(u):
            return sum((-1) ** m * (math.erfc((2 * m - u) / scale)
                                    - math.erfc((2 * m + 1) / scale))
                       for m in _IMAGES)

        def density(u):
            return (2.0 / (math.sqrt(math.pi) * scale)) * sum(
                (-1) ** m * math.exp(-((u - 2 * m) / scale) ** 2) for m in _IMAGES)
    else:
        weights = [w for w in (math.exp(-k * (k + 1) * math.pi**2 * s / 2.0)
                               for k in range(_K_LARGE)) if w >= 1e-17]

        def mass(u):
            return sum(w * (2.0 / ((2 * k + 1) * math.pi))
                       * (math.sin((2 * k + 1) * math.pi * u / 2.0) + (-1) ** k)
                       for k, w in enumerate(weights))

        def density(u):
            return sum(w * math.cos((2 * k + 1) * math.pi * u / 2.0)
                       for k, w in enumerate(weights))
    alive = mass(1.0)
    return (lambda u: mass(u) / alive), (lambda u: density(u) / alive)


def killed_position_cdf(u: float, s: float) -> float:
    """P(B_s <= u | tau > s): B a standard BM from 0, tau its exit time
    from (-1, 1); ``s`` > 0 and ``u`` in [-1, 1]."""
    return _killed_series(s)[0](u)


def killed_position(s: float, v: float) -> float:
    """The v-quantile of B_s given tau > s (``killed_position_cdf``), for v
    in (0, 1); in (-1, 1), and 0 at s = 0.

    Newton steps inside a shrinking bracket, bisecting when a step leaves
    it, until the distribution function is within 1e-13 of v.
    """
    if s <= 0.0:
        return 0.0
    cdf, pdf = _killed_series(s)
    if s <= _SMALL_T:  # nearly N(0, s) cut to (-1, 1)
        u = min(max(-math.sqrt(2.0 * s) * float(_special().erfcinv(2.0 * v)), -0.999), 0.999)
    else:  # nearly the first eigenfunction, density (pi/4) cos(pi u/2)
        u = (2.0 / math.pi) * math.asin(2.0 * v - 1.0)
    lo, hi = -1.0, 1.0
    for _ in range(200):
        resid = cdf(u) - v
        if abs(resid) <= 1e-13:
            break
        if resid > 0:
            hi = u
        else:
            lo = u
        step = u - resid / max(pdf(u), 1e-300)
        u = step if lo < step < hi else 0.5 * (lo + hi)
    return u


def sample_walk_exact(level: int, steps: int, seed: "int | SeedRecord",
                      with_times: bool = True) -> SkeletalStructure:
    """Skeleton with the exact joint law of (holding times, walk).

    Walk increments are fair coin flips; holding times are i.i.d.
    2^{-level} * tau.  The Brownian path between hitting times is not
    reconstructed, so this sampler only feeds statistics expressed through
    crossing data and grid values of the independent spatial process.

    Walk and holding times are independent; with_times=False skips the
    exit-time draws and stores the mean-spaced grid k * 2^{-level} instead,
    for statistics that read the walk only.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    record = as_seed_record(seed)
    flips = record.derive("walk").generator().integers(0, 2, size=steps)
    increments = 2 * flips.astype(np.int64) - 1
    if with_times:
        tau = sample_exit_times(record.derive("exit").generator(), steps)
        times = np.concatenate([[0.0], np.cumsum(tau) * 2.0 ** (-level)])
    else:
        times = np.arange(steps + 1, dtype=np.float64) * 2.0 ** (-level)
    walk = np.concatenate([[0], np.cumsum(increments)])
    return SkeletalStructure(level=level, times=times, walk=walk, mode="exact",
                             source={"kind": "exact-walk",
                                     "with_times": bool(with_times),
                                     "seed_record": record.to_dict()})


# ---------------------------------------------------------------------------
# Serialization: JSON header + times (float64) + walk (int32)
# ---------------------------------------------------------------------------

def write_skeleton(sk: SkeletalStructure, file: "str | Path") -> None:
    header = {
        "format_version": SKELETON_FORMAT_VERSION,
        "level": sk.level,
        "mode": sk.mode,
        "count": len(sk.times),
        "source": sk.source,
    }
    if np.any(np.abs(sk.walk) > np.iinfo(np.int32).max):  # pragma: no cover
        raise ValueError("walk indices exceed int32 range")
    with open(file, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.asarray(sk.times, dtype="<f8").tobytes())
        fh.write(np.asarray(sk.walk, dtype="<i4").tobytes())


def read_skeleton(file: "str | Path") -> SkeletalStructure:
    with open(file, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    if header.get("format_version") != SKELETON_FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {header.get('format_version')}")
    count = int(header["count"])
    times = np.frombuffer(payload[: 8 * count], dtype="<f8").astype(np.float64)
    walk = np.frombuffer(payload[8 * count: 8 * count + 4 * count],
                         dtype="<i4").astype(np.int64)
    return SkeletalStructure(level=int(header["level"]), times=times, walk=walk,
                             mode=str(header["mode"]), source=dict(header["source"]))
