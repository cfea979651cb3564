"""Skeletal structure of the time-changed process: dyadic hitting times.

The level-n skeleton of a Brownian path Y records the successive times at
which Y hits a fresh point of the spatial grid {j * 2^{-n/2} : j in Z}
together with the embedded walk of grid indices.  Each step of the walk is
+-1, so every step is exactly one upcrossing or downcrossing of a grid
cell.

``sample_walk_exact`` draws it without simulating a path: walk steps are
fair coin flips and the holding times are i.i.d. copies of 2^{-n} * tau,
with tau the exit time of standard Brownian motion from (-1, 1), drawn
exactly by rejection from a fixed table: a Walker alias table over
certified bounds of tau's density on equal bins, a squeeze, and the
density's alternating series (Devroye 2009) for the lanes the squeeze
leaves open.
``killed_position`` draws where that motion sits inside a step at a given
elapsed time, given that it has not yet left the cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .fgn import dyadic_step, floor_steps
from .streams import SeedRecord, as_seed_record

__all__ = [
    "SkeletalStructure",
    "CrossingCounts",
    "InsufficientStepsError",
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
                raise ValueError(f"hitting times must be strictly increasing; those of "
                                 f"level {self.level} collapse where its time step "
                                 f"2^-{self.level} is below the smallest float")
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
_erfc = np.frompyfunc(math.erfc, 1, 1)


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
        for k in range(_K_SMALL):
            term = _erfc((2 * k + 1) / np.sqrt(2.0 * ts)).astype(float)
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


# The exit-time sampler.  The density of tau is sum_{n>=0} (-1)^n a_n(x) with
# a_n(x) = pi (n+1/2) exp(-(n+1/2)^2 pi^2 x/2)            (eigen form)
#        = pi (n+1/2) (2/(pi x))^{3/2} exp(-2 (n+1/2)^2/x) (image form).
# In both forms a_n/a_0 = (2n+1) exp(-n(n+1) c), with c = 2/x (image) or
# pi^2 x/2 (eigen).  The sampler takes the form with the larger c, the
# image form below x = 2/pi, so c >= pi and the a_n decrease in n: the
# partial sums S_1 <= S_3 <= ... <= f <= ... <= S_2 <= S_0 bracket the
# density (Devroye 2009).
#
# Proposals come from a fixed envelope: _BINS equal bins on [0, _X_MAX],
# each with certified bounds lo_b <= f <= hi_b, and Devroye's exponential
# tail a_0 of rate pi^2/8 past _X_MAX, one proposal in 15000.  A Walker
# alias table over the bins and the tail picks a column with probability
# proportional to its envelope mass; a bin proposal is uniform in its bin.
# The uniform w accepts at once when w hi_b <= lo_b (the squeeze); the
# other bin lanes are decided exactly by the partial sums.  On the tail
# f/a_0 >= S_1 = 1 - 3 exp(-pi^2 x) > 1 - 2^-53, above every double below
# 1, so the tail squeeze _TAIL_SQUEEZE (1.0 in floating point) decides
# every tail lane (notes/decisions.md).
_X_MAX = 8.0
_BINS = 2048
_WIDTH = _X_MAX / _BINS
_TAIL_MASS = (4.0 / math.pi) * math.exp(-math.pi**2 * _X_MAX / 8.0)
_TAIL_SQUEEZE = 1.0 - 3.0 * math.exp(-math.pi**2 * _X_MAX)
# relative margin on the bounds, far above the rounding of the few
# operations that compute a partial sum
_MARGIN = 1e-12
# S_2/S_1 = 1 + 5 exp(-6c)/(1 - 3 exp(-2c)) <= 1 + 3.3e-8, as c >= pi
_S2_OVER_S1 = 1.0 + 1e-7


def _series_head(x: np.ndarray) -> tuple:
    """(a_0(x), c(x)) of the alternating series of the density at x > 0."""
    image_c = 2.0 / x
    c = np.maximum(image_c, (0.5 * math.pi**2) * x)
    # a_0 = (pi/2) exp(-c/4) in both forms, times (2/(pi x))^{3/2} in the
    # image form, where 2/(pi x) > 1
    a0 = (0.5 * math.pi) * np.exp(-0.25 * c) * np.maximum(image_c / math.pi, 1.0) ** 1.5
    return a0, c


def _alias_table(weights: np.ndarray) -> tuple:
    """Walker's alias table, by Vose's method: column j keeps itself with
    probability prob[j] and otherwise gives alias[j]."""
    n = len(weights)
    scaled = (weights * (n / weights.sum())).tolist()
    prob = np.ones(n)
    alias = np.arange(n)
    small = [j for j in range(n) if scaled[j] < 1.0]
    large = [j for j in range(n) if scaled[j] >= 1.0]
    while small and large:
        j, k = small.pop(), large.pop()
        prob[j], alias[j] = scaled[j], k
        scaled[k] -= 1.0 - scaled[j]
        (small if scaled[k] < 1.0 else large).append(k)
    return prob, alias


@lru_cache(maxsize=1)
def _exit_time_table() -> tuple:
    """(lo, hi, keep, alias, squeeze), built once and read-only.

    lo[b] <= f <= hi[b] on bin b; hi has one more entry, inf, for the tail.
    Column j of the alias table (the bins, then the tail) keeps itself
    when the scaled uniform u (_BINS + 1) is below keep[j] = j + prob[j]
    and gives alias[j] otherwise.  squeeze is lo/hi on a bin and -1 on the
    tail, whose lanes _TAIL_SQUEEZE decides.
    """
    edges = np.arange(_BINS + 1) * _WIDTH
    a0, c = _series_head(edges[1:])
    r1, r2, r3 = 3.0 * np.exp(-2.0 * c), 5.0 * np.exp(-6.0 * c), 7.0 * np.exp(-12.0 * c)
    lo_end = np.concatenate([[0.0], a0 * (1.0 - r1 + r2 - r3) * (1.0 - _MARGIN)])
    hi_end = np.concatenate([[0.0], a0 * (1.0 - r1 + r2) * (1.0 + _MARGIN)])
    # f is unimodal: its least value on a bin is at an end, and so is its
    # largest, except on the bins that may hold the mode.  f rises over
    # bin b if hi_end[b] < lo_end[b + 1] (the mode is right of edge b) and
    # falls if lo_end[b] > hi_end[b + 1] (the mode is left of edge b + 1).
    lo = np.minimum(lo_end[:-1], lo_end[1:])
    hi = np.maximum(hi_end[:-1], hi_end[1:])
    first = int(np.flatnonzero(hi_end[:-1] < lo_end[1:])[-1])
    last = int(np.flatnonzero(lo_end[:-1] > hi_end[1:])[0])
    # there f <= S_0 = a_0 (image form), whose maximum is at x = 1/3
    peak = np.clip(1.0 / 3.0, edges[first:last + 1], edges[first + 1:last + 2])
    hi[first:last + 1] = _series_head(peak)[0] * (1.0 + _MARGIN)
    prob, alias = _alias_table(np.append(hi * _WIDTH, _TAIL_MASS))
    keep = np.arange(_BINS + 1) + prob
    squeeze = np.append(lo / hi, -1.0)
    hi = np.append(hi, np.inf)
    for a in (lo, hi, keep, alias, squeeze):
        a.setflags(write=False)
    return lo, hi, keep, alias, squeeze


def _table_proposals(rng: np.random.Generator, m: int) -> np.ndarray:
    """The accepted ones among m proposals, in draw order."""
    _, hi, keep, alias, squeeze = _exit_time_table()
    u = rng.random((3, m))
    col = u[0] * (_BINS + 1)  # below _BINS + 1 for every double u < 1
    j = col.astype(np.intp)
    b = np.where(col < keep[j], j, alias[j])
    x = (b + 1.0 - u[1]) * _WIDTH  # in (0, _X_MAX] on a bin
    w = u[2]
    accept = w <= squeeze[b]
    # the lanes past the squeeze: a bin lane is accepted when
    # w hi_b <= f(x), which S_1 decides for all but a few in 10^7 and the
    # series loop for those; a tail lane has hi = inf here and is decided
    # by _TAIL_SQUEEZE below
    rest = np.flatnonzero(~accept)
    rest_bins = b[rest]
    a0, c = _series_head(x[rest])
    y = w[rest] * hi[rest_bins]
    lower = a0 * (1.0 - 3.0 * np.exp(-2.0 * c))
    decided = y <= lower
    accept[rest] = decided
    for i in np.flatnonzero(~decided & (y <= lower * _S2_OVER_S1)):
        t, partial, ci, n = float(y[i] / a0[i]), float(lower[i] / a0[i]), float(c[i]), 2
        while True:
            term = (2 * n + 1) * math.exp(-n * (n + 1) * ci)
            if n % 2 == 0:
                partial += term
                if t > partial:
                    break
            else:
                partial -= term
                if t <= partial:
                    accept[rest[i]] = True
                    break
            n += 1
    tail = rest[rest_bins == _BINS]
    if tail.size:
        x[tail] = _X_MAX - (8.0 / math.pi**2) * np.log1p(-u[1, tail])
        accept[tail] = w[tail] <= _TAIL_SQUEEZE
    return x[accept]


def sample_exit_times(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. copies of tau, exactly, by rejection from a
    fixed binned envelope.

    Proposals are drawn in batches a little larger than the draws still
    missing; accepted proposals are kept in draw order.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    parts, have = [np.empty(0)], 0
    while have < size:
        missing = size - have
        part = _table_proposals(rng, missing + missing // 64 + 4)
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
_STANDARD_NORMAL = NormalDist()


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
    in [0, 1); in [-1, 1), and 0 at s <= 0.

    Newton steps inside a shrinking bracket, bisecting when a step leaves
    it, until the distribution function is within 1e-13 of v.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"v must be in [0, 1), got {v}")
    if s <= 0.0:
        return 0.0
    cdf, pdf = _killed_series(s)
    if s <= _SMALL_T:  # nearly N(0, s) cut to (-1, 1); v = 0 starts at the left
        z = _STANDARD_NORMAL.inv_cdf(v) if v > 0.0 else -math.inf
        u = min(max(math.sqrt(s) * z, -0.999), 0.999)
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
        times = np.concatenate([[0.0], np.ldexp(np.cumsum(tau), -level)])
    else:
        times = np.ldexp(np.arange(steps + 1, dtype=np.float64), -level)
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
