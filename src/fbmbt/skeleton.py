"""Skeletal structure of the time-changed process: dyadic hitting times.

The level-n skeleton of a Brownian path Y records the successive times at
which Y hits a fresh point of the spatial grid {j * 2^{-n/2} : j in Z}
together with the embedded walk of grid indices.  Each step of the walk is
+-1, so every step is exactly one upcrossing or downcrossing of a grid
cell.

``sample_walk_exact`` draws it without simulating a path: walk steps are
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
