"""Background scaling laws for plain fBm on deterministic dyadic grids.

Both checks draw the ``floor(2^n t)`` increments over [0, t] as one-sided
fGn (``fgn.sample_fgn``), one substream per (power, level, replica).

Quadratic variation: 2^{n(2H-1)} * sum (increment)^2 -> t almost surely.
Cubic variation (H < 1/2): 2^{n(3H-1/2)} * sum (increment)^3 converges in
law to a centered normal whose variance has no closed form here; it is
estimated from replicas at the largest level and reused as the KS
reference for every level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fgn import FbmPath, HurstParameter, floor_steps, sample_fgn, uniform_step
from .stats import PerLevelReport, check_layout, ks_one_sample_normal
from .streams import SeedRecord

__all__ = ["ScalingReport", "power_variation", "check_quadratic", "check_cubic"]

SCALING_SCHEMA_VERSION = 1


@dataclass
class ScalingReport(PerLevelReport):
    hurst: float
    power: int
    t: float
    levels: list
    replicas: int
    per_level: list
    estimated_sigma2: "float | None"
    seed: int
    wall_time: float = 0.0
    schema_version: int = SCALING_SCHEMA_VERSION


def power_variation(path: FbmPath, power: int, level: int, t: float) -> float:
    """Unnormalized sum of increment powers over [0, t] at spacing 2^{-level}."""
    if power < 1:
        raise ValueError("power must be a positive integer")
    step = uniform_step(level)
    if path.spacing != step:
        raise ValueError(
            f"path spacing {path.spacing} does not equal 2^-{level} = {step}"
        )
    k = floor_steps(level, t)
    if k * step > path.extent:
        raise ValueError(f"horizon {t} beyond path extent {path.extent}")
    center = path.half_extent
    return _power_sum(np.diff(path.values[center: center + k + 1]), power)


def _power_sum(inc: np.ndarray, power: int) -> float:
    """sum(inc**power) by repeated multiplication; np.power calls pow per term."""
    term = inc
    for _ in range(power - 1):
        term = term * inc
    return float(np.sum(term))


def check_quadratic(hurst, t: float, levels, replicas: int, seed: int) -> ScalingReport:
    """Median deviation of the normalized quadratic variation from t, per level."""
    h = HurstParameter(float(hurst))
    check_layout(t, levels, replicas, seed)
    levels = [int(n) for n in levels]
    base = SeedRecord(int(seed))
    start = time.perf_counter()
    per_level = []
    for n in levels:
        norm = 2.0 ** (n * (2.0 * h.value - 1.0))
        step, k = uniform_step(n), floor_steps(n, t)
        devs = np.empty(replicas)
        raw = np.empty(replicas)
        for rep in range(replicas):
            inc = sample_fgn(h, step, k, base.derive("scaling", 2, n, rep))
            pv = _power_sum(inc, 2)
            raw[rep] = pv
            devs[rep] = abs(norm * pv - t)
        per_level.append({
            "median_abs_error": float(np.median(devs)),
            "mean_normalized": float(np.mean(norm * raw)),
            "mean_unnormalized": float(np.mean(raw)),
        })
    return ScalingReport(hurst=h.value, power=2, t=t, levels=levels,
                         replicas=replicas, per_level=per_level,
                         estimated_sigma2=None, seed=int(seed),
                         wall_time=time.perf_counter() - start)


def check_cubic(hurst, t: float, levels, replicas: int, seed: int) -> ScalingReport:
    """Normality of the normalized cubic variation, with estimated variance."""
    h = HurstParameter(float(hurst))
    if not h.value < 0.5:
        raise ValueError("cubic-variation normality requires H < 1/2")
    check_layout(t, levels, replicas, seed)
    levels = [int(n) for n in levels]
    if floor_steps(levels[-1], t) == 0:
        raise ValueError(
            f"t = {t} leaves no increment at the top level {levels[-1]} "
            f"(floor(2^{levels[-1]} t) = 0), so the reference variance is 0")
    base = SeedRecord(int(seed))
    start = time.perf_counter()
    stats_per_level = []
    samples_per_level = []
    for n in levels:
        norm = 2.0 ** (n * (3.0 * h.value - 0.5))
        step, k = uniform_step(n), floor_steps(n, t)
        vals = np.empty(replicas)
        for rep in range(replicas):
            inc = sample_fgn(h, step, k, base.derive("scaling", 3, n, rep))
            vals[rep] = norm * _power_sum(inc, 3)
        samples_per_level.append(vals)
        stats_per_level.append({"mean": float(vals.mean()),
                                "variance": float(vals.var(ddof=1))})
    # Reference variance from the largest level; KS against N(0, sigma2 * t).
    sigma2 = stats_per_level[-1]["variance"] / t
    std_ref = float(np.sqrt(sigma2 * t))
    per_level = []
    for row, vals in zip(stats_per_level, samples_per_level):
        ks = ks_one_sample_normal(vals, mean=0.0, std=std_ref)
        row = dict(row)
        row["ks_distance"] = ks.statistic
        row["ks_p"] = ks.p_value
        per_level.append(row)
    return ScalingReport(hurst=h.value, power=3, t=t, levels=levels,
                         replicas=replicas, per_level=per_level,
                         estimated_sigma2=float(sigma2), seed=int(seed),
                         wall_time=time.perf_counter() - start)
