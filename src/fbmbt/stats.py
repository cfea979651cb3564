"""Statistical plumbing: KS tests, Monte Carlo summaries, slope fits, and
the serialization shared by the per-level reports.

P-values use the asymptotic Kolmogorov distribution (``kolmogorov_sf``,
two short series in ``math``) with the Stephens effective-size correction;
the sample sizes in this package (hundreds to thousands) make that
adequate.  The normal CDF is ``math.erfc``'s, so importing this module
does not load scipy.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "PerLevelReport",
    "check_layout",
    "is_integral",
    "SampleSummary",
    "KsResult",
    "kolmogorov_sf",
    "ks_two_sample",
    "ks_one_sample_normal",
    "fit_log2_slope",
    "variance_stderr",
]


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    variance: float
    p10: float
    p50: float
    p90: float
    stderr: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        if not (self.p10 <= self.p50 <= self.p90):
            raise ValueError("percentiles must be monotone")

    @classmethod
    def from_samples(cls, samples) -> "SampleSummary":
        x = np.asarray(samples, dtype=float)
        if x.size < 2:
            raise ValueError("need at least 2 samples")
        var = float(x.var(ddof=1))
        p10, p50, p90 = (float(v) for v in np.percentile(x, [10, 50, 90]))
        return cls(count=int(x.size), mean=float(x.mean()), variance=var,
                   p10=p10, p50=p50, p90=p90,
                   stderr=float(np.sqrt(var / x.size)))

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "variance": self.variance,
                "p10": self.p10, "p50": self.p50, "p90": self.p90,
                "stderr": self.stderr}


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    sizes: tuple

    def __post_init__(self):
        if not (0.0 <= self.statistic <= 1.0):
            raise ValueError("KS statistic must lie in [0, 1]")
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError("p-value must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "p_value": self.p_value,
                "sizes": list(self.sizes)}


# Below the cut-over Q = 1 - P with the theta form
#   P(x) = (sqrt(2 pi)/x) sum_{k>=1} u^((2k-1)^2),  u = exp(-pi^2/(8 x^2)),
# above it Q = 2 sum_{k>=1} (-1)^(k-1) v^(k^2),  v = exp(-2 x^2).  Four terms
# of each, in Horner form: at the cut-over the first omitted term is
# u^80 ~ 1e-64 of P and v^24 ~ 1e-14 of Q, and both shrink away from it.
_KS_CUTOVER = 0.82


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(x) = P(K > x)."""
    x = float(x)
    if x <= 0.0:
        return 1.0
    if x <= _KS_CUTOVER:
        w = math.sqrt(2.0 * math.pi) / x
        u = math.exp(-math.pi**2 / (8.0 * x * x))
        u8 = math.exp(-math.pi**2 / (x * x))
        return 1.0 - w * u * (1.0 + u8 * (1.0 + u8 * u8 * (1.0 + u8**3)))
    v = math.exp(-2.0 * x * x)
    return 2.0 * v * (1.0 - v**3 * (1.0 - v**5 * (1.0 - v**7)))


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-x/sqrt 2), of a 1-d array."""
    half = math.sqrt(0.5)
    return np.fromiter((0.5 * math.erfc(-v * half) for v in x.tolist()),
                       dtype=float, count=len(x))


def _stephens_pvalue(d: float, en: float) -> float:
    return kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


def ks_two_sample(a, b) -> KsResult:
    """Sup-distance of empirical CDFs with asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    data = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, data, side="right") / n1
    cdf2 = np.searchsorted(b, data, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    return KsResult(statistic=d, p_value=_stephens_pvalue(d, en), sizes=(n1, n2))


def ks_one_sample_normal(samples, mean: float = 0.0, std: float = 1.0) -> KsResult:
    """KS distance of a sample against N(mean, std^2)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("sample must be nonempty")
    if std <= 0:
        raise ValueError("std must be positive")
    cdf = _normal_cdf((x - mean) / std)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = float(max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo)))
    en = math.sqrt(n)
    return KsResult(statistic=d, p_value=_stephens_pvalue(d, en), sizes=(n,))


def variance_stderr(samples) -> float:
    """Standard error of the sample variance from the sample fourth moment.

    sqrt((m4 - s^4) / N), with m4 the mean fourth power of the deviations
    from the mean and s^2 the unbiased variance.  It assumes no normality:
    for a Gaussian sample it is about s^2 sqrt(2 / N), and heavier tails
    make it larger.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    c = x - x.mean()
    var = float(c @ c) / (x.size - 1)
    return math.sqrt(max(float(np.mean(c**4)) - var * var, 0.0) / x.size)


def fit_log2_slope(points) -> tuple:
    """Least-squares slope of log2(v) against n, with its standard error.

    ``points`` are (n, v, se) triples, se the standard error of v.  The
    points are independent, so the slope's standard error follows from the
    fit weights and the standard error se / (v ln 2) of each log2(v).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (n, value, stderr) triples")
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    n, v, se = pts.T
    if np.any(v <= 0):
        raise ValueError("values must be positive for a log fit")
    y = np.log2(v)
    dev = n - n.mean()
    sxx = float(np.sum(dev**2))
    slope = float(np.sum(dev * (y - y.mean())) / sxx)
    log_se = se / (v * math.log(2.0))
    return slope, float(np.sqrt(np.sum((dev / sxx * log_se) ** 2)))


def is_integral(value) -> bool:
    """An integer of any integral type, bool excluded."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_layout(t, levels, replicas, seed) -> None:
    """Reject a Monte Carlo layout no per-level report can be built from."""
    levels = list(levels)
    if not levels or not all(is_integral(n) for n in levels) or levels[0] < 1 \
            or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing integers >= 1, "
                         f"got {tuple(levels)}")
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    if not (is_integral(replicas) and replicas >= 2):
        raise ValueError(f"replicas must be an integer >= 2, got {replicas}")
    if not (is_integral(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    # floor(2^n t) >= 2^62 (2^n t is exact): walk-end counts overflow int64
    if t >= math.ldexp(1.0, 62 - levels[-1]):
        raise ValueError(f"t = {t} puts floor(2^{levels[-1]} t) >= 2^62 steps "
                         f"in the top level {levels[-1]}; lower t or the levels")


class PerLevelReport:
    """JSON and CSV form of a dataclass report with one row per level.

    The body holds every field but ``wall_time``, keyed by its name or by
    its entry in ``BODY_KEYS``; it is deterministic for a fixed seed.
    """

    BODY_KEYS = {}

    def body_dict(self) -> dict:
        """Deterministic payload: everything except timing."""
        return {self.BODY_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self) if f.name != "wall_time"}

    def to_json(self) -> str:
        doc = {"body": self.body_dict(), "wall_time": self.wall_time}
        return json.dumps(doc, sort_keys=True, indent=2)

    def save(self, file: "str | Path") -> None:
        Path(file).write_text(self.to_json() + "\n", encoding="utf-8")

    def per_level_csv(self) -> str:
        keys = sorted({k for row in self.per_level for k in row})
        lines = ["level," + ",".join(keys)]
        for lev, row in zip(self.levels, self.per_level):
            lines.append(str(lev) + "," + ",".join(repr(row.get(k, "")) for k in keys))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str):
        doc = json.loads(text)
        body = doc["body"]
        return cls(**{f.name: body[cls.BODY_KEYS.get(f.name, f.name)]
                      for f in fields(cls) if f.name != "wall_time"},
                   wall_time=doc.get("wall_time", 0.0))
