"""Change-of-variable verification for the time-changed process Z = X(Y).

Three regimes of the Hurst parameter are checked against Monte Carlo
evidence:

* supercritical (H > 1/6): the symmetric-sum residual
  f(Z_t) - f(0) - V_n(f', t) tightens to zero as the level grows;
* critical (H = 1/6): f(Z_t) - f(0) + (KAPPA3/12) * int_0^{Y_t} f'''(X) dW
  matches V_n(f', t) in law (two-sample KS across independent pools); W
  is a Brownian motion independent of (X, Y), so given X the correction
  is one normal draw (``correction_std``), with no W path;
* subcritical (H < 1/6): the variance of V_n^{(3)}(1, t) grows like
  2^{n(1-6H)/2}, so the symmetric sums cannot converge.

The module also provides the symmetric two-point expansion

    f(b) - f(a) = 1/2 (f'(a)+f'(b))(b-a) - 1/24 (f'''(a)+f'''(b))(b-a)^3
                  + sum_{r=3}^{7} c_r (f^{(2r-1)}(a)+f^{(2r-1)}(b))(b-a)^{2r-1}
                  + O(|b-a|^14),

whose coefficients are fixed by exactness on odd monomials up to degree 13
and solved in exact rational arithmetic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .fgn import (ExtentError, FbmPath, HurstParameter, _hvalue, dyadic_step,
                  floor_steps, increment_autocovariance, sample_fbm_rows,
                  sample_fgn_rows)
from .skeleton import killed_position, sample_exit_times
from .stats import (PerLevelReport, SampleSummary, check_layout,
                    fit_log2_slope, is_integral, ks_two_sample, variance_stderr)
from .streams import KeyedPhilox, SeedRecord, as_seed_record, one_key
from .variations import SmoothFunction, _cell_sum

__all__ = [
    "KAPPA3",
    "JointSample",
    "TaylorScheme",
    "VerifyConfig",
    "VerificationReport",
    "taylor_coefficients",
    "ito_residual",
    "ito_residual_pair",
    "correction_std",
    "sample_joint",
    "verify_branch",
    "gate_clauses",
    "evaluate_gate",
]

# Correction-integral constant for the critical regime (H = 1/6):
# KAPPA3^2 = 6 sum_{r in Z} rho_{1/6}(r)^3 (Nourdin, Reveillac & Swanson
# 2010), the nearest double to the series (notes/decisions.md).
KAPPA3 = 2.3218881041572303

# Cells of the unit grid on which the critical left-hand side draws X.
LHS_CELLS = 2**13

BRANCHES = ("supercritical", "critical", "subcritical")

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Joint sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointSample:
    """One realization of X, the level-n walk of Y and (Y_t, Z_t).

    walk holds the embedded walk of Y at its first N = floor(2^n t) grid
    hits, in grid units, starting at 0; x lives on the level's own grid,
    spacing 2^{-n/2}; y_t = Y_t and z_t = X(Y_t) belong to the horizon t.
    X and Y come from disjoint substreams of the seed record, so they are
    independent.
    """

    x: FbmPath
    walk: np.ndarray
    level: int
    seed_record: SeedRecord
    t: float
    y_t: float
    z_t: float

    def __post_init__(self):
        walk = np.ascontiguousarray(self.walk, dtype=np.int64)
        walk.setflags(write=False)
        object.__setattr__(self, "walk", walk)
        self.x.check_level_grid(self.level)
        if len(walk) != floor_steps(self.level, self.t) + 1 or walk[0] != 0:
            raise ValueError("walk must hold floor(2^n t) steps from 0")

    @property
    def n_steps(self) -> int:
        return len(self.walk) - 1


def _pow2_at_least(x):
    """The least power of two >= max(x, 1), exactly, for a number or
    elementwise for an array (as int64)."""
    # max(x, 1) = m 2^e with m in [0.5, 1): ceil(2m) is 1 when it is a power
    # of two and 2 otherwise (ceil(log2(x)) is k just above 2^k, k >= 4)
    m, e = np.frexp(np.maximum(x, 1.0))
    return np.ldexp(np.ceil(2 * m), e - 1).astype(np.int64)


@lru_cache(maxsize=8)
def _increment_spectra(m: int, hvalue: float) -> tuple:
    """x_0 and the read-only rffts, of length 4m, of x and of its shifted
    reverse (0, x_{2m-1}, ..., x_1), x the first column of the inverse of
    the covariance rho(|i - k|) of 2m unit fGn steps.

    x comes from Durbin's recursion in O(m) memory; notes/decisions.md.
    """
    n = 2 * m
    r = increment_autocovariance(np.arange(1, n), hvalue)
    # y solves the order-k Yule-Walker system rho(|i - j|) y = -r[:k] and
    # beta is its prediction error; at order n - 1, x = (1, y) / beta
    y = np.empty(n - 1)
    y[0] = alpha = -r[0]
    beta = 1.0
    for k in range(1, n - 1):
        beta *= 1.0 - alpha * alpha
        alpha = -(r[k] + np.einsum("i,i", r[k - 1::-1], y[:k])) / beta
        y[:k] += alpha * y[k - 1::-1]
        y[k] = alpha
    beta *= 1.0 - alpha * alpha
    x = np.concatenate([[1.0], y]) / beta
    spectra = np.fft.rfft([x, np.concatenate([[0.0], x[:0:-1]])], n=2 * n)
    spectra.setflags(write=False)
    return float(x[0]), spectra


def _increment_solve(c: np.ndarray, hvalue: float) -> np.ndarray:
    """Rows w solving rho(|i - k|) w = c, one per row c of 2m entries.

    By the Gohberg-Semencul formula, x_0 rho^{-1} = L(x) L(x)^T - L(xb)
    L(xb)^T, L(v) the lower-triangular Toeplitz matrix with first column v
    and xb the shifted reverse of x (``_increment_spectra``).  The four
    triangular products are a correlation and a convolution, exact at
    length 4m; the pair of products is stacked, so all rows take four FFT
    calls.
    """
    n = c.shape[-1]
    x0, spectra = _increment_spectra(n // 2, hvalue)
    u = np.fft.irfft(spectra.conj()[:, None] * np.fft.rfft(c, n=2 * n), n=2 * n)[..., :n]
    both = spectra[:, None] * np.fft.rfft(u, n=2 * n)
    return np.fft.irfft(both[0] - both[1], n=2 * n)[:, :n] / x0


def _x_conditional(values: np.ndarray, spacing: float, hvalue: float,
                   y) -> tuple:
    """Means and stds of X(y) given every increment of two-sided grids.

    ``values`` holds rows of 2M + 1 grid values (spacing ``spacing``, time
    zero in the middle), shape (k, 2M + 1), and ``y`` one clock value per
    row; the result is k means and k stds.  A single row and a scalar y
    give 0-d arrays.  Row r of a k-row call is the one-row call on row r,
    bit for bit, and no call depends on the BLAS thread count.

    In grid units (s = y/spacing, r = floor(s)) the standardized increment
    X(s) - X(r) has covariance c_k with the k-th grid increment and variance
    (s - r)^{2H}; the increments have the Toeplitz covariance rho(0..2M-1),
    solved against c by ``_increment_solve``.  notes/decisions.md has the
    derivation.
    """
    h2 = 2.0 * hvalue
    values = np.asarray(values)
    rows = values.reshape(-1, values.shape[-1])
    m = rows.shape[1] // 2
    s = np.reshape(y, -1) / spacing
    r = np.floor(s)
    # c_k = (g(p_k) - g(q_k))/2 on the grid points p_k = k - M, q_k = p_k + 1;
    # it is exactly 0 when s == r, so an on-grid y gives the grid value
    u = np.arange(-m, m + 1, dtype=float)
    g = np.abs(s[:, None] - u) ** h2 - np.abs(r[:, None] - u) ** h2
    c = 0.5 * (g[:, :-1] - g[:, 1:])
    w = _increment_solve(c, hvalue)
    grid = rows[np.arange(len(rows)), r.astype(np.int64) + m]
    mean = grid + np.einsum("ij,ij->i", w, np.diff(rows))
    var = (s - r) ** h2 - np.einsum("ij,ij->i", w, c)
    std = spacing ** hvalue * np.sqrt(np.maximum(var, 0.0))
    return mean.reshape(values.shape[:-1]), std.reshape(values.shape[:-1])


def _clock_draw(clock: np.random.Generator, level: int, t: float) -> tuple:
    """The level-n walk of Y up to N = floor(2^n t), Y_t and X's half extent.

    No path of Y is drawn.  The walk signs are fair coins and the holding
    times i.i.d. copies of 2^{-n} tau (``sample_exit_times``).  If the N-th
    grid hit comes by t, Y_t is the walk end plus an independent normal of
    variance t - T_N.  Otherwise let k be the step under way at t: Y_t sits
    inside its cell at the position of a Brownian motion that has not left
    the cell after the elapsed time (``killed_position``), and step k goes
    up with probability (1 + U)/2, U that position in cell units.  Every
    draw is exact (notes/decisions.md).  The half extent of the X grid, in
    cells, covers the walk range and |Y_t| and is a power of two, so
    embedding spectra are shared across replicas.  Returns (walk, y_t, half).
    """
    n_steps = floor_steps(level, t)
    a = dyadic_step(level)
    hits = np.cumsum(sample_exit_times(clock, n_steps))
    steps = 2 * clock.integers(0, 2, size=n_steps) - 1
    horizon = math.ldexp(t, level)  # t in units of 2^{-n}; 2.0**level may overflow
    done = int(np.searchsorted(hits, horizon, side="right"))  # = k - 1
    if done == n_steps:
        last = math.ldexp(hits[-1], -level) if n_steps else 0.0
        y_t = a * int(steps.sum()) + math.sqrt(t - last) * float(clock.standard_normal())
    else:
        elapsed = horizon - (hits[done - 1] if done else 0.0)
        v, coin = clock.random(2)
        pos = killed_position(elapsed, float(v))
        steps[done] = 1 if coin < 0.5 * (1.0 + pos) else -1
        y_t = a * (int(steps[:done].sum()) + pos)
    walk = np.concatenate([[0], np.cumsum(steps)])
    walk_reach = int(np.max(np.abs(walk))) + 1
    need = max(walk_reach * a, abs(y_t) + 2 * a, 4 * a)
    return walk, y_t, _pow2_at_least(need / a)


def sample_joint(hurst, level: int, t: float, seed: "int | SeedRecord") -> JointSample:
    """Draw the level-n walk of Y up to N = floor(2^n t), Y_t, X and Z_t = X(Y_t).

    ``_supercritical_pairs``'s draw of one replica: the walk and Y_t from the
    record's "bm" stream (``_clock_draw``), X on the level's grid from "fbm",
    and Z_t from its exact law given that grid with a normal from ("fbm", 1).
    """
    record = as_seed_record(seed)
    h = HurstParameter(_hvalue(hurst))
    a = dyadic_step(level)
    stream = one_key()
    walk, y_t, half = _clock_draw(stream.at(record.derive("bm").philox_key()[0]), level, t)
    normal = float(stream.at(record.derive("fbm", 1).philox_key()[0]).standard_normal())
    ((_, rows),) = sample_fbm_rows(h, a, half, record.derive("fbm").philox_key(), stream)
    mean, std = _x_conditional(rows, a, h.value, [y_t])
    x = FbmPath(hurst=h, spacing=a, half_extent=int(half), values=rows[0],
                seed_record=record.derive("fbm"))
    return JointSample(x=x, walk=walk, level=level, seed_record=record,
                       t=float(t), y_t=y_t, z_t=float(mean[0] + std[0] * normal))


# ---------------------------------------------------------------------------
# Symmetric two-point expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorScheme:
    """Coefficients gamma_r of the symmetric expansion, r = 1..7.

    gamma_1 = 1/2 and gamma_2 = -1/24 are pinned; c_3..c_7 come from the
    5x5 exact-rational solve.  remainder_order is the first neglected power.
    """

    gammas: tuple
    remainder_order: int = 14

    def gamma_floats(self) -> np.ndarray:
        return np.array([float(g) for g in self.gammas])

    def expand(self, f: SmoothFunction, a: float, b: float) -> float:
        """Scheme value approximating f(b) - f(a)."""
        d = b - a
        total = 0.0
        p = d
        for r, g in enumerate(self.gammas, start=1):
            k = 2 * r - 1
            fk = f.derivative(k)
            total += float(g) * (fk(a) + fk(b)) * p
            p *= d * d
        return total


@lru_cache(maxsize=1)
def taylor_coefficients() -> TaylorScheme:
    """Solve for c_3..c_7 by exactness on x^5, x^7, ..., x^13 at (a,b)=(0,1)."""
    g1 = Fraction(1, 2)
    g2 = Fraction(-1, 24)

    def row_entry(k: int, r: int) -> Fraction:
        # f^{(m)}(0) + f^{(m)}(1) for f(x) = x^k and m = 2r - 1: the factor
        # of gamma_r when the scheme is applied to x^k at (a, b) = (0, 1)
        m = 2 * r - 1
        if m > k:
            return Fraction(0)
        c = Fraction(math.perm(k, m))
        return c + c if m == k else c

    unknown_rows = []
    rhs = []
    for k in (5, 7, 9, 11, 13):
        unknown_rows.append([row_entry(k, r) for r in range(3, 8)])
        rhs.append(1 - g1 * row_entry(k, 1) - g2 * row_entry(k, 2))

    # Back-substitution: the system is lower-triangular in (c_3, ..., c_7).
    cs = [Fraction(0)] * 5
    for i in range(5):
        acc = rhs[i]
        for jj in range(i):
            acc -= unknown_rows[i][jj] * cs[jj]
        diag = unknown_rows[i][i]
        if diag == 0:
            raise AssertionError("degenerate exactness system")
        cs[i] = acc / diag
    return TaylorScheme(gammas=(g1, g2, *cs))


# ---------------------------------------------------------------------------
# Residual and correction integral
# ---------------------------------------------------------------------------

def _skeletal_z_values(js: JointSample, t: float) -> np.ndarray:
    steps = floor_steps(js.level, t)
    if js.n_steps < steps:
        raise ExtentError(f"walk covers {js.n_steps} steps, need {steps}")
    idx = js.walk[: steps + 1] + js.x.half_extent
    if idx.min() < 0 or idx.max() >= len(js.x.values):
        raise ExtentError("spatial grid does not cover the walk range")
    return js.x.values[idx]


def ito_residual_pair(f: SmoothFunction, js: JointSample) -> tuple:
    """(f(Z_t) - f(0) - V_n(f', t), f(Z_{T_N}) - f(0) - V_n(f', t)) at js.t.

    T_N is the last skeletal time, N = floor(2^n t).  The first entry is
    the supercritical-formula defect; the second is its Taylor remainder at
    T_N, without the endpoint mismatch f(Z_t) - f(Z_{T_N}).  V_n is the
    cell sum up to the walk's index at T_N (criterion 1's identity).
    """
    terminal = int(js.walk[-1])
    if abs(terminal) > js.x.half_extent:
        raise ExtentError("spatial grid does not cover the walk end")
    return _residual_pair(f, js.x.values, terminal, js.z_t)


def _residual_pair(f: SmoothFunction, values: np.ndarray, terminal: int,
                   z_t: float) -> tuple:
    """``ito_residual_pair`` from the level's X grid values, unchecked."""
    v = _cell_sum(_as_weight(f, 1), values, terminal, 1)
    z_end = values[terminal + len(values) // 2]
    return float(f(z_t) - f(0.0) - v), float(f(z_end) - f(0.0) - v)


def ito_residual(f: SmoothFunction, js: JointSample) -> float:
    """f(Z_t) - f(0) - V_n(f', t) at js.t, the supercritical-formula defect."""
    return ito_residual_pair(f, js)[0]


def _as_weight(f: SmoothFunction, order: int) -> SmoothFunction:
    """Shift the derivative family so weight(x) = f^{(order)}(x)."""
    return SmoothFunction(descriptor=f"{f.descriptor}^({order})",
                          derivatives=f.derivatives[order:])


def correction_std(f: SmoothFunction, x: np.ndarray, width) -> "float | np.ndarray":
    """(KAPPA3/12) sqrt(width * sum_j f'''(x_j)^2), x_j at the cells' left ends.

    ``x`` may hold one row of left ends per draw, with ``width`` a scalar or
    one width per row; the result then holds one std per row.

    Given X, the forward sum of (KAPPA3/12) f'''(X) dW over the cells, W a
    Brownian motion independent of X, is normal with mean 0 and this std.
    """
    f3 = np.asarray(f.derivative(3)(x), dtype=float)
    std = (KAPPA3 / 12.0) * np.sqrt(width * np.add.reduce(f3 * f3, axis=-1))
    return float(std) if np.ndim(std) == 0 else std


# ---------------------------------------------------------------------------
# Branch verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyConfig:
    """Monte Carlo layout for one branch verification.

    Every branch draws each level in one pass.  ``workers`` is validated
    but has no effect; it is kept because existing callers pass it.
    """

    hurst: float
    f: SmoothFunction
    t: float
    levels: tuple
    replicas: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        HurstParameter(self.hurst)
        check_layout(self.t, self.levels, self.replicas, self.seed)
        if not (is_integral(self.workers) and self.workers >= 1):
            raise ValueError(f"workers must be an integer >= 1, got {self.workers}")


@dataclass
class VerificationReport(PerLevelReport):
    """Per-level Monte Carlo evidence for one branch of the formula check."""

    BODY_KEYS = {"f_descriptor": "f"}

    branch: str
    hurst: float
    f_descriptor: str
    t: float
    levels: list
    replicas: int
    per_level: list
    extra: dict
    seed: int
    wall_time: float = 0.0
    schema_version: int = REPORT_SCHEMA_VERSION


def _supercritical_pairs(cfg: VerifyConfig, level: int) -> tuple:
    """The residual pairs of every replica of one level, drawn in one pass.

    Entry r of each array is ``ito_residual_pair(f, sample_joint(hurst,
    level, t, SeedRecord(seed).derive("supercritical", level, r)))``, on the
    same draws.  Each replica's clock is drawn from its re-keyed "bm" stream
    and only (walk end, half extent, Y_t) are kept for the X rows.
    """
    rec = SeedRecord(cfg.seed).derive("supercritical", level)
    reps = np.arange(cfg.replicas)
    stream = KeyedPhilox()
    terminal = np.empty(cfg.replicas, dtype=np.int64)
    halves = np.empty(cfg.replicas, dtype=np.int64)
    y_t = np.empty(cfg.replicas)
    for rep, key in enumerate(rec.philox_keys(reps, "bm")):
        walk, y_t[rep], halves[rep] = _clock_draw(stream.at(key), level, cfg.t)
        terminal[rep] = walk[-1]
    normals = np.array([stream.at(k).standard_normal()
                        for k in rec.philox_keys(reps, "fbm", 1)])
    a = dyadic_step(level)
    res = np.empty(cfg.replicas)
    res_end = np.empty(cfg.replicas)
    for index, rows in sample_fbm_rows(cfg.hurst, a, halves, rec.philox_keys(reps, "fbm"),
                                       stream):
        mean, std = _x_conditional(rows, a, cfg.hurst, y_t[index])
        z_t = mean + std * normals[index]
        for rep, row, z in zip(index.tolist(), rows, z_t.tolist()):
            res[rep], res_end[rep] = _residual_pair(cfg.f, row, int(terminal[rep]), z)
    return res, res_end


def _branch_supercritical_level(cfg: VerifyConfig, level: int) -> dict:
    res, res_end = _supercritical_pairs(cfg, level)
    s = SampleSummary.from_samples(np.abs(res))
    end = SampleSummary.from_samples(np.abs(res_end))
    return {
        "mean_abs": s.mean,
        "p90": s.p90,
        "stderr": s.stderr,
        "mean_abs_at_skeleton_end": end.mean,
        "stderr_at_skeleton_end": end.stderr,
    }


def _walk_end_rows(cfg: VerifyConfig, level: int, role: str) -> Iterator[tuple]:
    """Batches (replicas, |j*|, increment rows) over every replica of one
    level whose exact level-n walk ends at t on a nonzero index j*.

    Replica r draws from the streams of ``SeedRecord(seed).derive(role,
    level, r)``: j* from "walk", then one-sided fGn at spacing 2^{-n/2} from
    "fbm", as many increments as the least power of two >= |j*|.  Replicas
    with j* = 0 have every cell sum empty and draw nothing.  Rows are drawn
    in batches of equal length, each overwritten by the next; the sums read
    the first |j*| entries.
    """
    # Both sums read X only between 0 and j*.  fGn is stationary and
    # s -> X(-s) is again an fBm, so a walk ending at -m gives, on the
    # mirrored path, the sum of one ending at +m: in law the sums depend on
    # |j*| only, and the increments from 0 to |j*| are one-sided fGn
    # (notes/decisions.md).
    steps = floor_steps(level, cfg.t)
    rec = SeedRecord(cfg.seed).derive(role, level)
    stream = KeyedPhilox()
    walk_keys = rec.philox_keys(np.arange(cfg.replicas), "walk")
    ups = (stream.at(k).binomial(steps, 0.5) for k in walk_keys)
    ends = np.abs(2 * np.fromiter(ups, np.int64, len(walk_keys)) - steps)
    drawn = np.flatnonzero(ends)
    for index, rows in sample_fgn_rows(cfg.hurst, dyadic_step(level),
                                       _pow2_at_least(ends[drawn]),
                                       rec.philox_keys(drawn, "fbm"), stream):
        reps = drawn[index]
        yield reps, ends[reps], rows


def _critical_lhs(cfg: VerifyConfig, level: int) -> np.ndarray:
    """Draws of f(Z_t) - f(0) + (KAPPA3/12) int_0^{Y_t} f'''(X) dW, one per
    replica r of the level, from ``SeedRecord(seed).derive("critical-lhs",
    level, r)``: Y_t from "bm", X from "fbm" and the correction's normal
    from "wiener".  X is one one-sided unit row of ``LHS_CELLS`` fGn
    increments, summed from 0 and scaled by |Y_t|^H in place.
    """
    # In law, X over [Y_t, 0] is X over [0, |Y_t|], which is |Y_t|^H times
    # X over [0, 1]: the cumulative sum from 0 of one unit row of fGn, whose
    # last value is Z_t (notes/decisions.md).
    rec = SeedRecord(cfg.seed).derive("critical-lhs", level)
    reps = np.arange(cfg.replicas)
    stream = KeyedPhilox()
    y_t = [math.sqrt(cfg.t) * float(stream.at(k).standard_normal())
           for k in rec.philox_keys(reps, "bm")]
    normals = np.array([float(stream.at(k).standard_normal())
                        for k in rec.philox_keys(reps, "wiener")])
    scale = np.array([abs(y) ** cfg.hurst for y in y_t])
    width = np.abs(y_t) / LHS_CELLS
    lhs = np.empty(cfg.replicas)
    for index, inc in sample_fgn_rows(cfg.hurst, 1.0 / LHS_CELLS, LHS_CELLS,
                                      rec.philox_keys(reps, "fbm"), stream):
        x = np.zeros((len(inc), LHS_CELLS + 1))
        np.cumsum(inc, axis=1, out=x[:, 1:])
        x *= scale[index, None]
        corr = correction_std(cfg.f, x[:, :-1], width[index]) * normals[index]
        lhs[index] = cfg.f(x[:, -1]) - cfg.f(0.0) + corr
    return lhs


def _critical_rhs(cfg: VerifyConfig, level: int) -> np.ndarray:
    """V_n(f', t), the symmetric cell sum over the walk's cells, one per
    replica of the level (0 where the walk ends at 0)."""
    f1 = _as_weight(cfg.f, 1)
    rhs = np.zeros(cfg.replicas)
    for reps, ends, rows in _walk_end_rows(cfg, level, "critical-rhs"):
        values = np.zeros((len(rows), rows.shape[1] + 1))
        np.cumsum(rows, axis=1, out=values[:, 1:])
        for rep, m, x in zip(reps.tolist(), ends.tolist(), values):
            rhs[rep] = _cell_sum(f1, x, m, 1, center=0)
    return rhs


def _branch_critical_level(cfg: VerifyConfig, level: int) -> dict:
    lhs_pool = _critical_lhs(cfg, level)
    rhs_pool = _critical_rhs(cfg, level)
    ks = ks_two_sample(lhs_pool, rhs_pool)
    return {"ks_distance": ks.statistic, "ks_p": ks.p_value,
            "lhs_std": float(lhs_pool.std(ddof=1)),
            "rhs_std": float(rhs_pool.std(ddof=1))}


def _cube_sums(cfg: VerifyConfig, level: int) -> np.ndarray:
    """V_n^(3)(1, t), the unweighted cube sum over the walk's cells, one per
    replica of the level (0 where the walk ends at 0).

    Each row's cubes at and past |j*| are zeroed and the row is summed
    pairwise over its padded length; a row's sum does not depend on the
    other rows of its batch (notes/decisions.md, "Masked cube sums").
    """
    vals = np.zeros(cfg.replicas)
    for reps, ends, rows in _walk_end_rows(cfg, level, "subcritical"):
        cubes = rows * rows * rows
        cubes[np.arange(rows.shape[1]) >= ends[:, None]] = 0.0
        vals[reps] = np.add.reduce(cubes, axis=1)
    return vals


def _branch_subcritical_level(cfg: VerifyConfig, level: int) -> dict:
    vals = _cube_sums(cfg, level)
    if not vals.any():
        raise ValueError(
            f"subcritical level {level}: every walk ended at 0 "
            f"(floor(2^{level} * {cfg.t}) = {floor_steps(level, cfg.t)} steps), "
            "so the cube sum has zero variance; raise the level or t"
        )
    s = SampleSummary.from_samples(vals)
    return {"mean": s.mean, "variance": s.variance,
            "var_stderr": variance_stderr(vals)}


def verify_branch(branch: str, config: VerifyConfig) -> VerificationReport:
    """Run the Monte Carlo check for one regime of the change-of-variable formula."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    regime = HurstParameter(config.hurst).regime
    if regime != branch:
        raise ValueError(
            f"branch {branch!r} requires a {branch} Hurst parameter; "
            f"H = {config.hurst} is {regime}"
        )
    runners = {
        "supercritical": _branch_supercritical_level,
        "critical": _branch_critical_level,
        "subcritical": _branch_subcritical_level,
    }
    start = time.perf_counter()
    per_level = [runners[branch](config, n) for n in config.levels]
    extra: dict = {}
    if branch == "subcritical":
        if len(config.levels) < 3:
            raise ValueError("subcritical verification needs >= 3 levels for the slope fit")
        slope, stderr = fit_log2_slope(
            [(n, row["variance"], row["var_stderr"])
             for n, row in zip(config.levels, per_level)]
        )
        extra = {"slope": slope, "slope_stderr": stderr,
                 "slope_target": (1.0 - 6.0 * config.hurst) / 2.0}
    elif branch == "supercritical" and len(config.levels) >= 3:
        slope, stderr = fit_log2_slope(
            [(n, row["mean_abs"], row["stderr"])
             for n, row in zip(config.levels, per_level)]
        )
        extra = {"mean_abs_log2_slope": slope, "mean_abs_log2_slope_stderr": stderr}
    return VerificationReport(
        branch=branch, hurst=config.hurst, f_descriptor=config.f.descriptor,
        t=config.t, levels=list(config.levels), replicas=config.replicas,
        per_level=per_level, extra=extra, seed=config.seed,
        wall_time=time.perf_counter() - start,
    )


def gate_clauses(report: VerificationReport) -> list:
    """The acceptance clauses that apply to a report, as (name, statistic,
    bound, ok, failure message) tuples; a NaN statistic fails its clause.

    Supercritical: mean_abs strictly decreases over the levels;
    mean_abs_at_skeleton_end at the top level is at most half its value at
    the lowest, where the remainder's rate 2^{-(n_K-n_1)(6H-1)/4} predicts a
    ratio of at most 1/3; and, from three levels on, the log2 slope of
    mean_abs lies within 3 standard errors of the endpoint-mismatch rate
    -H/4.  Critical: ks_distance is smaller at the top level than at the
    lowest.  Subcritical: the variance slope lies within 0.10 of (1-6H)/2.
    notes/decisions.md derives the supercritical rates.
    """
    rows, levels = report.per_level, report.levels
    clauses = []
    if report.branch == "supercritical":
        means = [row["mean_abs"] for row in rows]
        if len(means) >= 2:
            rise = float(np.max(np.diff(means)))
            clauses.append(("mean_abs strictly decreasing", rise, 0.0, rise < 0.0,
                            f"mean_abs not strictly decreasing: {means}"))
        predicted = 2.0 ** (-(levels[-1] - levels[0]) * (6.0 * report.hurst - 1.0) / 4.0)
        if predicted <= 1.0 / 3.0:
            low = rows[0]["mean_abs_at_skeleton_end"]
            top = rows[-1]["mean_abs_at_skeleton_end"]
            ratio = top / low if low else (math.inf if top else 0.0)
            clauses.append((
                "mean_abs_at_skeleton_end halving", ratio, 0.5, ratio <= 0.5,
                f"mean_abs_at_skeleton_end at level {levels[-1]} is {ratio:.3f} of its "
                f"level-{levels[0]} value, above 0.5 (its rate predicts {predicted:.3f})"))
        if len(levels) >= 3:
            slope = report.extra["mean_abs_log2_slope"]
            band = 3 * report.extra["mean_abs_log2_slope_stderr"]
            target = -report.hurst / 4
            miss = abs(slope - target)
            clauses.append((
                "mean_abs log2 slope within 3 SE of -H/4", miss, band, miss <= band,
                f"log2 slope of mean_abs {slope:.4f} outside {target:.4f} +- {band:.4f} (3 SE)"))
    elif report.branch == "critical":
        ks = [row["ks_distance"] for row in rows]
        if len(ks) >= 2:
            clauses.append((
                "ks_distance shrinks", ks[-1], ks[0], ks[-1] < ks[0],
                f"ks_distance at level {levels[-1]} ({ks[-1]:.4f}) not smaller than at "
                f"level {levels[0]} ({ks[0]:.4f})"))
    elif report.branch == "subcritical":
        slope = report.extra["slope"]
        target = report.extra["slope_target"]
        miss = abs(slope - target)
        clauses.append((
            "variance slope within 0.10 of (1-6H)/2", miss, 0.10, miss <= 0.10,
            f"variance slope {slope:.3f} outside {target:.3f} +- 0.1"))
    return clauses


def evaluate_gate(report: VerificationReport) -> list:
    """The failure messages of the report's clauses (``gate_clauses``);
    empty when the report passes."""
    return [message for *_, ok, message in gate_clauses(report) if not ok]
