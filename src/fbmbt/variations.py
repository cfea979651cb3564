"""Weighted power variations along the skeleton, and their Hermite form.

The symmetric variation of odd order 2r-1 over the skeletal partition,

    V_n^{(2r-1)}(f, t) = sum_k 0.5*(f(Z_k) + f(Z_{k+1})) * (Z_{k+1} - Z_k)^{2r-1},

admits an exact regrouping over grid cells: each walk step crosses exactly
one cell, so the sum equals

    sum_j 0.5*(f(X_j) + f(X_{j+1})) * (X_{j+1} - X_j)^{2r-1} * (U_j - D_j),

with U_j - D_j given in closed form by the terminal walk index.  Both
evaluations are provided; with exact (fsum) accumulation they agree to the
last bit because they sum the same multiset of products.

X lives on the level's own grid: X_j is the value at j * 2^{-n/2}, the
points the level-n walk hits, and each public sum rejects a path of any
other spacing (``FbmPath.check_level_grid``).

The Hermite route rewrites x^{2r-1} = sum_l a_{r,l} H_{2l-1}(x) (monic
probabilists' polynomials, integer coefficients) and splits the variation
into the rescaled-walk statistics W_n^{(2l-1)} evaluated at the terminal
walk position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fgn import ExtentError, FbmPath, dyadic_step, floor_steps

__all__ = [
    "SmoothFunction",
    "hermite",
    "odd_power_hermite_coeffs",
    "symmetric_variation_direct",
    "symmetric_cell_sum",
    "weighted_hermite_variation",
    "sine",
    "cosine",
    "gaussian_bump",
    "polynomial",
    "constant_one",
    "function_by_name",
]

MAX_DERIVATIVE_ORDER = 14


# ---------------------------------------------------------------------------
# Smooth weight functions with their derivative families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothFunction:
    """A weight function together with derivative callables up to order 14."""

    descriptor: str
    derivatives: tuple

    def __call__(self, x):
        return self.derivatives[0](x)

    def derivative(self, order: int) -> Callable:
        if not (0 <= order < len(self.derivatives)):
            raise ValueError(f"derivative order {order} not available")
        return self.derivatives[order]


def sine() -> SmoothFunction:
    cycle = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    return SmoothFunction("sin", tuple(cycle[k % 4] for k in range(MAX_DERIVATIVE_ORDER + 1)))


def cosine() -> SmoothFunction:
    cycle = (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin)
    return SmoothFunction("cos", tuple(cycle[k % 4] for k in range(MAX_DERIVATIVE_ORDER + 1)))


def gaussian_bump() -> SmoothFunction:
    """exp(-x^2/2); its k-th derivative is (-1)^k He_k(x) exp(-x^2/2)."""
    def deriv(k):
        sign = -1.0 if k % 2 else 1.0

        def d(x, _k=k, _s=sign):
            x = np.asarray(x, dtype=float)
            out = _s * hermite(_k, x) * np.exp(-0.5 * x * x)
            return float(out) if out.ndim == 0 else out

        return d

    return SmoothFunction("gauss", tuple(deriv(k) for k in range(MAX_DERIVATIVE_ORDER + 1)))


def polynomial(coeffs) -> SmoothFunction:
    """Polynomial sum(c_i x^i) from low-order coefficients."""
    coeffs = [float(c) for c in coeffs]
    descriptor = "poly[" + ",".join(repr(c) for c in coeffs) + "]"

    def deriv(k):
        c = list(coeffs)
        for _ in range(k):
            c = [i * c[i] for i in range(1, len(c))]
        if not c:
            c = [0.0]
        arr = np.array(c[::-1])

        def d(x, _arr=arr):
            out = np.polyval(_arr, np.asarray(x, dtype=float))
            return float(out) if np.ndim(out) == 0 else out

        return d

    return SmoothFunction(descriptor, tuple(deriv(k) for k in range(MAX_DERIVATIVE_ORDER + 1)))


def constant_one() -> SmoothFunction:
    def const(v):
        def d(x, _v=v):
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, _v)
            return float(out) if out.ndim == 0 else out

        return d

    return SmoothFunction("one", (const(1.0),) + tuple(const(0.0) for _ in range(MAX_DERIVATIVE_ORDER)))


_CATALOG = {
    "sin": sine,
    "cos": cosine,
    "gauss": gaussian_bump,
    "one": constant_one,
    "identity": lambda: polynomial([0.0, 1.0]),
    "square": lambda: polynomial([0.0, 0.0, 1.0]),
    "cube": lambda: polynomial([0.0, 0.0, 0.0, 1.0]),
}


def function_by_name(name: str) -> SmoothFunction:
    try:
        return _CATALOG[name]()
    except KeyError:
        raise ValueError(
            f"unknown function {name!r}; choose from {sorted(_CATALOG)}"
        ) from None


# ---------------------------------------------------------------------------
# Hermite polynomials (probabilists', monic) and the odd-power decomposition
# ---------------------------------------------------------------------------

def hermite(p: int, x):
    """H_p(x) by the recurrence H_{p+1} = x H_p - p H_{p-1}; H_0=1, H_1=x."""
    if p < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if p == 0:
        return float(h_prev) if h_prev.ndim == 0 else h_prev
    h = x.copy()
    for k in range(1, p):
        h, h_prev = x * h - k * h_prev, h
    return float(h) if h.ndim == 0 else h


@lru_cache(maxsize=32)
def _hermite_monomial_coeffs(p: int) -> tuple:
    """Integer coefficients of H_p in the monomial basis (index = power)."""
    prev = [1]
    if p == 0:
        return (1,)
    cur = [0, 1]
    for k in range(1, p):
        nxt = [0] + cur  # x * H_k
        for i, c in enumerate(prev):
            nxt[i] -= k * c
        prev, cur = cur, nxt + [0] * (len(prev) + 2 - len(nxt))
        cur = cur[: k + 2]
    return tuple(cur)


@lru_cache(maxsize=16)
def odd_power_hermite_coeffs(r: int) -> np.ndarray:
    """Coefficients a_{r,1..r} with x^{2r-1} = sum_l a_{r,l} H_{2l-1}(x).

    Solved by exact integer back-substitution on monomial coefficients;
    the leading coefficient a_{r,r} is 1.
    """
    if not (1 <= r <= 7):
        raise ValueError(f"order parameter r must be in 1..7, got {r}")
    # target[i] = coefficient of x^{2i+1}
    target = [0] * r
    target[r - 1] = 1
    tables = [_hermite_monomial_coeffs(2 * l - 1) for l in range(1, r + 1)]
    a = [0] * r
    for l in range(r, 0, -1):
        a[l - 1] = target[l - 1]  # monic: coefficient of x^{2l-1} in H_{2l-1} is 1
        tab = tables[l - 1]
        for i in range(l):
            target[i] -= a[l - 1] * tab[2 * i + 1]
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Variation sums
# ---------------------------------------------------------------------------

def _odd_power(x: np.ndarray, order: int) -> np.ndarray:
    """x**order for odd order via explicit multiplies (sign-exact)."""
    out = x
    for _ in range((order - 1) // 2):
        out = out * x * x
    return out


def _check_order(order: int) -> None:
    if order < 1 or order % 2 == 0:
        raise ValueError(f"order must be odd and >= 1, got {order}")


def symmetric_variation_direct(f: SmoothFunction, z_values, order: int) -> float:
    """Trapezoid-weighted odd-power sum over consecutive skeletal values."""
    _check_order(order)
    z = np.asarray(z_values, dtype=float)
    if z.size < 2:
        raise ValueError("need at least two skeletal values")
    fz = f(z)
    weights = 0.5 * (fz[:-1] + fz[1:])
    terms = weights * _odd_power(np.diff(z), order)
    return math.fsum(terms.tolist())


def _level_values(x_grid: FbmPath, level: int, reach: int) -> np.ndarray:
    """The values of a path on the level's grid that reaches grid index
    ``reach`` on each side of time zero."""
    x_grid.check_level_grid(level)
    if reach > x_grid.half_extent:
        raise ExtentError(f"spatial grid covers |j| <= {x_grid.half_extent}, "
                          f"need |j| <= {reach} at level {level}")
    return x_grid.values


def _cell_ends(values: np.ndarray, cells: np.ndarray, sign: int,
               center: int) -> tuple:
    """X at both ends of each cell: grid points ``cells`` and ``cells + sign``
    counted from time zero at index ``center``."""
    i = cells + center
    return values[i], values[i + sign]


def symmetric_cell_sum(f: SmoothFunction, x_grid: FbmPath, level: int,
                       terminal: int, order: int) -> float:
    """Cell sum of a level-n walk that ends at index ``terminal``.

    U_j - D_j depends only on the terminal index, so no crossing counts are
    needed: each cell between 0 and the terminal index counts once.
    """
    _check_order(order)
    values = _level_values(x_grid, level, abs(terminal))
    return _cell_sum(f, values, terminal, order)


def _cell_sum(f: SmoothFunction, values: np.ndarray, terminal: int, order: int,
              center: "int | None" = None) -> float:
    """``symmetric_cell_sum`` on raw values of the level's grid with time
    zero at index ``center`` (the middle of a two-sided grid when None),
    unchecked."""
    if terminal == 0:
        return 0.0
    j = np.arange(0, terminal) if terminal > 0 else np.arange(terminal, 0)
    # U_j - D_j (skeleton.updown_difference) on each of the cells j
    sign = 1.0 if terminal > 0 else -1.0
    if center is None:
        center = len(values) // 2
    x0, x1 = _cell_ends(values, j, 1, center)
    fz = 0.5 * (f(x0) + f(x1))
    terms = fz * _odd_power(x1 - x0, order)
    return sign * math.fsum(terms.tolist())


def weighted_hermite_variation(f: SmoothFunction, x_grid: FbmPath, level: int,
                               order: int, t: float) -> float:
    """W_n^{(order)}(f, t): the + branch for t >= 0, the - branch at -t for t < 0.

    Sums over the cells j = 0..count-1 of the branch, count = floor(2^{n/2} |t|),
    with the unit-variance increment 2^{nH/2} (X_{+-(j+1)a} - X_{+-ja}),
    a = 2^{-n/2}, in the Hermite polynomial.
    """
    _check_order(order)
    sign = 1 if t >= 0 else -1
    count = floor_steps(level / 2.0, abs(t))
    values = _level_values(x_grid, level, count)
    if count <= 0:
        return 0.0
    x0, x1 = _cell_ends(values, sign * np.arange(count), sign, x_grid.half_extent)
    scale = 2.0 ** (level * x_grid.hurst.value / 2.0)
    xi = scale * (x1 - x0)
    weights = 0.5 * (f(x0) + f(x1))
    terms = weights * hermite(order, xi)
    return math.fsum(terms.tolist())


def decompose_variation(f: SmoothFunction, x_grid: FbmPath, level: int,
                        terminal: int, order: int) -> tuple:
    """Both sides of the Hermite decomposition of V_n^{(order)}, order = 2r-1,
    for a level-n walk that ends at index ``terminal``.

    Returns (direct_cell_sum, hermite_recombination) evaluated on the same
    inputs; used by the identity check C2 and its tests.
    """
    lhs = symmetric_cell_sum(f, x_grid, level, terminal, order)
    r = (order + 1) // 2
    ystar = terminal * dyadic_step(level)
    coeffs = odd_power_hermite_coeffs(r)
    scale = 2.0 ** (-level * x_grid.hurst.value * (r - 0.5))
    rhs = scale * math.fsum(
        coeffs[l - 1] * weighted_hermite_variation(f, x_grid, level, 2 * l - 1, ystar)
        for l in range(1, r + 1)
    )
    return lhs, rhs
