"""The deterministic identities C1-C4 and C12's crossing closed form at the
acceptance sizes.  Each check takes only its seed and returns its case of
largest error / tolerance; ``fbmbt selftest`` and the acceptance suite call them."""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import _skeletal_z_values, ito_residual, sample_joint, taylor_coefficients
from .fgn import dyadic_step, sample_fbm_two_sided
from .skeleton import SkeletalStructure, crossing_counts, sample_walk_exact, updown_difference
from .streams import SeedRecord
from .variations import (decompose_variation, function_by_name, polynomial, sine,
                         symmetric_variation_direct, symmetric_variation_skeletal)

__all__ = ["IdentityResult", "CHECKS", "cell_sum_identity", "hermite_decomposition",
           "two_point_expansion", "residual_telescoping", "crossing_closed_form"]


@dataclass(frozen=True)
class IdentityResult:
    """The worst case of one identity check."""

    name: str
    error: float
    tol: float
    where: str

    @property
    def ok(self) -> bool:
        return self.error <= self.tol

    @property
    def ratio(self) -> float:
        """error / tol; with a zero tolerance, 0 if exact and inf if not."""
        return self.error / self.tol if self.tol else (math.inf if self.error else 0.0)

    def __str__(self) -> str:
        return f"{self.name}: worst error {self.error:.3g} (tol {self.tol:.3g}) at {self.where}"


def _identity(name: str):
    """Make a generator of (error, tol, where) cases a check of its worst;
    a failing case (a NaN error too) outranks every passing one."""
    def wrap(cases):
        def check(seed: int) -> IdentityResult:
            return max((IdentityResult(name, *c) for c in cases(seed)),
                       key=lambda r: (not r.ok, r.ratio))
        return functools.wraps(cases)(check)
    return wrap


def _ident_tol(a: float, b: float) -> float:
    return max(1e-9 * max(abs(a), abs(b)), 1e-12)


@_identity("cell-sum identity")
def cell_sum_identity(seed: int):
    """C1: direct and cell-sum variations agree to 1e-9 relative."""
    base = SeedRecord(seed)
    for n in range(4, 13):
        for i in range(100):
            js = sample_joint(0.3, n, 1.0, base.derive("replica", n, i))
            cc = crossing_counts(js, 1.0)
            z = _skeletal_z_values(js, 1.0)
            for r in (1, 2, 3):
                direct = symmetric_variation_direct(sine(), z, 2 * r - 1)
                skel = symmetric_variation_skeletal(sine(), js.x, cc, 2 * r - 1)
                yield abs(direct - skel), _ident_tol(direct, skel), f"n={n}, i={i}, r={r}"


@_identity("Hermite decomposition identity")
def hermite_decomposition(seed: int):
    """C2: the variation equals its Hermite recombination to 1e-9 relative."""
    base = SeedRecord(seed)
    for n in (4, 6, 8, 10, 12):
        for r in (1, 2, 3):
            for i in range(50):
                rec = base.derive("replica", n, r, i)
                sk = sample_walk_exact(n, 2**n, rec, with_times=False)
                reach = int(np.max(np.abs(sk.walk))) + 2
                x = sample_fbm_two_sided(0.3, dyadic_step(n), reach, rec.derive("fbm"))
                lhs, rhs = decompose_variation(sine(), x, crossing_counts(sk, 1.0), 2 * r - 1)
                yield abs(lhs - rhs), _ident_tol(lhs, rhs), f"n={n}, r={r}, i={i}"


@_identity("two-point expansion exactness")
def two_point_expansion(seed: int):
    """C3: gamma_2 = -1/24, and the expansion is exact to degree 13."""
    scheme = taylor_coefficients()
    yield abs(float(scheme.gammas[1] - Fraction(-1, 24))), 0.0, "gamma_2"
    rng = np.random.default_rng(seed)
    for k in range(14):
        mono = polynomial([0.0] * k + [1.0])
        for _ in range(100):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            err = abs(scheme.expand(mono, a, b) - (b**k - a**k))
            yield err, 1e-10 * max(1.0, abs(b - a)) ** 13, f"k={k}, a={a}, b={b}"


@_identity("residual telescoping")
def residual_telescoping(seed: int):
    """C4: the residuals of x and x^2 telescope to 1e-12."""
    for i in range(5):
        js = sample_joint(0.35, 8, 1.0, SeedRecord(seed).derive("replica", i))
        z_end = _skeletal_z_values(js, 1.0)[-1]
        for f, power in (("identity", 1), ("square", 2)):
            res = ito_residual(function_by_name(f), js)
            yield abs(res - (js.z_t**power - z_end**power)), 1e-12, f"i={i}, f={f}"


@_identity("crossing closed form and conservation")
def crossing_closed_form(seed: int):
    """C12: U_j - D_j meets its closed form and the crossings add up to the
    step count on every walk of length <= 12 and 1000 of length 300."""
    rng = np.random.default_rng(seed)
    walks = [([1 if (bits >> i) & 1 else -1 for i in range(length)],
              f"length={length}, bits={bits}")
             for length in range(1, 13) for bits in range(2**length)]
    walks += [(rng.choice([-1, 1], size=300), f"length=300, draw={d}") for d in range(1000)]
    for steps, where in walks:
        walk = np.concatenate([[0], np.cumsum(steps)])
        sk = SkeletalStructure(level=2, times=np.arange(len(walk), dtype=float),
                               walk=walk, mode="naive", source={})
        cc = crossing_counts(sk, len(steps) / 4.0)
        yield max(abs(cc.n_steps - len(steps)), *(
            abs(cc.up.get(j, 0) - cc.down.get(j, 0) - updown_difference(cc.terminal, j))
            for j in range(int(walk.min()) - 1, int(walk.max()) + 2))), 0, where


CHECKS = (cell_sum_identity, hermite_decomposition, two_point_expansion,
          residual_telescoping, crossing_closed_form)
