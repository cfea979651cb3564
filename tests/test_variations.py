"""Hermite machinery, weight functions, and variation identities."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmbt.fgn import ExtentError, FbmPath, HurstParameter, dyadic_step, \
    sample_fbm_two_sided
from fbmbt.skeleton import SkeletalStructure, crossing_counts, sample_walk_exact
from fbmbt.streams import SeedRecord
from fbmbt.variations import (constant_one,
                              cosine, decompose_variation, function_by_name,
                              gaussian_bump, hermite, odd_power_hermite_coeffs,
                              polynomial, rescaled_increment, sine,
                              symmetric_cell_sum, symmetric_variation_direct,
                              symmetric_variation_skeletal,
                              weighted_hermite_variation)


def _sympy_hermite_prob(p):
    """Monic probabilists' Hermite polynomial via the recurrence, symbolic."""
    x = sympy.Symbol("x")
    h_prev, h = sympy.Integer(1), x
    if p == 0:
        return sympy.Integer(1), x
    for k in range(1, p):
        h, h_prev = sympy.expand(x * h - k * h_prev), h
    return h, x


def _manual_fbm(values, hurst, spacing):
    values = np.asarray(values, dtype=float)
    half = (len(values) - 1) // 2
    return FbmPath(hurst=HurstParameter(hurst), spacing=spacing,
                   half_extent=half, values=values, seed_record=SeedRecord(0))


class TestHermite:
    def test_first_orders(self):
        assert hermite(0, 1.7) == 1.0
        assert hermite(1, -2.3) == -2.3
        assert hermite(3, 2.0) == 2.0  # x^3 - 3x at 2

    def test_explicit_fifth_order(self):
        x = 1.3
        assert hermite(5, x) == pytest.approx(x**5 - 10 * x**3 + 15 * x, rel=1e-14)

    @pytest.mark.parametrize("p", list(range(14)))
    def test_recurrence_matches_symbolic_expansion(self, p):
        poly, x = _sympy_hermite_prob(p)
        rng = np.random.default_rng(p)
        for xv in rng.uniform(-3, 3, 20):
            exact = float(poly.subs(x, sympy.Float(xv, 30)))
            got = hermite(p, xv)
            assert got == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_vectorized(self):
        xs = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(hermite(3, xs), xs**3 - 3 * xs, rtol=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)


class TestOddPowerCoeffs:
    def test_first_is_identity(self):
        np.testing.assert_array_equal(odd_power_hermite_coeffs(1), [1.0])

    def test_cube(self):
        np.testing.assert_array_equal(odd_power_hermite_coeffs(2), [3.0, 1.0])

    @pytest.mark.parametrize("r", range(1, 8))
    def test_leading_coefficient_is_one(self, r):
        assert odd_power_hermite_coeffs(r)[-1] == 1.0

    @pytest.mark.parametrize("r", range(1, 8))
    def test_symbolic_identity(self, r):
        # sum_l a_{r,l} H_{2l-1}(x) - x^{2r-1} must vanish identically
        coeffs = odd_power_hermite_coeffs(r)
        x = sympy.Symbol("x")
        acc = -x ** (2 * r - 1)
        for l in range(1, r + 1):
            poly, xs = _sympy_hermite_prob(2 * l - 1)
            acc += sympy.Integer(int(coeffs[l - 1])) * poly.subs(xs, x)
        assert sympy.expand(acc) == 0

    @pytest.mark.parametrize("r", range(1, 8))
    def test_double_factorial_closed_form(self, r):
        expected = [
            math.factorial(2 * r - 1)
            // (math.factorial(2 * l - 1) * 2 ** (r - l) * math.factorial(r - l))
            for l in range(1, r + 1)
        ]
        np.testing.assert_array_equal(odd_power_hermite_coeffs(r), expected)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            odd_power_hermite_coeffs(8)
        with pytest.raises(ValueError):
            odd_power_hermite_coeffs(0)


class TestSmoothFunctions:
    @pytest.mark.parametrize("fname", ["sin", "cos", "gauss", "one", "identity",
                                       "square", "cube"])
    def test_order_zero_is_the_function(self, fname):
        f = function_by_name(fname)
        assert f.derivative(0) is f.derivatives[0]
        assert f(0.5) == f.derivative(0)(0.5)

    @pytest.mark.parametrize("builder", [sine, cosine, gaussian_bump,
                                         lambda: polynomial([0.5, -1.0, 0.0, 2.0])])
    def test_derivatives_match_finite_differences(self, builder):
        f = builder()
        rng = np.random.default_rng(17)
        xs = rng.uniform(-1.5, 1.5, 100)
        h = 1e-5
        for order in range(1, 6):
            upper = f.derivative(order - 1)
            fd = (upper(xs + h) - upper(xs - h)) / (2 * h)
            exact = f.derivative(order)(xs)
            scale = np.maximum(1.0, np.abs(exact))
            assert np.all(np.abs(fd - exact) <= 1e-6 * scale)

    def test_high_orders_available(self):
        for fname in ("sin", "gauss", "one", "square"):
            f = function_by_name(fname)
            val = f.derivative(13)(0.3)
            assert np.isfinite(val)

    def test_constant_one(self):
        f = constant_one()
        assert f(123.0) == 1.0
        assert f.derivative(1)(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown function"):
            function_by_name("tanh")

    def test_gaussian_bump_closed_form(self):
        f = gaussian_bump()
        x = 0.7
        assert f(x) == pytest.approx(np.exp(-x * x / 2))
        assert f.derivative(1)(x) == pytest.approx(-x * np.exp(-x * x / 2))
        assert f.derivative(2)(x) == pytest.approx((x * x - 1) * np.exp(-x * x / 2))


class TestDirectVariation:
    def test_constant_weight_telescopes(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(200).cumsum()
        v = symmetric_variation_direct(constant_one(), z, 1)
        assert v == pytest.approx(z[-1] - z[0], abs=1e-12)

    def test_linear_weight_telescopes_squares(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(150).cumsum()
        f = polynomial([0.0, 2.0])  # f = 2x, so 0.5(f(a)+f(b))(b-a) = b^2-a^2
        v = symmetric_variation_direct(f, z, 1)
        assert v == pytest.approx(z[-1] ** 2 - z[0] ** 2, abs=1e-11)

    def test_rejects_short_input_and_even_order(self):
        with pytest.raises(ValueError):
            symmetric_variation_direct(sine(), [1.0], 1)
        with pytest.raises(ValueError):
            symmetric_variation_direct(sine(), [1.0, 2.0], 2)


class TestSkeletalVariation:
    def _joint(self, level, steps, seed, hurst=0.3, refine=1):
        rec = SeedRecord(seed)
        sk = sample_walk_exact(level, steps, rec)
        reach = int(np.max(np.abs(sk.walk))) + 2
        x = sample_fbm_two_sided(hurst, dyadic_step(level) / refine,
                                 reach * refine, rec.derive("fbm"))
        return sk, x

    def test_zero_terminal_gives_zero(self):
        from fbmbt.skeleton import CrossingCounts
        x = sample_fbm_two_sided(0.3, dyadic_step(4), 8, seed=1)
        cc = CrossingCounts(level=4, horizon=0.25, up={0: 2, -1: 1},
                            down={0: 2, -1: 1}, terminal=0)
        assert symmetric_variation_skeletal(sine(), x, cc, 3) == 0.0

    def test_direct_equals_skeletal(self):
        f = sine()
        for seed in range(8):
            for level in (4, 5, 8):
                sk, x = self._joint(level, 2**level, seed=100 + seed)
                cc = crossing_counts(sk, 1.0)
                z = x.values[sk.walk * x.dyadic_stride(level) + x.half_extent]
                for r in (1, 2, 3):
                    direct = symmetric_variation_direct(f, z[: 2**level + 1], 2 * r - 1)
                    skel = symmetric_variation_skeletal(f, x, cc, 2 * r - 1)
                    tol = max(1e-9 * max(abs(direct), abs(skel)), 1e-12)
                    assert abs(direct - skel) <= tol

    def test_strided_grid_supported(self):
        f = cosine()
        sk, x = self._joint(6, 64, seed=3, refine=8)
        cc = crossing_counts(sk, 1.0)
        z = x.values[sk.walk * x.dyadic_stride(6) + x.half_extent]
        direct = symmetric_variation_direct(f, z, 3)
        skel = symmetric_variation_skeletal(f, x, cc, 3)
        assert abs(direct - skel) <= max(1e-9 * abs(direct), 1e-12)

    def test_extent_error_names_requirement(self):
        sk, x = self._joint(4, 64, seed=4)
        cc = crossing_counts(sk, 4.0)
        small = _manual_fbm([0.0, 0.0, 0.0], 0.3, dyadic_step(4))
        if abs(cc.terminal) > 1:
            with pytest.raises(ExtentError, match="need"):
                symmetric_variation_skeletal(sine(), small, cc, 1)

    def test_constant_weight_reaches_terminal_value(self):
        sk, x = self._joint(5, 200, seed=5)
        cc = crossing_counts(sk, 200 * 2.0**-5)
        v = symmetric_variation_skeletal(constant_one(), x, cc, 1)
        expected = x.values[cc.terminal * x.dyadic_stride(5) + x.half_extent]
        assert v == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200),
       order=st.sampled_from([1, 3, 5]),
       name=st.sampled_from(["sin", "gauss", "cube"]),
       level=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_cell_sum_identity_on_random_walks(steps, order, name, level, seed):
    # a +-1 walk crosses every cell between 0 and its end once more in one
    # direction than the other; all other crossings cancel term by term
    walk = np.concatenate([[0], np.cumsum(steps)])
    x = sample_fbm_two_sided(0.3, dyadic_step(level),
                             int(np.max(np.abs(walk))) + 1, seed=seed)
    f = function_by_name(name)
    direct = symmetric_variation_direct(f, x.values[walk + x.half_extent], order)
    cell = symmetric_cell_sum(f, x, level, int(walk[-1]), order)
    assert abs(direct - cell) <= max(1e-9 * max(abs(direct), abs(cell)), 1e-12)


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 7), x=st.floats(-8.0, 8.0))
def test_odd_power_hermite_recombination(r, x):
    # x^{2r-1} = sum_l a_{r,l} H_{2l-1}(x); the float sum may cancel, so
    # the error is bounded relative to the sum of the terms' moduli
    terms = [a * hermite(2 * l - 1, x)
             for l, a in enumerate(odd_power_hermite_coeffs(r), start=1)]
    scale = math.fsum(abs(v) for v in terms)
    assert abs(math.fsum(terms) - x ** (2 * r - 1)) <= 1e-13 * max(scale, 1e-300)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=120),
       level=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_hermite_decomposition_on_random_walks(steps, level, seed):
    # the variation equals its Hermite recombination (criterion 2) on any walk
    walk = np.concatenate([[0], np.cumsum(steps)])
    sk = SkeletalStructure(level=level, times=np.arange(len(walk), dtype=float),
                           walk=walk, mode="naive", source={})
    x = sample_fbm_two_sided(0.3, dyadic_step(level),
                             int(np.max(np.abs(walk))) + 2, seed=seed)
    counts = crossing_counts(sk, (len(walk) - 1) * 2.0**-level)
    for order in (1, 3, 5):
        lhs, rhs = decompose_variation(sine(), x, counts, order)
        assert abs(lhs - rhs) <= max(1e-9 * max(abs(lhs), abs(rhs)), 1e-12)


class TestRescaledIncrement:
    def test_first_increment_from_zero(self):
        x = sample_fbm_two_sided(0.3, dyadic_step(6), 8, seed=9)
        got = rescaled_increment(x, 6, 0, 1)
        expected = 2.0 ** (6 * 0.3 / 2) * x.values[x.half_extent + 1]
        assert got == pytest.approx(expected, rel=1e-15)

    def test_unit_variance(self):
        h, level, reps = 0.3, 6, 10_000
        base = SeedRecord(50)
        vals = np.empty(reps)
        for rep in range(reps):
            x = sample_fbm_two_sided(h, dyadic_step(level), 4,
                                     base.derive("replica", rep))
            vals[rep] = rescaled_increment(x, level, 1, -1)
        assert abs(vals.var(ddof=1) - 1.0) <= 3 * np.sqrt(2.0 / reps)

    def test_lag_correlation_matches_autocovariance(self):
        from fbmbt.fgn import increment_autocovariance
        h, level, reps = 0.25, 4, 20_000
        base = SeedRecord(51)
        inc = np.empty((reps, 3))
        for rep in range(reps):
            x = sample_fbm_two_sided(h, dyadic_step(level), 4,
                                     base.derive("replica", rep))
            inc[rep] = [rescaled_increment(x, level, j, 1) for j in range(3)]
        for lag in (1, 2):
            emp = np.mean(inc[:, 0] * inc[:, lag])
            assert emp == pytest.approx(increment_autocovariance(lag, h),
                                        abs=3.5 / np.sqrt(reps))

    def test_extent_error(self):
        x = sample_fbm_two_sided(0.3, dyadic_step(4), 2, seed=1)
        with pytest.raises(ExtentError):
            rescaled_increment(x, 4, 5, 1)


class TestWeightedHermiteVariation:
    def test_empty_sum(self):
        x = sample_fbm_two_sided(0.3, dyadic_step(8), 16, seed=2)
        assert weighted_hermite_variation(sine(), x, 8, 3, 2.0**-8) == 0.0

    def test_constant_weight_order_one_telescopes(self):
        x = sample_fbm_two_sided(0.35, dyadic_step(6), 64, seed=3)
        t = 12 * dyadic_step(6)
        got = weighted_hermite_variation(constant_one(), x, 6, 1, t)
        expected = 2.0 ** (6 * 0.35 / 2) * x.values[x.half_extent + 12]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_negative_time_reads_negative_branch(self):
        # asymmetric hand-built values: the - branch must be used for t < 0
        vals = np.array([5.0, 3.0, 0.0, 100.0, 200.0])
        x = _manual_fbm(vals, 0.5, dyadic_step(2))
        got = weighted_hermite_variation(constant_one(), x, 2, 1, -2 * dyadic_step(2))
        scale = 2.0 ** (2 * 0.5 / 2)
        # increments along 0 -> -a -> -2a: (3-0) + (5-3) = 5
        assert got == pytest.approx(scale * 5.0, rel=1e-14)

    def test_hermite_decomposition_identity(self):
        f = sine()
        for seed in (0, 1, 2, 3, 4):
            rec = SeedRecord(700 + seed)
            level = 6
            sk = sample_walk_exact(level, 2**level, rec)
            reach = int(np.max(np.abs(sk.walk))) + 2
            x = sample_fbm_two_sided(0.3, dyadic_step(level), reach, rec.derive("fbm"))
            cc = crossing_counts(sk, 1.0)
            for order in (1, 3, 5):
                lhs, rhs = decompose_variation(f, x, cc, order)
                tol = max(1e-9 * max(abs(lhs), abs(rhs)), 1e-12)
                assert abs(lhs - rhs) <= tol, (seed, order)

    def test_extent_error(self):
        x = sample_fbm_two_sided(0.3, dyadic_step(8), 4, seed=4)
        with pytest.raises(ExtentError):
            weighted_hermite_variation(sine(), x, 8, 1, 1.0)

