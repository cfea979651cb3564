"""End-to-end acceptance suite.

One test per acceptance criterion, in order.  Each test prints a single
``ACCEPTANCE k <name>: PASS/FAIL`` line with the measured statistics and
asserts every clause of the criterion at its stated tolerance.  Master
seeds are pinned so the suite is reproducible run-to-run.

Criterion 7 gates each part of the supercritical residual
f(Z_t) - f(0) - V_n(f', t) at the rate its definition allows.  V_n stops
at the last skeletal time T_N, N = floor(2^n t), so the residual is the
Taylor remainder at T_N plus the endpoint mismatch f(Z_t) - f(Z_{T_N}).
The mismatch dominates and decays like 2^{-nH/4}; the remainder decays
like 2^{-n(6H-1)/4}.  The halving clause therefore applies to the
remainder alone, and the full residual's log2 slope is checked against
-H/4.  notes/decisions.md has the derivation and the measured split.
"""

import math
import time

import numpy as np

from fbmbt.calculus import VerifyConfig, _pow2_at_least, evaluate_gate, verify_branch
from fbmbt.fgn import dyadic_step, sample_fbm_rows, sample_fbm_two_sided
from fbmbt.identities import (cell_sum_identity, crossing_closed_form, hermite_decomposition,
                              residual_telescoping, two_point_expansion)
from fbmbt.scaling import check_cubic, check_quadratic
from fbmbt.skeleton import sample_walk_exact
from fbmbt.streams import KeyedPhilox, SeedRecord
from fbmbt.variations import hermite, sine, weighted_hermite_variation

MASTER = 20260810


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def _run_identity(num: int, check, seed: int, seconds: float, detail: str) -> None:
    """Run a check of fbmbt.identities within ``seconds``; ``res`` is its result."""
    start = time.perf_counter()
    res = check(seed)
    elapsed = time.perf_counter() - start
    _report(num, res.name, res.ok and elapsed < seconds,
            f"{detail.format(res=res)}; {elapsed:.1f}s")
    assert res.ok, res
    assert elapsed < seconds


class TestAcceptance:
    def test_c01_cell_sum_identity(self):
        """Direct and cell-sum variation evaluations agree to 1e-9 relative."""
        _run_identity(1, cell_sum_identity, MASTER + 1, 60, "r in 1..3, n in 4..12, "
                      "100 paths each; worst err/tol {res.ratio:.2e}")

    def test_c02_hermite_decomposition_identity(self):
        """Variation equals its Hermite recombination to 1e-9 relative."""
        _run_identity(2, hermite_decomposition, MASTER + 2, 60, "r<=3, n<=12, 50 "
                      "samples per cell; worst err/tol {res.ratio:.2e}")

    def test_c03_two_point_expansion_exact(self):
        """Symmetric expansion reproduces monomials to degree 13; f''' term -1/24."""
        _run_identity(3, two_point_expansion, MASTER + 3, 5, "monomials to degree 13, "
                      "100 pairs each; worst err/bound {res.ratio:.2e}; third-derivative "
                      "coefficient -1/24 exact")

    def test_c04_residual_telescoping(self):
        """Residuals for x and x^2 equal their endpoint closed forms to 1e-12."""
        _run_identity(4, residual_telescoping, MASTER + 4, 5, "5 joint samples at "
                      "level 8; worst deviation {res.error:.2e} (tolerance 1e-12)")

    def test_c05_quadratic_variation_scaling(self):
        """Normalized quadratic variation concentrates at t for three H values."""
        start = time.perf_counter()
        medians = {}
        for i, hurst in enumerate((0.25, 0.5, 0.75)):
            rep = check_quadratic(hurst, 1.0, [16], 50, seed=MASTER + 50 + i)
            medians[hurst] = rep.per_level[0]["median_abs_error"]
        elapsed = time.perf_counter() - start
        ok = all(m <= 0.05 for m in medians.values())
        _report(5, "quadratic variation scaling", ok,
                "median |normalized QV - 1| at n=16, 50 paths: "
                + ", ".join(f"H={h}: {m:.4f}" for h, m in medians.items())
                + f" (gate 0.05); {elapsed:.1f}s")
        assert ok
        assert elapsed < 120

    def test_c06_cubic_variation_clt(self):
        """Normalized cubic variation is centered and Gaussian at H=1/6, n=14."""
        start = time.perf_counter()
        rep = check_cubic(1 / 6, 1.0, [14], 5000, seed=MASTER + 6)
        row = rep.per_level[0]
        mean_ok = abs(row["mean"]) <= 3 * math.sqrt(row["variance"] / 5000)
        ks_ok = row["ks_p"] > 0.01
        elapsed = time.perf_counter() - start
        ok = mean_ok and ks_ok
        _report(6, "cubic variation CLT", ok,
                f"n=14, 5000 replicas: mean {row['mean']:+.4f} "
                f"(3SE {3 * math.sqrt(row['variance'] / 5000):.4f}), "
                f"sigma2 {rep.estimated_sigma2:.3f}, KS p {row['ks_p']:.4f} "
                f"(gate 0.01); {elapsed:.1f}s")
        assert ok
        assert elapsed < 300

    def test_c07_supercritical_residual_tightens(self):
        """Supercritical residual tightens over n=8..14 at its defined rates.

        Three gates: mean |residual| strictly decreases; the remainder at
        the skeleton endpoint (mean_abs_at_skeleton_end, rate
        2^{-n(6H-1)/4}, ~0.32 over six levels) at least halves from n=8 to
        n=14; and the log2 slope of mean |residual| lies within 3 standard
        errors of the endpoint-mismatch rate -H/4.  See notes/decisions.md.
        """
        start = time.perf_counter()
        hurst = 0.35
        cfg = VerifyConfig(hurst=hurst, f=sine(), t=1.0, levels=(8, 10, 12, 14),
                           replicas=500, seed=7)
        rep = verify_branch("supercritical", cfg)
        failures = evaluate_gate(rep)  # the decrease and slope clauses, as in verify
        means = [row["mean_abs"] for row in rep.per_level]
        ends = [row["mean_abs_at_skeleton_end"] for row in rep.per_level]
        decreasing = all(b < a for a, b in zip(means, means[1:]))  # for the line
        end_ratio = ends[-1] / ends[0]
        halved = end_ratio <= 0.5
        slope_se = rep.extra["mean_abs_log2_slope_stderr"]
        slope = rep.extra["mean_abs_log2_slope"]
        target = -hurst / 4
        elapsed = time.perf_counter() - start
        ok = not failures and halved
        halving_detail = (f"skeleton-end remainder ratio n14/n8 {end_ratio:.3f} "
                          f"(gate <= 0.50)")
        _report(7, "supercritical residual", ok,
                f"mean|res| by level {[round(m, 4) for m in means]} strictly decreasing: "
                f"{decreasing} (gate True); {halving_detail}; log2 slope of mean|res| "
                f"{slope:+.4f} (gate {target:+.4f} +- {3 * slope_se:.4f}, 3 SE); {elapsed:.1f}s")
        assert not failures, f"{failures}; see notes/decisions.md"
        assert halved, (f"{halving_detail}: the remainder at T_N should decay like "
                        f"2^(-n(6H-1)/4) = {2.0 ** (-6 * (6 * hurst - 1) / 4):.3f} over six "
                        f"levels; see notes/decisions.md")
        assert elapsed < 600

    def test_c08_critical_law_match(self):
        """Two-sample KS between the corrected increment and the symmetric sum."""
        start = time.perf_counter()
        cfg = VerifyConfig(hurst=1 / 6, f=sine(), t=1.0, levels=(8, 12),
                           replicas=2000, seed=20260808)
        rep = verify_branch("critical", cfg)
        ks = [row["ks_distance"] for row in rep.per_level]
        ps = [row["ks_p"] for row in rep.per_level]
        failures = evaluate_gate(rep)
        elapsed = time.perf_counter() - start
        _report(8, "critical-case law match", not failures,
                f"KS distance n=8: {ks[0]:.4f}, n=12: {ks[1]:.4f} (must shrink); "
                f"non-rejection at n=12: p={ps[1]:.4f} (reported); {elapsed:.1f}s")
        assert failures == [], failures
        assert elapsed < 900

    def test_c09_subcritical_variance_growth(self):
        """Variance of the cubic skeletal sum grows at rate (1-6H)/2."""
        start = time.perf_counter()
        cfg = VerifyConfig(hurst=0.10, f=sine(), t=1.0, levels=(8, 10, 12, 14),
                           replicas=2500, seed=202)
        rep = verify_branch("subcritical", cfg)
        slope = rep.extra["slope"]
        target = rep.extra["slope_target"]
        failures = evaluate_gate(rep)
        elapsed = time.perf_counter() - start
        _report(9, "subcritical variance growth", not failures,
                f"fitted log2-variance slope {slope:.4f} vs target {target:.2f} "
                f"+- 0.10 (stderr {rep.extra['slope_stderr']:.4f}); {elapsed:.1f}s")
        assert failures == [], failures
        assert elapsed < 600

    def test_c10_moment_bound(self):
        """Increment second moments of W_n obey the calibrated envelope."""
        start = time.perf_counter()
        hurst = 0.25
        cal_pairs = [(0.0, 0.5), (0.25, 1.0), (-0.5, 0.5), (-1.0, -0.25),
                     (0.1, 0.2), (-0.75, 0.0), (0.4, 1.6), (-1.4, 0.3)]
        hold_pairs = [(0.0, 1.0), (0.5, 1.5), (-1.5, 0.5), (-1.25, -0.5),
                      (0.3, 0.4), (0.05, 1.7), (-0.2, 0.6), (0.9, 1.1),
                      (-1.7, -1.0), (0.6, 0.7)]
        replicas = 4000

        def second_moments(order, level, seed, pairs):
            # replica r draws X from SeedRecord(seed).derive("replica", level,
            # r); the rows come in chunks (keyed streams, one irfft call
            # each), and each replica's squares are added in replica order
            rec = SeedRecord(seed).derive("replica", level)
            a = dyadic_step(level)
            bound = max(max(abs(s), abs(t)) for s, t in pairs) + 1.0
            k_max = int(np.ceil(bound * 2 ** (level / 2)))
            half = _pow2_at_least(k_max + 2)
            scale = 2.0 ** (level * hurst / 2)
            j = np.arange(k_max)
            acc = np.zeros(len(pairs))
            keys = rec.philox_keys(np.arange(replicas))
            for _, v in sample_fbm_rows(hurst, a, half, keys, KeyedPhilox()):
                c = half
                prefix = {}
                for sign in (1, -1):
                    x0 = v[:, c + sign * j]
                    x1 = v[:, c + sign * (j + 1)]
                    terms = 0.5 * (np.sin(x0) + np.sin(x1)) * \
                        hermite(order, scale * (x1 - x0))
                    prefix[sign] = np.concatenate(
                        [np.zeros((len(v), 1)), np.cumsum(terms, axis=1)], axis=1)

                def w_at(tv):
                    k = int(np.floor(abs(tv) * 2 ** (level / 2) + 1e-9))
                    return prefix[1][:, k] if tv >= 0 else prefix[-1][:, k]

                d = np.stack([w_at(t) - w_at(s) for s, t in pairs], axis=1)
                for row in d:
                    acc += row * row
            # anchor the vectorized prefix form to the public operation
            first_x = sample_fbm_two_sided(hurst, a, half, rec.derive(0))
            probe = pairs[0][1]
            direct = weighted_hermite_variation(sine(), first_x, level, order, probe)
            k = int(np.floor(abs(probe) * 2 ** (level / 2) + 1e-9))
            v, c = first_x.values, half
            x0 = v[c + np.arange(k)]
            x1 = v[c + np.arange(1, k + 1)]
            terms = 0.5 * (np.sin(x0) + np.sin(x1)) * hermite(order, scale * (x1 - x0))
            assert abs(direct - float(np.sum(terms))) <= 1e-10 * max(1.0, abs(direct))
            return acc / replicas

        def envelope(s, t, level):
            return max(abs(s), abs(t)) ** (2 * hurst) * \
                (abs(t - s) * 2 ** (level / 2) + 1.0)

        cells = [(order, level) for order in (1, 3) for level in (6, 8)]
        c = 0.0
        for order, level in cells:
            moments = second_moments(order, level, MASTER + 100, cal_pairs)
            for m, (s, t) in zip(moments, cal_pairs):
                c = max(c, m / envelope(s, t, level))
        total = passed = 0
        worst = 0.0
        for order, level in cells:
            moments = second_moments(order, level, MASTER + 200, hold_pairs)
            for m, (s, t) in zip(moments, hold_pairs):
                total += 1
                ratio = m / (2.0 * c * envelope(s, t, level))
                worst = max(worst, ratio)
                passed += ratio <= 1.0
        elapsed = time.perf_counter() - start
        ok = passed / total >= 0.95
        _report(10, "moment bound", ok,
                f"calibrated c {c:.4f}; held-out pass rate {passed}/{total} "
                f"(gate 95%), worst ratio vs 2c envelope {worst:.3f}; "
                f"{elapsed:.1f}s")
        assert ok
        assert elapsed < 300

    def test_c11_remainder_scaling(self):
        """Degree-14 increment sums scale like 2^{n(1-7H)}."""
        start = time.perf_counter()
        replicas = 6000
        levels = (8, 10, 12, 14)
        results = {}
        stream = KeyedPhilox()
        for hurst in (1 / 6, 0.3):
            base = SeedRecord(MASTER + 11)
            means = []
            for n in levels:
                # replica r draws its walk (the coins of sample_walk_exact)
                # and X from SeedRecord(MASTER + 11).derive("replica", n, r);
                # chunks of replicas, X rows batched by half extent, and the
                # per-replica sums added in replica order
                rec = base.derive("replica", n)
                a = dyadic_step(n)
                total = 0.0
                for first in range(0, replicas, 100):
                    reps = np.arange(first, min(first + 100, replicas))
                    walks = [np.concatenate([[0], np.cumsum(
                        2 * stream.at(k).integers(0, 2, size=2**n) - 1)])
                        for k in rec.philox_keys(reps, "walk")]
                    halves = _pow2_at_least([int(np.abs(w).max()) + 2 for w in walks])
                    sums = np.empty(len(reps))
                    for index, v in sample_fbm_rows(hurst, a, halves,
                                                    rec.philox_keys(reps, "fbm"), stream):
                        inc14 = np.abs(np.diff(v, axis=1)) ** 14
                        for i, row in zip(index.tolist(), inc14):
                            w = walks[i]
                            cells = np.minimum(w[:-1], w[1:]) + halves[i]
                            sums[i] = row[cells].sum()
                    for value in sums.tolist():
                        total += value
                means.append((n, total / replicas))
            ys = np.log2([m for _, m in means])
            slope = float(np.polyfit(levels, ys, 1)[0])
            results[hurst] = slope
        elapsed = time.perf_counter() - start
        ok = all(abs(results[h] - (1 - 7 * h)) <= 0.3 for h in results)
        _report(11, "degree-14 remainder scaling", ok,
                ", ".join(f"H={h:.3f}: slope {results[h]:.3f} vs {1 - 7 * h:.3f}"
                          for h in results)
                + f" (tolerance 0.3); {elapsed:.1f}s")
        assert ok
        assert elapsed < 300

    def test_c12_skeleton_law_checks(self):
        """Mean first hitting time, conservation, and the crossing closed form."""
        start = time.perf_counter()
        # E[T_{1,n}] = 2^{-n} over 10^4 draws, 3 SE
        n, draws = 8, 10_000
        base = SeedRecord(MASTER + 12)
        t1 = np.array([
            sample_walk_exact(n, 1, base.derive("replica", r)).times[1]
            for r in range(draws)
        ])
        se = math.sqrt(2.0 / 3.0) * 2.0**-n / math.sqrt(draws)
        mean_ok = abs(t1.mean() - 2.0**-n) <= 3 * se

        closed = crossing_closed_form(MASTER + 13)
        elapsed = time.perf_counter() - start
        ok = mean_ok and closed.ok
        _report(12, "skeleton law checks", ok,
                f"mean T1 {t1.mean():.6f} vs 2^-8 {2.0**-8:.6f} "
                f"(3SE {3 * se:.2e}); closed form and conservation exhaustive "
                f"to length 12 and 1000 random length-300 walks: {closed.ok}; "
                f"{elapsed:.1f}s")
        assert ok, closed
        assert elapsed < 120
