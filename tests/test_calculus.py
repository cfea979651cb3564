"""Two-point expansion, residuals, correction term, branch verification."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

import fbmbt.calculus as calculus_mod
import fbmbt.fgn as fgn_mod
from fbmbt.calculus import (KAPPA3, LHS_CELLS, VerificationReport, VerifyConfig,
                            _branch_critical_level, _branch_subcritical_level,
                            _critical_lhs, _critical_rhs, _cube_sums,
                            _pow2_at_least, _skeletal_z_values,
                            _supercritical_pairs, _walk_end_rows,
                            correction_std, evaluate_gate, gate_clauses, ito_residual,
                            sample_joint, taylor_coefficients, verify_branch)
from fbmbt.fgn import HurstParameter, increment_autocovariance, sample_fbm_two_sided
from fbmbt.scaling import _level_power_sums
from fbmbt.skeleton import crossing_counts
from fbmbt.stats import variance_stderr
from fbmbt.streams import KeyedPhilox, SeedRecord
from fbmbt.variations import function_by_name, polynomial, sine
from replica_draw import critical_lhs, joint_sample, supercritical_pair, walk_end_and_x


class TestTaylorScheme:
    def test_third_derivative_coefficient_pinned(self):
        scheme = taylor_coefficients()
        assert scheme.gammas[0] == Fraction(1, 2)
        assert scheme.gammas[1] == Fraction(-1, 24)
        assert scheme.remainder_order == 14

    def test_coefficients_are_the_exact_fractions(self):
        assert taylor_coefficients().gammas == (
            Fraction(1, 2), Fraction(-1, 24), Fraction(1, 240), Fraction(-17, 40320),
            Fraction(31, 725760), Fraction(-691, 159667200),
            Fraction(5461, 12454041600))

    def test_coefficients_match_tanh_series(self):
        # independent oracle: 2 sinh(u) f = sum gamma_r (2u)^{2r-1} 2 cosh(u) f
        # forces sum gamma_r 2^{2r-1} u^{2r-1} = tanh(u)
        u = sympy.Symbol("u")
        series = sympy.series(sympy.tanh(u), u, 0, 15).removeO()
        scheme = taylor_coefficients()
        for r, gamma in enumerate(scheme.gammas, start=1):
            coeff = series.coeff(u, 2 * r - 1)
            expected = sympy.Rational(coeff) / 2 ** (2 * r - 1)
            assert Fraction(int(expected.p), int(expected.q)) == gamma

    def test_exact_on_monomials_to_degree_13(self):
        scheme = taylor_coefficients()
        rng = np.random.default_rng(1)
        for k in range(14):
            mono = polynomial([0.0] * k + [1.0])
            for _ in range(100):
                a, b = rng.uniform(-2, 2, size=2)
                err = abs(scheme.expand(mono, a, b) - (b**k - a**k))
                assert err <= 1e-10 * max(1.0, abs(b - a)) ** 13, (k, a, b)

    def test_linear_function_single_term(self):
        scheme = taylor_coefficients()
        f = polynomial([3.0, 1.0])
        for a, b in ((0.0, 1.0), (-2.5, 1.75)):
            assert scheme.expand(f, a, b) == pytest.approx(b - a, rel=1e-14)

    def test_cube_at_unit_interval(self):
        scheme = taylor_coefficients()
        f = polynomial([0.0, 0.0, 0.0, 1.0])
        # 1/2 (f'(0)+f'(1)) - 1/24 (f'''(0)+f'''(1)) = 3/2 - 1/2 = 1 exactly
        assert scheme.expand(f, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_gamma_floats_align(self):
        scheme = taylor_coefficients()
        np.testing.assert_allclose(scheme.gamma_floats()[:3],
                                   [0.5, -1 / 24, 1 / 240], rtol=1e-15)


class TestItoResidual:
    def test_telescoping_linear(self):
        js = sample_joint(0.35, 8, 1.0, 99)
        z = _skeletal_z_values(js, 1.0)
        res = ito_residual(function_by_name("identity"), js)
        assert abs(res - (js.z_t - z[-1])) <= 1e-12

    def test_telescoping_quadratic(self):
        js = sample_joint(0.35, 8, 1.0, 99)
        z = _skeletal_z_values(js, 1.0)
        res = ito_residual(function_by_name("square"), js)
        assert abs(res - (js.z_t**2 - z[-1] ** 2)) <= 1e-12

    def test_deterministic(self):
        a = ito_residual(sine(), sample_joint(0.35, 6, 0.5, 7))
        b = ito_residual(sine(), sample_joint(0.35, 6, 0.5, 7))
        assert a == b

    def test_horizon_below_first_step_is_empty_sum(self):
        # floor(2^n t) = 0: the variation vanishes, residual is f(Z_t) - f(0)
        js = sample_joint(0.35, 6, 2.0**-8, 21)
        res = ito_residual(sine(), js)
        assert res == pytest.approx(np.sin(js.z_t), abs=1e-15)

    def test_step_count_shared_with_crossing_counts(self):
        # 2^8 t lies 2.6e-9 below 256: the residual, the crossing counts and
        # the power sums of fbmbt scaling all take N = floor_steps(8, t) = 256
        t = 1.0 - 1e-11
        js = sample_joint(0.35, 8, 1.0, 41)
        assert len(_skeletal_z_values(js, t)) - 1 == 256
        assert crossing_counts(js, t).n_steps == 256
        h, base = HurstParameter(0.35), SeedRecord(42)
        assert _level_power_sums(h, 2, 8, t, 2, base).tolist() == \
            _level_power_sums(h, 2, 8, 1.0, 2, base).tolist()


class TestCorrectionIntegral:
    def test_vanishing_third_derivative(self):
        x = sample_fbm_two_sided(1 / 6, 2.0**-6, 64, seed=11).values
        assert correction_std(function_by_name("square"), x, 2.0**-6) == 0.0

    def test_zero_clock_empty_integral(self):
        # Y_t = 0: every cell has width 0
        x = np.zeros(16)
        assert correction_std(sine(), x, 0.0) == 0.0

    @pytest.mark.parametrize("fname", ["sin", "gauss", "cube"])
    def test_conditional_ito_isometry(self, fname):
        # conditional on (X, Y): mean 0 and variance (k3/12)^2 h sum f'''(X)^2
        # over fresh Brownian increments
        f = function_by_name(fname)
        x = sample_fbm_two_sided(1 / 6, 2.0**-7, 128, seed=15)
        y_t = -0.8
        h = x.spacing
        count = int(np.floor(abs(y_t) / h + 1e-12))
        sign = 1 if y_t >= 0 else -1
        idx = sign * np.arange(count) + x.half_extent
        x_left = x.values[idx]
        fx = np.asarray(f.derivative(3)(x_left), dtype=float)
        reps = 10_000
        rng = SeedRecord(16).generator()
        dw = rng.standard_normal((reps, count)) * np.sqrt(h)
        sims = (KAPPA3 / 12.0) * (dw @ fx)
        target_var = correction_std(f, x_left, h) ** 2
        assert target_var == pytest.approx(
            (KAPPA3 / 12.0) ** 2 * h * float(np.sum(fx**2)), rel=1e-12)
        se_mean = np.sqrt(target_var / reps)
        assert abs(sims.mean()) <= 3 * se_mean
        assert abs(sims.var(ddof=1) - target_var) <= 3 * target_var * np.sqrt(2.0 / reps)

    @pytest.mark.parametrize("fname", ["sin", "gauss", "cube", "square"])
    def test_rows_match_one_row_at_a_time(self, fname):
        # the per-row sum of squares (np.add.reduce along axis 1, on the
        # strided left ends x[:, :-1]) has the bits of the 1-d sum
        f = function_by_name(fname)
        rng = np.random.default_rng(18)
        for cells in (1, 2, 7, 128, 8192):
            x = rng.normal(size=(5, cells + 1))
            width = rng.random(5)
            rows = correction_std(f, x[:, :-1], width)
            assert rows.shape == (5,)
            for i in range(5):
                one = correction_std(f, np.ascontiguousarray(x[i, :-1]), float(width[i]))
                assert isinstance(one, float)
                assert rows[i].tobytes() == np.float64(one).tobytes()
            f3 = np.asarray(f.derivative(3)(x[:, :-1]), dtype=float)
            sums = np.add.reduce(f3 * f3, axis=1)
            for i in range(5):
                assert sums[i] == np.add.reduce(f3[i].copy() * f3[i].copy())

    def test_kappa3_scales_linearly(self):
        x = sample_fbm_two_sided(1 / 6, 2.0**-6, 64, seed=17).values
        base = correction_std(sine(), x, 2.0**-6, kappa3=KAPPA3)
        doubled = correction_std(sine(), x, 2.0**-6, kappa3=2 * KAPPA3)
        assert base > 0
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_kappa3_matches_cubic_chaos_series(self):
        # kappa3^2 = 6 * sum_q rho(q)^3 at the critical Hurst value
        q = np.arange(1, 200_000)
        rho3 = increment_autocovariance(q, 1 / 6) ** 3
        series = np.sqrt(6.0 * (1.0 + 2.0 * np.sum(rho3)))
        assert KAPPA3 == pytest.approx(series, abs=5e-4)


class TestStepSixAssembly:
    def test_symmetric_expansion_assembles_variations(self):
        # f(Z_M) - f(0) = sum_r 2 gamma_r V^{(2r-1)}(f^{(2r-1)}, t) up to the
        # degree-14 remainder, with the constant calibrated by a dense scan
        from fbmbt.variations import symmetric_variation_direct, SmoothFunction
        f = sine()
        scheme = taylor_coefficients()
        gammas = scheme.gamma_floats()

        # calibration: per-step scheme error over a grid of (a, d)
        a_grid = np.linspace(-2.5, 2.5, 41)
        d_grid = np.concatenate([np.linspace(0.05, 3.0, 60)])
        c14 = 0.0
        for a in a_grid:
            for d in d_grid:
                err = abs(np.sin(a + d) - np.sin(a) - scheme.expand(f, a, a + d))
                c14 = max(c14, err / d**14)
        c14 *= 2.0  # headroom

        for seed in range(20):
            js = sample_joint(0.35, 8, 1.0, 500 + seed)
            z = _skeletal_z_values(js, 1.0)
            lhs = np.sin(z[-1]) - np.sin(z[0])
            rhs = 0.0
            for r in range(1, 8):
                weight = SmoothFunction(descriptor="w",
                                        derivatives=f.derivatives[2 * r - 1:])
                rhs += 2 * gammas[r - 1] * symmetric_variation_direct(
                    weight, z, 2 * r - 1)
            budget = c14 * float(np.sum(np.abs(np.diff(z)) ** 14)) + 1e-10
            assert abs(lhs - rhs) <= budget, seed


class TestVerifyConfig:
    @pytest.mark.parametrize("field, value", [
        ("levels", ()),
        ("levels", (8, 6, 4)),
        ("levels", (4, 4)),
        ("levels", (0, 2, 4)),
        ("levels", (4.5,)),
        ("t", 0.0),
        ("t", -1.0),
        ("t", float("inf")),
        ("t", float("nan")),
        ("replicas", 1),
        ("replicas", 2.5),
        ("seed", -1),
        ("kappa3", float("nan")),
        ("kappa3", float("inf")),
        ("workers", 0),
        ("workers", -3),
        ("workers", 1.5),
    ])
    def test_rejects_bad_values(self, field, value):
        kwargs = dict(hurst=0.35, f=sine(), t=1.0, levels=(4, 6), replicas=10,
                      seed=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            VerifyConfig(**kwargs)

    def test_accepts_valid_layout(self):
        cfg = VerifyConfig(hurst=0.35, f=sine(), t=0.5, levels=(1, 2, 8),
                           replicas=2, seed=0)
        assert cfg.levels == (1, 2, 8)

    @pytest.mark.parametrize("hurst, levels", [(0.35, (3,)), (1 / 6, (3,)),
                                               (0.1, (8, 10, 12))])
    def test_rejects_2_to_the_62_steps_at_the_top_level(self, hurst, levels):
        # the walk ends are int64 counts: floor(2^n t) must stay below 2^62
        top = levels[-1]
        message = rf"^t = .* floor\(2\^{top} t\) >= 2\^62 steps in the top level {top};"
        for t in (1e300, 2.0 ** (62 - top)):
            with pytest.raises(ValueError, match=message):
                VerifyConfig(hurst=hurst, f=sine(), t=t, levels=levels, replicas=3, seed=1)
        VerifyConfig(hurst=hurst, f=sine(), t=np.nextafter(2.0 ** (62 - top), 0),
                     levels=levels, replicas=3, seed=1)

    def test_x_refine_is_gone(self):
        with pytest.raises(TypeError, match="x_refine"):
            VerifyConfig(hurst=0.35, f=sine(), t=1.0, levels=(4, 6),
                         replicas=10, seed=1, x_refine=16)


class TestVerifyBranch:
    def test_branch_hurst_consistency(self):
        cfg = VerifyConfig(hurst=0.1, f=sine(), t=1.0, levels=(4,), replicas=10,
                           seed=1)
        with pytest.raises(ValueError, match="subcritical"):
            verify_branch("critical", cfg)
        with pytest.raises(ValueError, match="branch must be"):
            verify_branch("smooth", cfg)

    def test_supercritical_smoke(self):
        cfg = VerifyConfig(hurst=0.35, f=sine(), t=0.5, levels=(4, 6),
                           replicas=30, seed=2)
        report = verify_branch("supercritical", cfg)
        assert report.levels == [4, 6]
        for row in report.per_level:
            assert set(row) >= {"mean_abs", "p90", "stderr"}
            assert row["mean_abs"] > 0
        assert report.extra == {}  # slope needs >= 3 levels

    def test_critical_smoke_and_determinism(self):
        cfg = VerifyConfig(hurst=1 / 6, f=sine(), t=1.0, levels=(4,),
                           replicas=60, seed=3)
        r1 = verify_branch("critical", cfg)
        r2 = verify_branch("critical", cfg)
        assert r1.body_dict() == r2.body_dict()
        assert 0 <= r1.per_level[0]["ks_distance"] <= 1

    def test_workers_do_not_change_results(self):
        # workers is accepted and has no effect
        for branch, hurst in (("supercritical", 0.35), ("critical", 1 / 6)):
            base = VerifyConfig(hurst=hurst, f=sine(), t=1.0, levels=(4, 6),
                                replicas=50, seed=4)
            threaded = VerifyConfig(hurst=hurst, f=sine(), t=1.0, levels=(4, 6),
                                    replicas=50, seed=4, workers=4)
            assert verify_branch(branch, base).body_dict() == \
                verify_branch(branch, threaded).body_dict()

    def test_supercritical_body_independent_of_blas_threads(self):
        # level 12 at seed 3 draws X grids of 128 and 256 cells; a BLAS
        # matrix-vector product of that size sums in an order that depends
        # on the thread count
        script = ("import json; from fbmbt.calculus import VerifyConfig, verify_branch; "
                  "from fbmbt.variations import sine; "
                  "cfg = VerifyConfig(hurst=0.35, f=sine(), t=1.0, levels=(12,), "
                  "replicas=4, seed=3); "
                  "print(json.dumps(verify_branch('supercritical', cfg).body_dict()))")
        src = str(Path(calculus_mod.__file__).resolve().parents[1])
        bodies = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                       if env.get("PYTHONPATH") else "")
            bodies.append(subprocess.run([sys.executable, "-c", script], env=env, text=True,
                                         capture_output=True, check=True).stdout)
        assert bodies[0] == bodies[1]

    def test_subcritical_report_has_slope(self):
        cfg = VerifyConfig(hurst=0.1, f=sine(), t=1.0, levels=(4, 6, 8),
                           replicas=200, seed=5)
        report = verify_branch("subcritical", cfg)
        assert report.extra["slope_target"] == pytest.approx(0.2)
        assert np.isfinite(report.extra["slope"])

    def test_report_json_roundtrip(self, tmp_path):
        cfg = VerifyConfig(hurst=0.1, f=sine(), t=1.0, levels=(4, 6, 8),
                           replicas=50, seed=6)
        report = verify_branch("subcritical", cfg)
        f = tmp_path / "r.json"
        report.save(f)
        back = VerificationReport.from_json(f.read_text())
        assert back.body_dict() == report.body_dict()
        doc = json.loads(f.read_text())
        assert "wall_time" in doc and doc["body"]["schema_version"] == 1

    def test_per_level_csv(self):
        report = VerificationReport(
            branch="subcritical", hurst=0.1, f_descriptor="sin", t=1.0,
            levels=[4, 6], replicas=10,
            per_level=[{"variance": 1.0}, {"variance": 2.0}],
            extra={}, seed=0)
        csv = report.per_level_csv()
        assert csv.splitlines()[0] == "level,variance"
        assert csv.splitlines()[1] == "4,1.0"

    def test_subcritical_level_where_every_walk_ends_at_0(self):
        # floor(2 * 0.3) = 0 steps: V_1 = 0 on every replica
        cfg = VerifyConfig(hurst=0.1, f=sine(), t=0.3, levels=(1, 2, 3),
                           replicas=20, seed=3)
        with pytest.raises(ValueError, match="level 1: every walk ended at 0"):
            verify_branch("subcritical", cfg)


class TestLevelDraw:
    """One pass over a level draws what each replica drew on its own."""

    @pytest.mark.parametrize("role, hurst", [("subcritical", 0.1),
                                             ("critical-rhs", 1 / 6)])
    @pytest.mark.parametrize("level, t", [(4, 1.0), (9, 0.7), (12, 1.0), (3, 0.9)])
    def test_every_replica_matches_the_per_replica_draw(self, role, hurst, level, t):
        # level 3 at t = 0.9 walks 7 steps, so |j*| is odd and rows of one
        # increment occur
        cfg = VerifyConfig(hurst=hurst, f=sine(), t=t, levels=(level,),
                           replicas=150, seed=57)
        drawn = {}
        for reps, ends, rows in _walk_end_rows(cfg, level, role):
            assert len(reps) == len(ends) == len(rows)
            for rep, m, row in zip(reps.tolist(), ends.tolist(), rows):
                assert rep not in drawn
                drawn[rep] = (m, row)
        base = SeedRecord(57).derive(role, level)
        signs, ends_seen = set(), set()
        for rep in range(cfg.replicas):
            jstar, x = walk_end_and_x(cfg, level, base.derive(rep))
            signs.add(int(np.sign(jstar)))
            if x is None:
                assert jstar == 0 and rep not in drawn
                continue
            m, row = drawn.pop(rep)
            assert m == abs(jstar)
            assert row.tobytes() == x.tobytes()
            ends_seen.add(m)
        assert not drawn
        assert signs >= ({-1, 0, 1} if level == 4 else {-1, 1})
        if level == 3:
            assert 1 in ends_seen

    @pytest.mark.parametrize("hurst", [0.2, 0.35, 0.75])
    @pytest.mark.parametrize("t", [1.0, 0.3, 1.7])
    def test_supercritical_pairs_match_the_per_replica_draw(self, hurst, t):
        # both ways Y_t is drawn: after the N-th grid hit, and inside the
        # cell under way at t (the killed position)
        ways = set()
        for level in range(2, 15):
            cfg = VerifyConfig(hurst=hurst, f=function_by_name(("sin", "gauss", "cube")[level % 3]),
                               t=t, levels=(level,), replicas=12, seed=58)
            res, res_end = _supercritical_pairs(cfg, level)
            base = SeedRecord(58).derive("supercritical", level)
            for rep in range(cfg.replicas):
                pair, hit_by_t = supercritical_pair(cfg, level, base.derive(rep))
                assert np.array([res[rep], res_end[rep]]).tobytes() == \
                    np.array(pair).tobytes(), (level, rep)
                ways.add(hit_by_t)
        assert ways == {True, False}

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.3, 1.7])
    def test_sample_joint_is_the_per_record_draw(self, t):
        # t = 1.0 and 0.5 are on every level's time grid; both ways Y_t is
        # drawn occur at each t
        ways = set()
        for level in range(4, 11):
            for rep in range(8):
                rec = SeedRecord(60).derive("replica", level, rep)
                js = sample_joint(0.35, level, t, rec)
                walk, y_t, x, z_t, hit_by_t = joint_sample(0.35, level, t, rec)
                assert js.walk.tobytes() == walk.tobytes()
                assert np.array([js.y_t, js.z_t]).tobytes() == np.array([y_t, z_t]).tobytes()
                assert js.x.values.tobytes() == x.values.tobytes()
                assert (js.x.hurst, js.x.spacing, js.x.half_extent, js.x.seed_record,
                        js.x.method) == (x.hurst, x.spacing, x.half_extent,
                                         x.seed_record, x.method)
                assert (js.seed_record, js.level, js.t) == (rec, level, t)
                ways.add(hit_by_t)
        assert ways == {True, False}

    @pytest.mark.parametrize("name", ["sin", "gauss", "cube"])
    @pytest.mark.parametrize("t", [1.0, 0.3])
    def test_critical_lhs_matches_the_per_replica_draw(self, name, t):
        cfg = VerifyConfig(hurst=1 / 6, f=function_by_name(name), t=t,
                           levels=(5,), replicas=24, seed=59)
        pool = _critical_lhs(cfg, 5)
        base = SeedRecord(59).derive("critical-lhs", 5)
        old = np.array([critical_lhs(cfg, base.derive(rep))
                        for rep in range(cfg.replicas)])
        assert pool.tobytes() == old.tobytes()


class TestWalkEndDraw:
    """The subcritical and critical right-hand sums draw one-sided fGn rows
    of the least power of two >= |j*| increments, and the cube sum has the
    exact law of a sum of |j*| consecutive fGn cubes."""

    @pytest.mark.parametrize("branch, hurst, level", [("subcritical", 0.1, 9),
                                                      ("critical", 1 / 6, 7)])
    def test_rows_are_the_least_power_of_two_at_least_the_walk_end(
            self, monkeypatch, branch, hurst, level):
        cfg = VerifyConfig(hurst=hurst, f=sine(), t=1.0, levels=(level,),
                           replicas=120, seed=61)
        role = "subcritical" if branch == "subcritical" else "critical-rhs"
        rec = SeedRecord(61).derive(role, level)
        replica_of = {k.tobytes(): rep for rep, k in
                      enumerate(rec.philox_keys(np.arange(cfg.replicas), "fbm"))}
        ends = {}
        for rep in range(cfg.replicas):
            jstar, _ = walk_end_and_x(cfg, level, rec.derive(rep))
            if jstar:
                ends[rep] = abs(jstar)
        # recorded from here on: the oracle's own draws above are rows too
        requested = []
        draw = fgn_mod._sample_fgn_rows

        def recording(keys, stream, n_inc, hvalue):
            requested.extend((k.tobytes(), n_inc) for k in keys)
            return draw(keys, stream, n_inc, hvalue)

        monkeypatch.setattr(fgn_mod, "_sample_fgn_rows", recording)
        run = {"subcritical": _branch_subcritical_level,
               "critical": _branch_critical_level}[branch]
        run(cfg, level)
        rows = {replica_of[k]: n for k, n in requested if k in replica_of}
        assert len(rows) == sum(k in replica_of for k, _ in requested)
        assert rows.keys() == ends.keys()
        for rep, n in rows.items():
            m = ends[rep]
            assert n & (n - 1) == 0 and m <= n and (n == 1 or n < 2 * m), (rep, m, n)
        if branch == "critical":  # the left-hand side draws its unit rows
            assert {n for k, n in requested if k not in replica_of} == {LHS_CELLS}

    @pytest.mark.parametrize("role, hurst", [("subcritical", 0.1),
                                             ("critical-rhs", 1 / 6)])
    def test_one_key_switch_per_stream(self, monkeypatch, role, hurst):
        # each replica's "walk" stream and each drawn replica's "fbm" stream
        # is keyed once, however many chunks and normal fills the rows take
        level = 9
        monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", 72 * 2**level // 4)
        switches = []
        at = KeyedPhilox.at

        def counting(self, key):
            switches.append(key)
            return at(self, key)

        monkeypatch.setattr(KeyedPhilox, "at", counting)
        cfg = VerifyConfig(hurst=hurst, f=sine(), t=1.0, levels=(level,),
                           replicas=300, seed=64)
        base = SeedRecord(64).derive(role, level)
        steps = 2**level
        drawn = sum(2 * base.derive(rep, "walk").generator().binomial(steps, 0.5) != steps
                    for rep in range(cfg.replicas))
        chunks = sum(1 for _ in _walk_end_rows(cfg, level, role))
        assert 0 < drawn < cfg.replicas and chunks > 10
        switches.clear()
        reduce = _cube_sums if role == "subcritical" else _critical_rhs
        reduce(cfg, level)
        assert len(switches) == cfg.replicas + drawn

    @staticmethod
    def _cube_sum_oracle(cfg, level):
        """Per replica, from each record's own padded row: the masked
        pairwise sum (cubes at and past |j*| zeroed, the row summed over its
        padded length), math.fsum of the first |j*| cubes, and a bound on
        their distance.  All 0 where j* = 0."""
        base = SeedRecord(cfg.seed).derive("subcritical", level)
        masked, exact, bound = (np.zeros(cfg.replicas) for _ in range(3))
        for rep in range(cfg.replicas):
            jstar, row = walk_end_and_x(cfg, level, base.derive(rep))
            if row is None:
                continue
            cubes = row * row * row
            cubes[abs(jstar):] = 0.0
            masked[rep] = np.add.reduce(cubes)
            exact[rep] = math.fsum(cubes.tolist())
            # numpy sums blocks of <= 128 terms in 8 accumulators (<= 15 + 3
            # roundings on a term's path) and halves longer rows, one more
            # rounding per halving; fsum rounds once
            k = 19 + max(0, math.ceil(math.log2(len(cubes) / 128)))
            u = np.finfo(float).eps / 2
            bound[rep] = k * u / (1 - k * u) * math.fsum(np.abs(cubes).tolist())
        return masked, exact, bound

    @pytest.mark.parametrize("level, t", [(3, 0.9), (4, 1.0), (9, 0.7)])
    def test_sums_match_the_per_replica_sums(self, level, t):
        # the sums of a walk ending at -m are the +m sums on the mirrored
        # path, so both read the row's first |j*| increments from 0
        cfg = VerifyConfig(hurst=1 / 6, f=function_by_name("gauss"), t=t,
                           levels=(level,), replicas=60, seed=63)
        masked, exact, bound = self._cube_sum_oracle(cfg, level)
        cubes = _cube_sums(cfg, level)
        assert cubes.tobytes() == masked.tobytes()
        assert np.all(np.abs(cubes - exact) <= bound)
        f1 = cfg.f.derivative(1)
        rhs = _critical_rhs(cfg, level)
        base = SeedRecord(63).derive("critical-rhs", level)
        for rep in range(cfg.replicas):
            jstar, row = walk_end_and_x(cfg, level, base.derive(rep))
            if row is None:
                assert rhs[rep] == 0.0
                continue
            x = np.concatenate([[0.0], np.cumsum(row[:abs(jstar)])])
            terms = 0.5 * (f1(x[:-1]) + f1(x[1:])) * (x[1:] - x[:-1])
            assert rhs[rep] == math.fsum(terms.tolist()), (rep, jstar)

    def test_summing_the_padding_fails(self, monkeypatch):
        # mutant: every row summed over its whole padded length
        def unmasked(cfg, level, role):
            for reps, ends, rows in _walk_end_rows(cfg, level, role):
                yield reps, np.full_like(ends, rows.shape[1]), rows

        cfg = VerifyConfig(hurst=0.1, f=sine(), t=0.7, levels=(9,), replicas=60,
                           seed=63)
        masked, exact, bound = self._cube_sum_oracle(cfg, 9)
        monkeypatch.setattr(calculus_mod, "_walk_end_rows", unmasked)
        mutant = _cube_sums(cfg, 9)
        assert mutant.tobytes() != masked.tobytes()
        assert not np.all(np.abs(mutant - exact) <= bound)

    def test_sums_do_not_depend_on_the_chunks(self, monkeypatch):
        # every row size in one chunk, then a few rows per chunk
        level = 9
        cfg = VerifyConfig(hurst=0.1, f=sine(), t=1.0, levels=(level,),
                           replicas=300, seed=65)

        def sizes():
            return [rows.shape[1] for _, _, rows in
                    _walk_end_rows(cfg, level, "subcritical")]

        monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", 2**30)
        one_chunk_each = sizes()
        assert len(set(one_chunk_each)) == len(one_chunk_each)
        whole = _cube_sums(cfg, level)
        monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", 72 * 2**level // 4)
        chunked = sizes()
        assert len(set(chunked)) < len(chunked)
        assert _cube_sums(cfg, level).tobytes() == whole.tobytes()

    @staticmethod
    def _exact_cube_sum_variance(level, hurst):
        """sum_m P(|j*| = m) sigma^6 v_m over the walk ends of t = 1, with
        v_m = sum_{|r|<m} (m - |r|)(6 rho(r)^3 + 9 rho(r))."""
        steps = 2**level
        r = np.arange(steps)
        rho = increment_autocovariance(r, hurst)
        g = 6 * rho**3 + 9 * rho
        total = 0.0
        for k in range(steps + 1):
            m = abs(2 * k - steps)
            if m:
                v_m = m * g[0] + 2 * float(np.sum((m - r[1:m]) * g[1:m]))
                total += math.comb(steps, k) / 2**steps * v_m
        sigma = 2.0 ** (-level * hurst / 2)
        return total * sigma**6

    @staticmethod
    def _within_3_se(vals, exact):
        # SE of the sample variance from the sample fourth moment
        c = vals - vals.mean()
        var = float(c @ c) / (len(c) - 1)
        return abs(var - exact) <= 3 * variance_stderr(vals)

    # The replica count comes from a power calculation: the sum's kurtosis
    # is about 10, so the sample variance has relative SE sqrt(9/N); at
    # N = 30000 that is 0.017, and a 10 % error in the variance lies
    # (3 + 2.33) SE away, so it fails the 3 SE band with power 0.99.  The
    # mutant below moves the variance by 81 %.
    REPLICAS = 30000

    def test_level_variance_is_the_exact_mixture(self):
        exact = self._exact_cube_sum_variance(8, 0.1)
        assert exact == pytest.approx(15.0337, abs=1e-4)
        cfg = VerifyConfig(hurst=0.1, f=sine(), t=1.0, levels=(8,),
                           replicas=self.REPLICAS, seed=62)
        assert self._within_3_se(_cube_sums(cfg, 8), exact)

    def test_rows_scaled_by_the_wrong_power_fail(self, monkeypatch):
        # mutant: rows scaled by 2^{-nH} instead of 2^{-nH/2}
        monkeypatch.setattr(calculus_mod, "dyadic_step", lambda level: 2.0**-level)
        cfg = VerifyConfig(hurst=0.1, f=sine(), t=1.0, levels=(8,),
                           replicas=self.REPLICAS, seed=62)
        assert not self._within_3_se(_cube_sums(cfg, 8),
                                     self._exact_cube_sum_variance(8, 0.1))


class TestPow2AtLeast:
    """The least power of two >= max(x, 1), exactly."""

    @staticmethod
    def _reference(x):
        n = 1
        while n < x:  # exact: powers of two are floats
            n *= 2
        return n

    def test_integers_up_to_2_20(self):
        m = np.arange(1, 2**20 + 1, dtype=np.int64)
        expected = np.array([1 << (k - 1).bit_length() for k in m.tolist()])
        got = _pow2_at_least(m)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("k", range(51))
    def test_next_to_powers_of_two(self, k):
        p = 2.0**k
        # just above 2^k, ceil(log2(x)) rounds to k for every k >= 4
        for x in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)):
            assert _pow2_at_least(x) == self._reference(x), x

    def test_at_most_one(self):
        for x in (0.0, 1e-300, 0.5, 1.0, -3.0):
            assert _pow2_at_least(x) == 1
        np.testing.assert_array_equal(_pow2_at_least(np.array([0, 1, 2, 3])),
                                      [1, 1, 2, 4])
        assert _pow2_at_least(np.array([], dtype=np.int64)).shape == (0,)


class TestEvaluateGate:
    def _report(self, branch, per_level, extra=None, levels=None, hurst=None):
        return VerificationReport(
            branch=branch, hurst=hurst or (0.35 if branch == "supercritical" else 0.1),
            f_descriptor="sin", t=1.0,
            levels=levels or list(range(8, 8 + 2 * len(per_level), 2)),
            replicas=10, per_level=per_level, extra=extra or {}, seed=0)

    def test_supercritical_gate(self):
        ok = self._report("supercritical",
                          [{"mean_abs": 0.3}, {"mean_abs": 0.2}])
        assert evaluate_gate(ok) == []
        bad = self._report("supercritical",
                           [{"mean_abs": 0.2}, {"mean_abs": 0.25}])
        assert "not strictly decreasing" in evaluate_gate(bad)[0]

    def test_supercritical_slope_band(self):
        # C7's numbers (H = 0.35, levels 8..14): slope -0.0817 against
        # -H/4 = -0.0875 +- 3 * 0.0137, remainder ratio 0.345
        rows = [{"mean_abs": m, "mean_abs_at_skeleton_end": e} for m, e in
                zip((0.2758, 0.2478, 0.2289, 0.1941), (0.0249, 0.0165, 0.0128, 0.0086))]
        ok = self._report("supercritical", rows, extra={
            "mean_abs_log2_slope": -0.0817, "mean_abs_log2_slope_stderr": 0.0137})
        assert evaluate_gate(ok) == []
        flat = self._report("supercritical", rows, extra={
            "mean_abs_log2_slope": -0.0300, "mean_abs_log2_slope_stderr": 0.0137})
        (msg,) = evaluate_gate(flat)
        assert "log2 slope of mean_abs -0.0300 outside -0.0875 +- 0.0411" in msg

    def _c7(self, top_end, hurst=0.35):
        """C7's rows at seed 7 with the top level's skeleton-end remainder set."""
        rows = [{"mean_abs": m, "mean_abs_at_skeleton_end": e} for m, e in
                zip((0.3, 0.2495, 0.2287, 0.1928), (0.0240, 0.0178, 0.0121, top_end))]
        return self._report("supercritical", rows, hurst=hurst, extra={
            "mean_abs_log2_slope": -0.1019, "mean_abs_log2_slope_stderr": 0.0131})

    def test_supercritical_halving(self):
        # H = 0.35 on levels 8..14: the rate predicts a ratio of 0.319
        assert evaluate_gate(self._c7(0.00881)) == []  # ratio 0.367
        (msg,) = evaluate_gate(self._c7(0.01224))  # ratio 0.51
        assert msg.startswith("mean_abs_at_skeleton_end at level 14 is 0.510 of its "
                              "level-8 value, above 0.5")

    def test_no_halving_where_the_rate_cannot_halve(self):
        # H = 0.2 on levels 8..14: the rate predicts 0.81, so a correct
        # program cannot halve and the clause does not apply
        report = self._c7(0.0216, hurst=0.2)  # ratio 0.9
        assert not any("mean_abs_at_skeleton_end" in m for m in evaluate_gate(report))
        assert "mean_abs_at_skeleton_end halving" not in [c[0] for c in gate_clauses(report)]

    def test_critical_gate(self):
        ok = self._report("critical", [{"ks_distance": 0.06}, {"ks_distance": 0.04}])
        assert evaluate_gate(ok) == []
        bad = self._report("critical", [{"ks_distance": 0.04}, {"ks_distance": 0.05}])
        assert evaluate_gate(bad)

    def test_subcritical_gate(self):
        ok = self._report("subcritical", [{}], extra={"slope": 0.25, "slope_target": 0.2})
        assert evaluate_gate(ok) == []
        bad = self._report("subcritical", [{}], extra={"slope": 0.45, "slope_target": 0.2})
        assert "slope" in evaluate_gate(bad)[0]
        nan = self._report("subcritical", [{}], extra={"slope": math.nan, "slope_target": 0.2})
        assert "slope" in evaluate_gate(nan)[0]
