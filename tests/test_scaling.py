"""Quadratic and cubic variation scaling for plain fBm."""

import math

import numpy as np
import pytest

import fbmbt.fgn as fgn_mod
import fbmbt.scaling as scaling_mod
from fbmbt.fgn import HurstParameter, floor_steps, sample_fgn, uniform_step
from fbmbt.scaling import check_cubic, check_quadratic
from fbmbt.streams import SeedRecord


class TestPowerVariation:
    """``_power_sum`` and ``_level_power_sums``, the kernels both checks run."""

    def test_constant_path_is_zero(self):
        inc = np.zeros(16)
        assert scaling_mod._power_sum(inc, 2) == 0.0
        assert scaling_mod._power_sum(inc, 3) == 0.0

    def test_brownian_quadratic_variation_single_path(self):
        # H = 1/2, n = 16: one path already concentrates within 5%
        n = 16
        inc = sample_fgn(0.5, uniform_step(n), 2**n, seed=7)
        assert abs(scaling_mod._power_sum(inc, 2) - 1.0) < 0.05

    @pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
    def test_matches_exact_sum_of_powers(self, power):
        n, t = 9, 0.75
        inc = sample_fgn(1 / 6, uniform_step(n), floor_steps(n, t), seed=60 + power)
        exact = math.fsum((inc**power).tolist())
        assert scaling_mod._power_sum(inc, power) == pytest.approx(exact, rel=1e-12)
        term = np.empty_like(inc)
        assert scaling_mod._power_sum(inc, power, term) == \
            scaling_mod._power_sum(inc, power)

    def test_cubic_mean_vanishes(self):
        # odd moments of centered Gaussian increments
        n, reps = 10, 300
        vals = scaling_mod._level_power_sums(HurstParameter(0.3), 3, n, 1.0, reps,
                                             SeedRecord(8))
        assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / np.sqrt(reps)


class TestCheckQuadratic:
    def test_normalized_error_shrinks(self):
        report = check_quadratic(0.25, 1.0, [8, 10, 12, 14], 200, seed=9)
        errs = [row["median_abs_error"] for row in report.per_level]
        assert all(b < a for a, b in zip(errs, errs[1:])), errs

    def test_high_hurst_unnormalized_vanishes(self):
        # 2H - 1 > 0: raw quadratic variation tends to zero
        report = check_quadratic(0.75, 1.0, [8, 10, 12], 40, seed=10)
        raw = [row["mean_unnormalized"] for row in report.per_level]
        assert all(b < a for a, b in zip(raw, raw[1:])), raw

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            check_quadratic(0.3, 1.0, [10, 8], 10, seed=0)

    def test_zero_step_levels_report_empty_sums(self):
        # floor(2^n 0.1) = 0 at levels 1 and 2, 1 at level 4
        report = check_quadratic(0.3, 0.1, [1, 2, 4], 5, seed=0)
        for row in report.per_level[:2]:
            assert row["mean_unnormalized"] == 0.0
            assert row["median_abs_error"] == 0.1
        assert report.per_level[2]["mean_unnormalized"] > 0.0


@pytest.fixture
def drawn_rows(monkeypatch):
    """Copies of every fGn row the scaling checks draw, as (n_inc, row)."""
    rows = []
    draw = scaling_mod.sample_fgn_rows

    def recording(hurst, spacing, n_inc, keys, stream):
        for index, chunk in draw(hurst, spacing, n_inc, keys, stream):
            rows.extend((n_inc, row.copy()) for row in chunk)
            yield index, chunk

    monkeypatch.setattr(scaling_mod, "sample_fgn_rows", recording)
    return rows


class TestKeyedRows:
    """The checks draw a level's rows on Philox keys, in chunks of one
    reused workspace; each row is the per-record draw, bit for bit."""

    # levels 5 and 7 put every replica of a level in one chunk, level 14
    # one replica per chunk
    @pytest.mark.parametrize("levels, t, one_row_per_chunk", [
        ([5, 7], 0.6, False),
        ([14], 1.0, True),
    ])
    def test_rows_match_sample_fgn(self, drawn_rows, levels, t, one_row_per_chunk):
        h, replicas, seed = 1 / 6, 5, 71
        for n in levels:
            rows = max(1, fgn_mod._BATCH_BYTES // (72 * floor_steps(n, t)))
            assert rows == 1 if one_row_per_chunk else rows >= replicas
        base = SeedRecord(seed)
        for power, check in ((2, check_quadratic), (3, check_cubic)):
            drawn_rows.clear()
            check(h, t, levels, replicas, seed)
            assert len(drawn_rows) == len(levels) * replicas
            for i, (k, row) in enumerate(drawn_rows):
                n, rep = levels[i // replicas], i % replicas
                assert k == floor_steps(n, t)
                expected = sample_fgn(h, 2.0**-n, k, base.derive("scaling", power, n, rep))
                assert row.tobytes() == expected.tobytes(), (power, n, rep)

    def test_zero_step_levels_draw_nothing(self, drawn_rows):
        # floor(2^n 0.1) = 0 at levels 1 and 2, 1 at level 4
        report = check_quadratic(0.3, 0.1, [1, 2, 4], 5, seed=0)
        assert [row["mean_unnormalized"] for row in report.per_level[:2]] == [0.0, 0.0]
        assert {k for k, _ in drawn_rows} == {1} and len(drawn_rows) == 5
        drawn_rows.clear()
        report = check_cubic(1 / 6, 0.1, [1, 4], 5, seed=0)
        assert report.per_level[0]["mean"] == report.per_level[0]["variance"] == 0.0
        assert {k for k, _ in drawn_rows} == {1} and len(drawn_rows) == 5
        drawn_rows.clear()
        with pytest.raises(ValueError, match="top level 2"):
            check_cubic(1 / 6, 0.1, [1, 2], 5, seed=0)
        assert drawn_rows == []


class TestLayoutValidation:
    @pytest.mark.parametrize("check", [check_quadratic, check_cubic])
    @pytest.mark.parametrize("field, value", [
        ("t", float("inf")),
        ("t", 0.0),
        ("replicas", 1),
        ("replicas", 2.5),
        ("levels", [0, 2]),
        ("levels", [4, 4]),
        ("levels", [4.5]),
        ("seed", -1),
    ])
    def test_rejects_bad_layout(self, check, field, value):
        kwargs = dict(hurst=0.1, t=1.0, levels=[4, 6], replicas=10, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must"):
            check(**kwargs)


class TestCheckCubic:
    def test_requires_low_hurst(self):
        with pytest.raises(ValueError, match="H < 1/2"):
            check_cubic(0.6, 1.0, [8, 10, 12], 10, seed=0)

    def test_mean_and_variance_stability(self):
        report = check_cubic(1 / 6, 1.0, [10, 12, 14], 400, seed=11)
        # normalized statistic is centered
        for row in report.per_level:
            assert abs(row["mean"]) <= 4 * np.sqrt(row["variance"] / 400)
        # variance stabilizes across levels
        variances = [row["variance"] for row in report.per_level]
        for a, b in zip(variances, variances[1:]):
            assert 0.8 <= b / a <= 1.25, variances
        assert report.estimated_sigma2 == pytest.approx(variances[-1], rel=1e-12)

    def test_sigma2_stable_under_replica_doubling(self):
        small = check_cubic(1 / 6, 1.0, [12], 400, seed=12)
        large = check_cubic(1 / 6, 1.0, [12], 800, seed=12)
        s2a, s2b = small.estimated_sigma2, large.estimated_sigma2
        tol = 3 * s2a * np.sqrt(2.5 / 400)
        assert abs(s2a - s2b) <= tol

    @pytest.mark.parametrize("check", [check_quadratic, check_cubic])
    def test_2_to_the_62_steps_at_the_top_level_rejected(self, check):
        message = r"^t = 1e\+300 .* >= 2\^62 steps in the top level 8;"
        with pytest.raises(ValueError, match=message):
            check(1 / 6, 1e300, [6, 8], 5, 0)

    def test_zero_step_top_level_rejected(self):
        with pytest.raises(ValueError, match=r"t = 0\.1 .* top level 2"):
            check_cubic(1 / 6, 0.1, [1, 2], 5, 0)

    @pytest.mark.parametrize("t", [1.0, 0.6])
    def test_replicas_are_one_sided_fgn_draws(self, t):
        # pins the draw and its substream: derive("scaling", power, n, rep)
        h, levels, replicas, seed = 1 / 6, [5, 7], 6, 61
        base = SeedRecord(seed)

        def draws(power, n):
            return [sample_fgn(h, 2.0**-n, floor_steps(n, t),
                               base.derive("scaling", power, n, rep))
                    for rep in range(replicas)]

        cubic = check_cubic(h, t, levels, replicas, seed)
        quadratic = check_quadratic(h, t, levels, replicas, seed)
        for n, c_row, q_row in zip(levels, cubic.per_level, quadratic.per_level):
            norm = 2.0 ** (n * (3.0 * h - 0.5))
            vals = np.array([norm * float(np.sum(inc * inc * inc))
                             for inc in draws(3, n)])
            assert c_row["mean"] == float(vals.mean())
            assert c_row["variance"] == float(vals.var(ddof=1))
            raw = np.array([float(np.sum(inc * inc)) for inc in draws(2, n)])
            assert q_row["mean_unnormalized"] == float(np.mean(raw))

    def test_ks_columns_present(self):
        report = check_cubic(0.2, 1.0, [8, 10, 12], 200, seed=13)
        for row in report.per_level:
            assert 0 <= row["ks_distance"] <= 1
            assert 0 <= row["ks_p"] <= 1


class TestReports:
    def test_json_and_csv(self, tmp_path):
        report = check_quadratic(0.5, 1.0, [6, 8, 10], 20, seed=14)
        f = tmp_path / "scaling.json"
        report.save(f)
        import json
        doc = json.loads(f.read_text())
        assert doc["body"]["power"] == 2
        assert doc["body"]["levels"] == [6, 8, 10]
        csv = report.per_level_csv()
        assert csv.splitlines()[0].startswith("level,")
        assert len(csv.splitlines()) == 4

    def test_deterministic_body(self):
        a = check_quadratic(0.3, 1.0, [6, 8], 15, seed=15).body_dict()
        b = check_quadratic(0.3, 1.0, [6, 8], 15, seed=15).body_dict()
        assert a == b
