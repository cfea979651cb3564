"""Oracle tests for the shared Monte Carlo cores.

Each oracle is a copy of the inline code that one shared function
replaced: the critical branch's right-hand cell sum, the supercritical
branch's (full, at skeleton end) residual pair with V_n as the direct sum
over all skeletal values, and the two report serializers.  The shared code
must reproduce them bit for bit on seeded replicas.
"""

import json
import math

import numpy as np

from fbmbt.calculus import (VerificationReport, _as_weight, _pow2_at_least,
                            _skeletal_z_values, ito_residual_pair,
                            sample_joint, verify_branch, VerifyConfig)
from fbmbt.fgn import dyadic_step, sample_fbm_two_sided
from fbmbt.scaling import ScalingReport, check_cubic
from fbmbt.streams import SeedRecord
from fbmbt.variations import (function_by_name, sine, symmetric_cell_sum,
                              symmetric_variation_direct)

REPLICAS = 200


def _old_critical_rhs(f, hurst, t, level, rec):
    steps = int(math.floor(2.0**level * t + 1e-9))
    draw = int(rec.derive("walk").generator().binomial(steps, 0.5))
    jstar = 2 * draw - steps
    a = dyadic_step(level)
    half = _pow2_at_least(abs(jstar) + 2)
    x = sample_fbm_two_sided(hurst, a, half, rec.derive("fbm"))
    f1 = f.derivative(1)
    if jstar == 0:
        return 0.0, jstar, x
    j = np.arange(0, jstar) if jstar > 0 else np.arange(jstar, 0)
    x0 = x.values[j + half]
    x1 = x.values[j + 1 + half]
    w01 = 0.5 * (f1(x0) + f1(x1))
    sgn = 1.0 if jstar > 0 else -1.0
    return sgn * math.fsum((w01 * (x1 - x0)).tolist()), jstar, x


def _old_supercritical_pair(f, js):
    # V_n as the direct sum over all N + 1 skeletal values
    z = _skeletal_z_values(js, js.t)
    v = symmetric_variation_direct(_as_weight(f, 1), z, 1)
    full = float(f(js.z_t) - f(0.0) - v)
    at_end = float(f(z[-1]) - f(0.0) - v)
    return full, at_end


def _old_body(report, keys):
    return {name: getattr(report, attr) for name, attr in keys}


def _old_to_json(report, keys):
    doc = {"body": _old_body(report, keys), "wall_time": report.wall_time}
    return json.dumps(doc, sort_keys=True, indent=2)


def _old_per_level_csv(report):
    keys = sorted({k for row in report.per_level for k in row})
    lines = ["level," + ",".join(keys)]
    for lev, row in zip(report.levels, report.per_level):
        lines.append(str(lev) + "," + ",".join(repr(row.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


VERIFY_KEYS = [("schema_version", "schema_version"), ("branch", "branch"),
               ("hurst", "hurst"), ("f", "f_descriptor"), ("t", "t"),
               ("levels", "levels"), ("replicas", "replicas"),
               ("per_level", "per_level"), ("extra", "extra"), ("seed", "seed")]
SCALING_KEYS = [(k, k) for k in ("schema_version", "hurst", "power", "t",
                                 "levels", "replicas", "per_level",
                                 "estimated_sigma2", "seed")]


def test_cell_sum_matches_inline_critical_rhs():
    base = SeedRecord(31)
    f = sine()
    weight = _as_weight(f, 1)
    zeros = 0
    for rep in range(REPLICAS):
        level = 4 + rep % 7
        rec = base.derive("critical-rhs", level, rep)
        expected, jstar, x = _old_critical_rhs(f, 1 / 6, 1.0, level, rec)
        got = symmetric_cell_sum(weight, x, level, jstar, 1)
        zeros += jstar == 0
        assert got == expected, (rep, level, jstar)
    assert zeros > 0  # the empty sum is covered too


def test_residual_pair_matches_inline_supercritical_pair():
    base = SeedRecord(32)
    for rep in range(REPLICAS):
        f = function_by_name(("sin", "gauss", "cube")[rep % 3])
        js = sample_joint(0.35, 4 + rep % 9, 0.5, base.derive("replica", rep))
        assert ito_residual_pair(f, js) == _old_supercritical_pair(f, js)


def test_report_serializers_match_previous_layout(tmp_path):
    cfg = VerifyConfig(hurst=0.1, f=sine(), t=1.0, levels=(4, 6, 8),
                       replicas=20, seed=34)
    reports = [(verify_branch("subcritical", cfg), VERIFY_KEYS),
               (check_cubic(1 / 6, 1.0, [6, 8], 20, seed=35), SCALING_KEYS)]
    for report, keys in reports:
        assert report.body_dict() == _old_body(report, keys)
        assert report.to_json() == _old_to_json(report, keys)
        assert report.per_level_csv() == _old_per_level_csv(report)
        out = tmp_path / "r.json"
        report.save(out)
        assert out.read_text(encoding="utf-8") == _old_to_json(report, keys) + "\n"
        back = type(report).from_json(out.read_text(encoding="utf-8"))
        assert back.to_json() == report.to_json()
    assert isinstance(reports[0][0], VerificationReport)
    assert isinstance(reports[1][0], ScalingReport)
