"""Breaking one ingredient of a criterion makes its check fail on the
clause that ingredient feeds, and breaking an identity makes ``fbmbt
selftest`` exit 2 with a FAIL line naming that check."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from fbmbt import calculus, criteria, fgn, scaling, skeleton, variations
from fbmbt.cli import main

_coeffs = variations.odd_power_hermite_coeffs
_scheme = calculus.taylor_coefficients()
_gammas = _scheme.gammas[:2] + (_scheme.gammas[2] + Fraction(1, 1000),) + _scheme.gammas[3:]

_as_weight = calculus._as_weight
_cell_ends = variations._cell_ends
_within_tol = "error <= tol"  # the one clause of an identity check

MUTANTS = {  # check name: (check, failing clause, module, attribute, broken replacement)
    "cell-sum identity": (  # each cell read from its right end to its left
        criteria.cell_sum_identity, _within_tol, variations, "_cell_ends",
        lambda values, cells, sign, center: _cell_ends(values, cells, sign, center)[::-1]),
    "Hermite decomposition identity": (  # x^3 = H_3 + 3 H_1, not H_3 + 3.5 H_1
        criteria.hermite_decomposition, _within_tol, variations, "odd_power_hermite_coeffs",
        lambda r: _coeffs(r) + 0.5 * (r == 2) * (np.arange(r) == 0)),
    "two-point expansion exactness": (  # gamma_3 off by 1/1000
        criteria.two_point_expansion, _within_tol, criteria, "taylor_coefficients",
        lambda: dataclasses.replace(_scheme, gammas=_gammas)),
    "residual telescoping": (
        criteria.residual_telescoping, _within_tol, criteria, "ito_residual",
        lambda f, js: calculus.ito_residual(f, js) + 1e-9),
    "crossing closed form and conservation": (  # cells (0, terminal], not [0, terminal)
        criteria.crossing_closed_form, _within_tol, criteria, "updown_difference",
        lambda t, j: skeleton.updown_difference(t, j - 1)),
    "quadratic variation scaling": (  # fGn drawn at H = 1/2 whatever H is asked
        criteria.quadratic_variation_scaling, "median |normalized QV - 1| at H=0.25",
        scaling, "sample_fgn_rows", lambda h, *a: fgn.sample_fgn_rows(0.5, *a)),
    "supercritical residual": (  # V_n weighted by f, not f'
        criteria.supercritical_residual, "mean_abs_at_skeleton_end halving",
        calculus, "_as_weight", lambda f, order: _as_weight(f, order - 1)),
    "subcritical variance growth": (  # cells of width 2^-n, not 2^-n/2
        criteria.subcritical_variance_growth, "variance slope within 0.10 of (1-6H)/2",
        calculus, "dyadic_step", fgn.uniform_step),
    "moment bound": (  # H_p read as H_{p+2} in the prefix form
        criteria.moment_bound, "prefix form matches weighted_hermite_variation",
        criteria, "hermite", lambda p, x: variations.hermite(p + 2, x)),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_broken_ingredient_fails_its_check(monkeypatch, name):
    check, clause, *mutant = MUTANTS[name]
    monkeypatch.setattr(*mutant)
    result = check(3)
    assert result.name == name and clause in [c.name for c in result.clauses if not c.ok]


def test_selftest_exits_2_with_a_fail_line(monkeypatch, capsys):
    name = "residual telescoping"
    monkeypatch.setattr(*MUTANTS[name][2:])
    assert main(["selftest", "--seed", "3"]) == 2
    heads = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert len(heads) == len(criteria.IDENTITIES) and f"FAIL  {name}" in heads


def test_nan_in_a_late_case_fails_its_check(monkeypatch):
    calls = iter(range(10))  # C4 measures 10 cases; the last one turns NaN
    monkeypatch.setattr(criteria, "ito_residual", lambda f, js: calculus.ito_residual(
        f, js) + (np.nan if next(calls) == 9 else 0.0))
    result = criteria.residual_telescoping(3)
    assert not result.ok and result.detail.endswith(" at i=4, f=square")
