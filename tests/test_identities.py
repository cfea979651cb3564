"""Breaking one ingredient of an identity makes its check fail, and
``fbmbt selftest`` then exits 2 with a FAIL line naming that check."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from fbmbt import calculus, identities, skeleton, variations
from fbmbt.cli import main

_coeffs = variations.odd_power_hermite_coeffs
_scheme = calculus.taylor_coefficients()
_gammas = _scheme.gammas[:2] + (_scheme.gammas[2] + Fraction(1, 1000),) + _scheme.gammas[3:]

MUTANTS = {  # check name: (check, module, attribute, broken replacement)
    "cell-sum identity": (  # the cell sum takes its sign from the closed form
        identities.cell_sum_identity, variations, "updown_difference",
        lambda t, j: -skeleton.updown_difference(t, j)),
    "Hermite decomposition identity": (  # x^3 = H_3 + 3 H_1, not H_3 + 3.5 H_1
        identities.hermite_decomposition, variations, "odd_power_hermite_coeffs",
        lambda r: _coeffs(r) + 0.5 * (r == 2) * (np.arange(r) == 0)),
    "two-point expansion exactness": (  # gamma_3 off by 1/1000
        identities.two_point_expansion, identities, "taylor_coefficients",
        lambda: dataclasses.replace(_scheme, gammas=_gammas)),
    "residual telescoping": (
        identities.residual_telescoping, identities, "ito_residual",
        lambda f, js: calculus.ito_residual(f, js) + 1e-9),
    "crossing closed form and conservation": (  # cells (0, terminal], not [0, terminal)
        identities.crossing_closed_form, identities, "updown_difference",
        lambda t, j: skeleton.updown_difference(t, j - 1)),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_broken_ingredient_fails_its_check(monkeypatch, name):
    check, *mutant = MUTANTS[name]
    monkeypatch.setattr(*mutant)
    result = check(3)
    assert result.name == name and not result.ok


def test_selftest_exits_2_with_a_fail_line(monkeypatch, capsys):
    name = "residual telescoping"
    monkeypatch.setattr(*MUTANTS[name][1:])
    assert main(["selftest", "--seed", "3"]) == 2
    heads = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert len(heads) == len(identities.CHECKS) and f"FAIL  {name}" in heads


def test_nan_in_a_late_case_fails_its_check(monkeypatch):
    calls = iter(range(10))  # C4 measures 10 cases; the last one turns NaN
    monkeypatch.setattr(identities, "ito_residual", lambda f, js: calculus.ito_residual(
        f, js) + (np.nan if next(calls) == 9 else 0.0))
    result = identities.residual_telescoping(3)
    assert not result.ok and result.where == "i=4, f=square"
