"""End-to-end acceptance suite.

One test per acceptance criterion, in order, each running the criterion's
check from ``fbmbt.criteria`` at a pinned seed.  It prints a single
``ACCEPTANCE k <name>: PASS/FAIL`` line with the measured statistics and
asserts every clause and the seconds budget.  The criteria, their clauses
and their tolerances live in ``fbmbt.criteria``; notes/decisions.md derives
criterion 7's gates.
"""

import time

from fbmbt.criteria import CRITERIA

MASTER = 20260810

CASES = (  # criterion k's (test name, pinned seed, seconds budget), k = 1..12
    ("cell_sum_identity", MASTER + 1, 60),
    ("hermite_decomposition_identity", MASTER + 2, 60),
    ("two_point_expansion_exact", MASTER + 3, 5),
    ("residual_telescoping", MASTER + 4, 5),
    ("quadratic_variation_scaling", MASTER + 50, 120),
    ("cubic_variation_clt", MASTER + 6, 300),
    ("supercritical_residual_tightens", 7, 600),
    ("critical_law_match", 20260808, 900),
    ("subcritical_variance_growth", 202, 600),
    ("moment_bound", MASTER + 100, 300),
    ("remainder_scaling", MASTER + 11, 300),
    ("skeleton_law_checks", MASTER + 12, 120),
)

LAYOUTS = {  # the identity criteria print their layout and worst case ``c``
    1: "r in 1..3, n in 4..12, 100 paths each; worst err/tol {c.ratio:.2e}",
    2: "r<=3, n<=12, 50 samples per cell; worst err/tol {c.ratio:.2e}",
    3: "monomials to degree 13, 100 pairs each; worst err/bound {c.ratio:.2e}; "
       "third-derivative coefficient -1/24 exact",
    4: "5 joint samples at level 8; worst deviation {c.statistic:.2e} (tolerance 1e-12)",
}


def _accept(num: int, seed: int, seconds: float) -> None:
    start = time.perf_counter()
    res = CRITERIA[num - 1](seed)
    elapsed = time.perf_counter() - start
    detail = LAYOUTS[num].format(c=res.clauses[0]) if num in LAYOUTS else res.detail
    print(f"ACCEPTANCE {num:02d} {res.name}: {'PASS' if res.ok and elapsed < seconds else 'FAIL'}"
          f" - {detail}; {elapsed:.1f}s")
    assert res.ok, [c for c in res.clauses if not c.ok]
    assert elapsed < seconds


class TestAcceptance:
    """``test_c<k>_<name>`` runs criterion k at its pinned seed and budget."""


for _num, (_name, _seed, _seconds) in enumerate(CASES, start=1):
    setattr(TestAcceptance, f"test_c{_num:02d}_{_name}",
            lambda self, num=_num, seed=_seed, seconds=_seconds: _accept(num, seed, seconds))
