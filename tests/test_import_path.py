"""No code path of the package loads scipy: every ``verify`` branch, both
scaling checks and the ``skeleton`` and ``selftest`` commands run in an
interpreter where ``import scipy`` fails."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fbmbt

SRC = str(Path(fbmbt.__file__).resolve().parents[1])

SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None  # any import of scipy or its submodules fails

    import contextlib, io, tempfile

    import fbmbt.cli
    assert "fbmbt.criteria" not in sys.modules  # only selftest loads it
    import fbmbt.criteria  # every criterion's module loads without scipy
    from fbmbt.calculus import VerifyConfig, verify_branch
    from fbmbt.scaling import check_cubic, check_quadratic
    from fbmbt.variations import function_by_name

    def config(hurst, levels):
        return VerifyConfig(hurst=hurst, f=function_by_name("sin"), t=1.0,
                            levels=levels, replicas=8, seed=3)

    verify_branch("subcritical", config(0.10, (4, 5, 6)))
    verify_branch("critical", config(1 / 6, (4, 5)))
    verify_branch("supercritical", config(0.35, (4, 5)))
    check_cubic(1 / 6, 1.0, [4, 5], 8, 3)
    check_quadratic(0.3, 1.0, [4, 5], 8, 3)
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert fbmbt.cli.main(["skeleton", "--level", "4", "--horizon",
                                   "1", "--outdir", out]) == 0
            assert fbmbt.cli.main(["selftest"]) == 0
    print("done", sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy" and sys.modules[m]))
""")


def test_no_code_path_loads_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out.splitlines()[-1] == "done []"
