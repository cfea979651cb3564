"""scipy.special stays off the import path: only the exit-time sampler
(the supercritical branch and the ``skeleton`` command) loads it, on its
first draw."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fbmbt

SRC = str(Path(fbmbt.__file__).resolve().parents[1])

SCRIPT = textwrap.dedent("""
    import sys

    def special_loaded():
        return "scipy.special" in sys.modules

    import fbmbt.cli
    print("import", special_loaded())

    from fbmbt.calculus import VerifyConfig, verify_branch
    from fbmbt.scaling import check_cubic, check_quadratic
    from fbmbt.variations import function_by_name

    def config(hurst, levels):
        return VerifyConfig(hurst=hurst, f=function_by_name("sin"), t=1.0,
                            levels=levels, replicas=8, seed=3)

    verify_branch("subcritical", config(0.10, (4, 5, 6)))
    verify_branch("critical", config(1 / 6, (4, 5)))
    check_cubic(1 / 6, 1.0, [4, 5], 8, 3)
    check_quadratic(0.3, 1.0, [4, 5], 8, 3)
    print("branches", special_loaded())

    if sys.argv[1] == "supercritical":
        verify_branch("supercritical", config(0.35, (4, 5)))
    else:
        import contextlib, io, tempfile
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                assert fbmbt.cli.main(["skeleton", "--level", "4",
                                       "--horizon", "1", "--outdir", out]) == 0
    print(sys.argv[1], special_loaded())
""")


def test_only_the_exit_time_sampler_loads_scipy_special():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for loader in ("supercritical", "skeleton"):
        out = subprocess.run([sys.executable, "-c", SCRIPT, loader], env=env,
                             text=True, capture_output=True, check=True).stdout
        assert out.split("\n")[:3] == ["import False", "branches False",
                                       f"{loader} True"]
