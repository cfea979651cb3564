"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Run from the root of a source checkout; exits 0 when every check holds.
On a two-replica call of each workload it checks that

* an untraced call runs the package's own functions and never a tracing
  wrapper (seen through ``sys.setprofile``);
* inside the tracer the call sites in ``fbmbt.calculus`` and
  ``fbmbt.scaling`` and ``SeedRecord.generator`` are wrapped, and a traced
  call records the expected spans;
* leaving the tracer restores every binding in every fbmbt module;
* tracing leaves the report body unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fbmbt import calculus, fgn, scaling, stats  # noqa: E402
from fbmbt.streams import SeedRecord  # noqa: E402

from tracer import Tracer, is_wrapped  # noqa: E402
from workloads import WORKLOADS, make_config, run_call  # noqa: E402

# Names calculus and scaling import by name from other modules (plus
# scaling's own power_variation); each must be wrapped where it is called.
CALL_SITES = {
    calculus: ("sample_fbm_two_sided", "sample_bm", "extend_bm",
               "build_skeleton", "symmetric_variation_direct", "ks_two_sample"),
    scaling: ("sample_fbm_two_sided", "ks_one_sample_normal", "power_variation"),
}

EXPECTED_SPANS = {
    "supercritical": {"calculus.branch", "calculus.sample_joint", "skeleton.build",
                      "fgn.sample_bm", "fgn.sample_fbm", "streams.generator",
                      "variations.symmetric_direct", "stats.summary"},
    "critical": {"calculus.branch", "fgn.sample_fbm", "streams.generator",
                 "stats.ks"},
    "subcritical": {"calculus.branch", "fgn.sample_fbm", "streams.generator",
                    "stats.summary"},
    "cubic_scaling": {"scaling.check_cubic", "scaling.power_variation",
                      "fgn.sample_fbm", "streams.generator", "stats.ks"},
}

REPLICAS = 2
WRAPPER_CODE = Tracer(1.0).wrap(lambda: None, "probe").__code__


def bindings() -> dict:
    """Every attribute of every loaded fbmbt module and the wrapped classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "fbmbt" or name.startswith("fbmbt."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (SeedRecord, stats.SampleSummary):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def profiled(fn):
    """Result of ``fn()`` and the code objects of every Python call it made."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, seen


def body_sha(report) -> str:
    text = json.dumps(report.body_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    failures = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    before = bindings()
    originals = {fgn.sample_fbm_two_sided.__code__: "fgn.sample_fbm_two_sided",
                 SeedRecord.generator.__code__: "SeedRecord.generator"}
    for name in WORKLOADS:
        cfg = make_config(name, None)
        root = "scaling.check_cubic" if cfg["kind"] == "cubic" else "calculus.branch"

        report, seen = profiled(lambda: run_call(cfg, replicas=REPLICAS))
        check(WRAPPER_CODE not in seen, f"{name}: untraced call ran a tracing wrapper")
        for code, label in originals.items():
            check(code in seen, f"{name}: untraced call did not run {label}")
        untraced_sha = body_sha(report)

        with Tracer(cfg["t"]) as tracer:
            for module, attrs in CALL_SITES.items():
                for attr in attrs:
                    check(is_wrapped(getattr(module, attr)),
                          f"{module.__name__}.{attr} not wrapped while tracing")
            check(is_wrapped(SeedRecord.generator),
                  "SeedRecord.generator not wrapped while tracing")

            def traced_call():
                with tracer.span(root):
                    return run_call(cfg, replicas=REPLICAS)

            report, seen = profiled(traced_call)
        check(WRAPPER_CODE in seen, f"{name}: traced call ran no tracing wrapper")
        missing = EXPECTED_SPANS[name] - set(tracer.summary())
        check(not missing, f"{name}: no spans named {sorted(missing)}")
        check(not tracer.unwrapped, f"{name}: targets not found {tracer.unwrapped}")
        check(body_sha(report) == untraced_sha, f"{name}: tracing changed the report")
        if name == "supercritical":  # one unused W path per replica and level
            expected = REPLICAS * len(cfg["levels"])
            check(tracer.counters["fgn.wiener.calls"] == expected,
                  f"fgn.wiener.calls {tracer.counters['fgn.wiener.calls']}, "
                  f"expected {expected}")

        after = bindings()
        changed = sorted(f"{k[0]}.{k[1]}" for k in before
                         if k in after and after[k] is not before[k])
        check(not changed, f"{name}: bindings not restored: {changed}")

    for message in failures:
        print(f"FAIL: {message}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
