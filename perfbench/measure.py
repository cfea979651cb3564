"""Workload process: runs one workload's branch calls and reports raw timings.

Started by ``run.py`` in a fresh interpreter with the generated config as
its only argument (a JSON object).  With ``"probe": true`` it only imports
fbmbt and makes one tiny warm-up call, which ``run.py`` times as set-up.
Otherwise it warms up and makes branch calls for the window; when tracing,
untraced and traced calls alternate.
The last stdout line is a JSON object with every call's wall and CPU time,
report fingerprint and check failures, the peak RSS, the environment and,
when tracing, the span summary.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback

from workloads import check_report, run_call, WARMUP_REPLICAS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy
    import fbmbt
    import fbmbt.skeleton
    have_numba = getattr(fbmbt.skeleton, "_HAVE_NUMBA", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fbmbt": fbmbt.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "scan_backend": {True: "numba", False: "python"}.get(have_numba, "unknown"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def timed_call(cfg: dict, tracer=None) -> dict:
    """One branch call: wall and CPU time, body fingerprint, check failures.

    With a tracer the call runs inside a root span named after the entry
    point, whose self time is the branch's inline work.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            report = run_call(cfg)
        else:
            root = "scaling.check_cubic" if cfg["kind"] == "cubic" else "calculus.branch"
            with tracer.span(root):
                report = run_call(cfg)
    except Exception:  # a raising call counts as failed; keep measuring
        traceback.print_exc()
        return {"wall_s": time.perf_counter() - wall0,
                "cpu_s": time.process_time() - cpu0,
                "body_sha256": None, "failures": ["call raised"]}
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    body = report.body_dict()
    text = json.dumps(body, sort_keys=True)
    return {"wall_s": wall, "cpu_s": cpu,
            "body_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "failures": check_report(cfg, body)}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    run_call(cfg, replicas=WARMUP_REPLICAS)
    if cfg.get("probe"):
        return 0
    out = {"environment": environment(), "calls": []}
    if cfg["trace"]:
        from tracer import Tracer
        tracer = Tracer(cfg["t"])
        out["traced_calls"] = []
    # Calls while the next one is expected to end within the window, and at
    # least one.  When tracing, each untraced call is followed by a traced
    # one, so a slow spell of the machine affects both alike and their ratio
    # gives the tracing overhead.
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        out["calls"].append(timed_call(cfg))
        if cfg["trace"]:
            tracer.run_id = len(out["traced_calls"])
            with tracer:
                out["traced_calls"].append(timed_call(cfg, tracer))
        now = time.perf_counter()
        if now - start + (now - begin) > cfg["seconds"]:
            break
    if cfg["trace"]:
        out["spans"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
        out["unwrapped"] = tracer.unwrapped
        tracer.write(cfg["trace_file"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
