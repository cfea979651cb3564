"""fbmbt Monte Carlo benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  The workload runs in its own fresh,
single-threaded process (``measure.py``) that imports fbmbt from ``src/``
and calls the library entry point of the CLI's ``verify`` or ``scaling``
command repeatedly, with the same seed, for ``--seconds`` seconds.

``--trace 0`` measures the end-to-end metrics with tracing off, plus
set-up time from several fresh interpreters.  ``--trace 1`` alternates
untraced and traced calls over the window and reports per-layer metrics
per branch call.  The last stdout line is the
result object; the line before it holds the informational fields
(environment, report fingerprint, failed fraction, per-call times).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import THREAD_VARS
from workloads import WORKLOADS, make_config, replicas_per_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
TIME_LIMIT_S = 170  # the whole run, set-up included
LAYERS = ("streams", "fgn", "skeleton", "variations", "calculus", "scaling",
          "stats")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(cfg: dict, timeout: float) -> str:
    """Run measure.py on ``cfg``; its stdout, or exit when it fails."""
    proc = subprocess.run([sys.executable, str(HERE / "measure.py"),
                           json.dumps(cfg)], env=child_env(), text=True,
                          stdout=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"workload process exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds(cfg: dict) -> list:
    """Wall time of fresh interpreters that import fbmbt and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        run_child(dict(cfg, probe=True), timeout=60)
        times.append(time.perf_counter() - start)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cfg: dict, calls: list, peak_rss_kb: int, setup: list) -> dict:
    reps = replicas_per_call(cfg)
    return {
        "replicas_per_s": metric(statistics.median(reps / c["wall_s"] for c in calls), "1/s"),
        "cpu_ms_per_replica": metric(
            statistics.median(1000.0 * c["cpu_s"] / reps for c in calls), "ms"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def per_layer(out: dict) -> dict:
    """Per-layer metrics per traced branch call, and each layer's share."""
    traced = out["traced_calls"]
    k = len(traced)
    spans, counters = out["spans"], out["counters"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0) / k

    def count(name):
        return counters.get(name, 0) / k

    m = {}
    for name in ("skeleton.build", "fgn.sample_fbm", "fgn.sample_bm",
                 "streams.generator", "calculus.sample_joint",
                 "variations.symmetric_direct", "scaling.power_variation"):
        m[name + ".calls"] = metric(span(name, "calls"), "count")
        m[name + ".self_s"] = metric(span(name, "self_s"), "s")
    m["fgn.extend_bm.calls"] = metric(span("fgn.extend_bm", "calls"), "count")
    m["calculus.branch.self_s"] = metric(span("calculus.branch", "self_s"), "s")
    m["scaling.check_cubic.self_s"] = metric(span("scaling.check_cubic", "self_s"), "s")
    m["stats.ks.calls"] = metric(span("stats.ks", "calls"), "count")
    m["stats.ks.s"] = metric(span("stats.ks", "total_s"), "s")
    m["stats.summary.s"] = metric(span("stats.summary", "total_s"), "s")

    build_s = span("skeleton.build", "self_s")
    samples = count("skeleton.path_samples")
    built = count("skeleton.steps_built")
    m["skeleton.path_samples"] = metric(samples, "count")
    m["skeleton.samples_per_s"] = metric(samples / build_s if build_s else 0.0, "1/s")
    m["skeleton.steps_built"] = metric(built, "count")
    m["skeleton.useful_ratio"] = metric(
        count("skeleton.steps_needed") / built if built else 0.0, "ratio")
    for name in ("fgn.sample_fbm.increments", "variations.symmetric_direct.terms",
                 "scaling.power_variation.terms", "fgn.wiener.calls",
                 "fgn.cholesky_fallbacks"):
        m[name] = metric(count(name), "count")
    m["fgn.sample_fbm.mb_computed"] = metric(count("fgn.sample_fbm.mb_computed"), "MB")

    traced_wall = sum(c["wall_s"] for c in traced) / k
    for layer in LAYERS:
        self_s = sum(row["self_s"] for name, row in spans.items()
                     if name.split(".")[0] == layer) / k
        m[f"share.{layer}"] = metric(self_s / traced_wall, "ratio")
    untraced = statistics.median(c["wall_s"] for c in out["calls"])
    m["trace.call_s"] = metric(statistics.median(c["wall_s"] for c in traced), "s")
    m["trace.overhead_frac"] = metric(m["trace.call_s"]["value"] / untraced - 1.0,
                                      "ratio")
    return m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the pinned acceptance seed)")
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "fbmbt" / "__init__.py").is_file():
        sys.exit(f"no fbmbt sources under {ROOT / 'src'}; run from a source checkout")

    start = time.perf_counter()
    cfg = make_config(args.workload, args.seed)
    cfg.update(seconds=args.seconds, trace=bool(args.trace))
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        cfg["trace_file"] = str(out_dir / f"spans_{args.workload}_seed{cfg['seed']}.jsonl")
        setup = []
    else:
        setup = setup_seconds(cfg)
    out = json.loads(run_child(cfg, TIME_LIMIT_S - (time.perf_counter() - start))
                     .splitlines()[-1])

    calls = out["calls"] + out.get("traced_calls", [])
    reference = calls[0]["body_sha256"]
    for c in calls:
        if c["body_sha256"] != reference:
            c["failures"].append("report body differs from the first call's")
    failed = sum(1 for c in calls if c["failures"])
    if args.trace:
        metrics = per_layer(out)
    else:
        metrics = end_to_end(cfg, out["calls"], out["peak_rss_kb"], setup)

    info = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "seed": cfg["seed"],
        "holdout_seed": WORKLOADS[args.workload]["holdout"],
        "config": cfg,
        "replicas_per_call": replicas_per_call(cfg),
        "body_sha256": reference,
        "failed_frac": {"value": failed / len(calls), "unit": "ratio"},
        "call_wall_s": [c["wall_s"] for c in calls],
        "setup_probe_s": setup,
        "failures": sorted({f for c in calls for f in c["failures"]}),
        "environment": out["environment"],
    }
    if args.trace:
        info["unwrapped"] = out["unwrapped"]
        info["trace_file"] = cfg["trace_file"]
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {info['failed_frac']['value']:.6g} ratio")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
