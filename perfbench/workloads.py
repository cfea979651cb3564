"""The four benchmark workloads: their configs, calls and correctness checks.

Each workload runs the same library entry point as one of the CLI's
``verify`` / ``scaling`` commands, single-threaded (``workers=1``).  The
replica counts are smaller than the acceptance suite's so that several
calls fit in one measured window; each is sized so that its correctness
check holds on nearly every seed, not just the pinned one (see README.md).
"""

from __future__ import annotations

import math

# name -> layout.  ``seed`` is the pinned acceptance seed (the default),
# ``holdout`` a second seed to confirm a claimed gain on a seed not used
# while the change was written.  ``why`` is the one-line reason the
# workload exists; BENCHMARK.json carries the same text.
WORKLOADS = {
    "supercritical": {
        "why": "skeleton-bound: build_skeleton is ~80% of the time; the only "
               "workload using skeleton, variations, sample_bm/extend_bm and "
               "the unused W draw",
        "kind": "verify", "branch": "supercritical", "hurst": 0.35,
        "levels": [10, 12], "replicas": 20, "seed": 7, "holdout": 7007,
    },
    "critical": {
        "why": "fGn on large two-sided grids (~2^15 increments at lhs spacing "
               "2^-13), no skeleton; covers the correction and cell fsums and "
               "ks_two_sample",
        "kind": "verify", "branch": "critical", "hurst": 1 / 6,
        "levels": [8, 12], "replicas": 100, "seed": 20260808,
        "holdout": 20260908,
    },
    "subcritical": {
        "why": "same fgn layer used differently: ~20k tiny paths (2^4-2^9 "
               "increments) bound by per-call overhead such as "
               "SeedRecord.generator",
        "kind": "verify", "branch": "subcritical", "hurst": 0.10,
        "levels": [8, 10, 12, 14], "replicas": 5000, "seed": 202,
        "holdout": 2020,
    },
    "cubic_scaling": {
        "why": "the only workload through fbmbt.scaling: power_variation plus "
               "fGn on a two-sided grid of 2*2^14 increments of which one "
               "side is read",
        "kind": "cubic", "hurst": 1 / 6, "levels": [14], "replicas": 100,
        "seed": 20260816, "holdout": 20260916,
    },
}

# Both verify and scaling evaluate the sine test function at t = 1, as the
# acceptance criteria C6-C9 do.
T = 1.0
FNAME = "sin"
WARMUP_REPLICAS = 2


def make_config(name: str, seed: "int | None") -> dict:
    """Generated config of one workload; ``seed=None`` takes the pinned seed."""
    w = WORKLOADS[name]
    cfg = {k: v for k, v in w.items() if k not in ("why", "holdout")}
    cfg["name"] = name
    cfg["t"] = T
    cfg["f"] = FNAME
    if seed is not None:
        cfg["seed"] = int(seed)
    return cfg


def replicas_per_call(cfg: dict) -> int:
    """Samples one report aggregates, counted once per level.

    In the critical branch one lhs plus one rhs draw count as one replica.
    """
    return cfg["replicas"] * len(cfg["levels"])


def run_call(cfg: dict, replicas: "int | None" = None):
    """One branch call through the library entry point the CLI uses."""
    reps = cfg["replicas"] if replicas is None else replicas
    if cfg["kind"] == "cubic":
        from fbmbt.scaling import check_cubic
        return check_cubic(cfg["hurst"], cfg["t"], cfg["levels"], reps,
                           cfg["seed"])
    from fbmbt.calculus import VerifyConfig, verify_branch
    from fbmbt.variations import function_by_name
    vc = VerifyConfig(hurst=cfg["hurst"], f=function_by_name(cfg["f"]),
                      t=cfg["t"], levels=tuple(cfg["levels"]), replicas=reps,
                      seed=cfg["seed"], workers=1)
    return verify_branch(cfg["branch"], vc)


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite_numbers(v) for v in obj)
    return False


def check_report(cfg: dict, body: dict) -> list:
    """Failure messages for one report body; empty when it is correct.

    The checks test properties of a correct program, not particular values,
    so they survive changes to the random streams; the statistical ones
    (KS p-values, slope) still fail on a small share of seeds.
    """
    failures = []
    if not _finite_numbers(body):
        failures.append("report body holds a non-finite or non-numeric value")
    rows = body["per_level"]
    if len(rows) != len(cfg["levels"]):
        failures.append(f"{len(rows)} level rows for levels {cfg['levels']}")
    if cfg["name"] == "supercritical":
        for n, row in zip(cfg["levels"], rows):
            if not row["mean_abs_at_skeleton_end"] < row["mean_abs"]:
                failures.append(f"level {n}: mean_abs_at_skeleton_end "
                                f"{row['mean_abs_at_skeleton_end']} >= "
                                f"mean_abs {row['mean_abs']}")
    elif cfg["name"] == "critical":
        for n, row in zip(cfg["levels"], rows):
            if not row["ks_p"] > 1e-3:
                failures.append(f"level {n}: ks_p {row['ks_p']} <= 1e-3")
    elif cfg["name"] == "subcritical":
        # evaluate_gate's default tolerance around the theoretical slope
        target = (1.0 - 6.0 * cfg["hurst"]) / 2.0
        slope = body["extra"]["slope"]
        if not abs(slope - target) <= 0.10:
            failures.append(f"slope {slope} outside {target} +- 0.10")
    elif cfg["name"] == "cubic_scaling":
        for n, row in zip(cfg["levels"], rows):
            if not row["ks_p"] > 1e-3:
                failures.append(f"level {n}: ks_p {row['ks_p']} <= 1e-3")
            bound = 4.0 * math.sqrt(row["variance"] / cfg["replicas"])
            if not abs(row["mean"]) < bound:
                failures.append(f"level {n}: |mean| {abs(row['mean'])} >= "
                                f"4 stderr {bound}")
    return failures
